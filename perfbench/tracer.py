"""Span tracing of gamowlab's layers, installed from outside the package.

Every function named in a layer module's ``__all__`` is replaced by a
timing wrapper wherever a ``gamowlab`` module binds it; a class in
``__all__`` that defines ``__post_init__`` (``qlattice.Projector``,
``gamow.Resonance``, ...) is traced through that method. Spans (name,
start, end, parent span, scenario id) stay in compact arrays in memory
and are written out at the end. :meth:`Tracer.uninstall` puts every
original object back, so untraced runs never carry a wrapper.

A span's self time is its duration minus the durations of its direct
children; calls are nested and single-threaded, so children never
overlap. The wrappers' own cost lands in the caller's self time and is
reported as ``trace.overhead_ratio``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from array import array
from collections import defaultdict

LAYERS = ("cmatrix", "channels", "gamow", "evolution", "commutators", "qlattice", "scenario", "cli")

_D, _L, _RW, _LT = "damping_stack", "resonance_long", "resonance_wide", "lattice_triples"

# Per-layer metric -> (end-to-end metric it should move, workloads it moves it on).
# BENCHMARK.json gives each one's unit and better direction.
LAYER_MAP = {
    "cmatrix.calls": ("items_per_s", [_D, _L]),
    "cmatrix.self_s": ("items_per_s", [_D, _L]),
    "cmatrix.self_share": ("items_per_s", [_D, _L]),
    "cmatrix.commutator.calls": ("items_per_s", [_D, _L]),
    "cmatrix.frobenius_norm.calls": ("items_per_s", [_D, _L]),
    "cmatrix.as_complex_matrix.calls": ("items_per_s", [_D, _L]),
    "cmatrix.flops_computed": ("run_s_p50", [_RW]),
    "channels.calls": ("items_per_s", [_D]),
    "channels.self_s": ("items_per_s", [_D]),
    "channels.self_share": ("items_per_s", [_D]),
    "channels.apply_heisenberg.calls": ("items_per_s", [_D]),
    "channels.apply_heisenberg.us_per_call": ("items_per_s", [_D]),
    "gamow.calls": ("run_s_p50", [_L]),
    "gamow.self_s": ("run_s_p50", [_L]),
    "gamow.self_share": ("run_s_p50", [_L]),
    "gamow.basis_index.calls": ("run_s_p50", [_L]),
    "evolution.calls": ("items_per_s", [_L]),
    "evolution.self_s": ("items_per_s", [_L]),
    "evolution.self_share": ("items_per_s", [_L]),
    "evolution.evolution_operator.calls": ("items_per_s", [_L]),
    "evolution.heisenberg_evolve.calls": ("items_per_s", [_L]),
    "evolution.heisenberg_evolve.us_per_call": ("items_per_s", [_L]),
    "evolution.flops_computed": ("run_s_p50", [_RW]),
    "evolution.gflop_per_s": ("run_s_p50", [_RW]),
    "commutators.calls": ("items_per_s", [_L]),
    "commutators.self_s": ("items_per_s", [_L]),
    "commutators.self_share": ("items_per_s", [_L]),
    "commutators.trajectory.self_s": ("items_per_s", [_L]),
    "commutators.ansatz_report.calls": ("items_per_s", [_L]),
    "commutators.ansatz_report.self_s": ("items_per_s", [_L]),
    "commutators.envelope_fit.self_s": ("items_per_s", [_L]),
    "commutators.fit_points_ratio": ("items_per_s", [_L]),
    "commutators.values_bytes": ("peak_rss_mb", [_RW]),
    "qlattice.calls": ("items_per_s", [_LT]),
    "qlattice.self_s": ("items_per_s", [_LT]),
    "qlattice.self_share": ("items_per_s", [_LT]),
    "qlattice.meet.calls": ("items_per_s", [_LT]),
    "qlattice.join.calls": ("items_per_s", [_LT]),
    "qlattice.Projector.calls": ("items_per_s", [_LT]),
    "qlattice.Projector.self_s": ("items_per_s", [_LT]),
    "scenario.self_s": ("run_s_p50", [_RW, _LT, _L]),
    "scenario.self_share": ("run_s_p50", [_RW, _LT, _L]),
    "scenario.load_scenario.self_s": ("run_s_p50", [_RW, _LT]),
    "scenario.input_bytes": ("run_s_p50", [_RW, _LT]),
    "scenario.output_bytes": ("run_s_p50", [_L]),
    "cli.import_s": ("cli_run_s", [_D, _L, _RW, _LT]),
    "cli.startup_s": ("cli_run_s", [_D, _L, _RW, _LT]),
    "trace.spans": None,
    "trace.overhead_ratio": None,
    "trace.wall_s": None,
    "trace.residue_s": None,
}


def _product_flops(m: int, k: int, n: int) -> int:
    # 8 real flops per complex multiply-add.
    return 8 * m * k * n


def _observe_commutator(counters, args, result):
    n = result.shape[0]
    counters["cmatrix.flops_computed"] += 2 * _product_flops(n, n, n)


def _observe_mul(counters, args, result):
    m, n = result.shape
    counters["cmatrix.flops_computed"] += _product_flops(m, len(args[1]), n)


def _observe_heisenberg(counters, args, result):
    d = result.shape[0]
    counters["evolution.flops_computed"] += 2 * _product_flops(d, d, d)


def _observe_trajectory(counters, args, result):
    counters["commutators.values_bytes"] += sum(v.nbytes for v in result.values)
    counters["commutators.grid_points"] += result.times.size


def _observe_fit(counters, args, result):
    counters["commutators.fit_points"] += result.n_points


#: Counters computed from arguments and results, labelled as computed.
OBSERVERS = {
    "cmatrix.commutator": _observe_commutator,
    "cmatrix.mul": _observe_mul,
    "evolution.heisenberg_evolve": _observe_heisenberg,
    "commutators.trajectory": _observe_trajectory,
    "commutators.envelope_fit": _observe_fit,
}


def _package_modules() -> list[types.ModuleType]:
    return [m for name, m in list(sys.modules.items()) if name == "gamowlab" or name.startswith("gamowlab.")]


class Tracer:
    """Records spans for every traced gamowlab call while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.scenario = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.scenario_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"gamowlab.{layer}")
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name)
                if isinstance(obj, type) and "__post_init__" in vars(obj):
                    hook = vars(obj)["__post_init__"]
                    self._wrappers[id(hook)] = (hook, self._wrap(hook, f"{layer}.{name}"))
                elif isinstance(obj, types.FunctionType) and id(obj) not in self._wrappers:
                    self._wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))

    def _wrap(self, fn, span_name: str):
        nid = len(self.names)
        self.names.append(span_name)
        observe = OBSERVERS.get(span_name)
        stack, counters, perf = self._stack, self.counters, time.perf_counter
        name_id, parent, scenario, start, end = self.name_id, self.parent, self.scenario, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            scenario.append(self.scenario_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        """Bind the wrappers in every gamowlab module and on the traced classes."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod in _package_modules():
            for attr, val in list(vars(mod).items()):
                entry = self._wrappers.get(id(val))
                if entry is not None and entry[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, entry[1])
                elif isinstance(val, type) and val.__module__.startswith("gamowlab"):
                    hook = vars(val).get("__post_init__")
                    entry = self._wrappers.get(id(hook))
                    if entry is not None and entry[0] is hook:
                        self._patches.append((val, "__post_init__", hook))
                        setattr(val, "__post_init__", entry[1])

    def uninstall(self) -> None:
        """Put every original object back where :meth:`install` found it."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def wrapped_left(self) -> list[str]:
        """Names in gamowlab modules or traced classes still bound to a wrapper."""
        wrappers = {id(w) for _, w in self._wrappers.values()}
        left = []
        for mod in _package_modules():
            for attr, val in vars(mod).items():
                if id(val) in wrappers:
                    left.append(f"{mod.__name__}.{attr}")
                if isinstance(val, type) and id(vars(val).get("__post_init__")) in wrappers:
                    left.append(f"{mod.__name__}.{attr}.__post_init__")
        return left

    def write_spans(self, path) -> None:
        """Write the spans as CSV: id,name,start,end,parent,scenario."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,scenario\n")
            for i in range(len(self.name_id)):
                fh.write(
                    f"{i},{self.names[self.name_id[i]]},{self.start[i]!r},{self.end[i]!r},"
                    f"{self.parent[i]},{self.scenario[i]}\n"
                )

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        """Per-layer values for every LAYER_MAP name except ``cli.*``."""
        n = len(self.name_id)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls, total, own = defaultdict(int), defaultdict(float), defaultdict(float)
        for i in range(n):
            name = self.names[self.name_id[i]]
            layer = name.split(".", 1)[0]
            for key in (name, layer):
                calls[key] += 1
                total[key] += dur[i]
                own[key] += dur[i] - child[i]
        layer_self = sum(own[layer] for layer in LAYERS)
        c = self.counters
        evo_self = own["evolution"]
        values = {
            "cmatrix.flops_computed": c["cmatrix.flops_computed"],
            "evolution.flops_computed": c["evolution.flops_computed"],
            "evolution.gflop_per_s": c["evolution.flops_computed"] / evo_self / 1e9 if evo_self else 0.0,
            "commutators.fit_points_ratio": (
                c["commutators.fit_points"] / c["commutators.grid_points"] if c["commutators.grid_points"] else 0.0
            ),
            "commutators.values_bytes": c["commutators.values_bytes"],
            "scenario.input_bytes": c["scenario.input_bytes"],
            "scenario.output_bytes": c["scenario.output_bytes"],
            "trace.spans": n,
            "trace.overhead_ratio": traced_wall / untraced_wall - 1.0,
            "trace.wall_s": traced_wall,
            "trace.residue_s": traced_wall - layer_self,
        }
        for name in LAYER_MAP:
            if name in values or name.startswith(("cli.", "trace.")):
                continue
            key, stat = name.rsplit(".", 1)
            if stat == "calls":
                values[name] = calls[key]
            elif stat == "self_s":
                values[name] = own[key]
            elif stat == "self_share":
                values[name] = own[key] / traced_wall
            elif stat == "us_per_call":
                values[name] = total[key] / calls[key] * 1e6 if calls[key] else 0.0
            else:
                raise KeyError(name)
        return values
