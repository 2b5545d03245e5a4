"""Tests of the benchmark itself: generator, oracles, tracer and BENCHMARK.json."""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import compare  # noqa: E402
import gamowlab  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from gamowlab import scenario  # noqa: E402
from worker import Runner  # noqa: E402


def _pool(tmp_path, workload, seed=7):
    return workloads.generate(workload, seed, tmp_path / f"{workload}-{seed}")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(tmp_path, workload):
    first = _pool(tmp_path / "a", workload)
    again = _pool(tmp_path / "b", workload)
    other = _pool(tmp_path / "c", workload, seed=8)
    for x, y, z in zip(first["scenarios"], again["scenarios"], other["scenarios"]):
        assert Path(x["path"]).read_bytes() == Path(y["path"]).read_bytes()
        assert Path(x["path"]).read_bytes() != Path(z["path"]).read_bytes()
        assert x["expect"] == y["expect"]
    assert first["inputs"] == again["inputs"]


def test_lattice_pool_mixes_commuting_and_generic(tmp_path):
    inputs = _pool(tmp_path, "lattice_triples")["inputs"]
    assert inputs["commuting_share"] == 0.5
    assert min(map(int, inputs["rank_mix"])) >= workloads.RANK_LO
    assert max(map(int, inputs["rank_mix"])) <= workloads.RANK_HI


def _run(entry, out):
    assert scenario.run_file(entry["path"], out) == 0
    return out


@pytest.mark.parametrize("workload", ["damping_stack", "resonance_long"])
def test_norm_moved_beyond_tolerance_is_an_error(tmp_path, workload):
    entry = _pool(tmp_path, workload)["scenarios"][0]
    out = _run(entry, tmp_path / "out")
    assert oracles.check(entry["expect"], out) is None
    csv = out / "commutators.csv"
    lines = csv.read_text(encoding="utf-8").splitlines()
    fields = lines[5].split(",")
    for factor, ok in ((1 + 1e-12, True), (1 + 1e-6, False)):
        moved = [*fields[:1], repr(float(fields[1]) * factor), *fields[2:]]
        csv.write_text("\n".join(lines[:5] + [",".join(moved)] + lines[6:]) + "\n", encoding="utf-8")
        assert (oracles.check(entry["expect"], out) is None) is ok


def test_flipped_lattice_verdict_is_an_error(tmp_path):
    for entry in _pool(tmp_path, "lattice_triples")["scenarios"][:2]:
        out = _run(entry, tmp_path / "out")
        assert oracles.check(entry["expect"], out) is None
        report = out / "lattice.txt"
        text = report.read_text(encoding="utf-8")
        flipped = text.replace("VIOLATED", "TMP").replace("SATISFIED", "VIOLATED").replace("TMP", "SATISFIED")
        report.write_text(flipped, encoding="utf-8")
        assert oracles.check(entry["expect"], out) is not None


def test_runner_counts_oracle_mismatch_as_failure(tmp_path):
    entries = _pool(tmp_path, "lattice_triples")["scenarios"][:2]
    runner = Runner(tmp_path)
    runner.call(entries[0])
    assert runner.failures == []
    flipped = "VIOLATED" if entries[1]["expect"]["meet"] == "SATISFIED" else "SATISFIED"
    wrong = dict(entries[1], expect=dict(entries[1]["expect"], meet=flipped))
    runner.call(wrong)
    assert runner.attempted == 2
    assert len(runner.failures) == 1


@pytest.mark.parametrize(
    "error, problem",
    [
        (np.linalg.LinAlgError("SVD did not converge"), "exit code 3"),  # run_file reports it
        (MemoryError("cannot allocate the SVD workspace"), "raised MemoryError"),  # escapes run_file
    ],
)
def test_runner_counts_a_failing_call_and_goes_on(tmp_path, monkeypatch, error, problem):
    entries = _pool(tmp_path, "lattice_triples")["scenarios"][:2]
    runner = Runner(tmp_path)

    def failing_svd(*args, **kwargs):
        raise error

    with monkeypatch.context() as patched:
        patched.setattr(np.linalg, "svd", failing_svd)
        runner.call(entries[0])
    assert runner.output_bytes() >= 0
    runner.call(entries[1])
    assert runner.attempted == 2
    assert len(runner.failures) == 1
    assert problem in runner.failures[0]


def test_oracles_never_import_gamowlab():
    tree = ast.parse((HERE / "oracles.py").read_text(encoding="utf-8"))
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    imported |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert not any(name and name.split(".")[0] == "gamowlab" for name in imported)


def _bindings():
    mods = [m for name, m in sys.modules.items() if name == "gamowlab" or name.startswith("gamowlab.")]
    snap = {}
    for mod in mods:
        for attr, val in vars(mod).items():
            snap[(mod.__name__, attr)] = val
            if isinstance(val, type):
                snap[(mod.__name__, attr, "__post_init__")] = vars(val).get("__post_init__")
    return snap


def _traced_counts(tmp_path, entries):
    tr = tracer.Tracer()
    runner = Runner(tmp_path)
    for i, entry in enumerate(entries):
        tr.install()
        tr.scenario_id = i
        try:
            runner.call(entry)
        finally:
            tr.uninstall()
    assert runner.failures == []
    values = tr.metrics(1.0, 1.0)
    return {k: v for k, v in values.items() if k.endswith((".calls", "flops_computed")) or k == "trace.spans"}


def test_traced_run_restores_every_binding_and_repeats_counts(tmp_path):
    entries = _pool(tmp_path, "lattice_triples")["scenarios"][:2]
    entries += _pool(tmp_path, "resonance_long")["scenarios"][:1]
    tr = tracer.Tracer()  # imports every layer module, so take the snapshot after
    before = _bindings()
    tr.install()
    try:
        assert len(tr.wrapped_left()) > 50
        assert scenario.run_file is not before[("gamowlab.scenario", "run_file")]
        assert gamowlab.qlattice.Projector.__post_init__ is not before[("gamowlab.qlattice", "Projector", "__post_init__")]
    finally:
        tr.uninstall()
    assert tr.wrapped_left() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    first = _traced_counts(tmp_path / "1", entries)
    assert first == _traced_counts(tmp_path / "2", entries)
    assert first["qlattice.Projector.calls"] > 0 and first["evolution.flops_computed"] > 0
    assert all(_bindings()[k] is before[k] for k in before)


def test_layer_self_times_sum_to_root_spans(tmp_path):
    entry = _pool(tmp_path, "resonance_long")["scenarios"][0]
    tr = tracer.Tracer()
    runner = Runner(tmp_path)
    tr.install()
    try:
        wall = runner.call(entry)
    finally:
        tr.uninstall()
    values = tr.metrics(wall, wall)
    layer_sum = sum(values.get(f"{layer}.self_s", 0.0) for layer in tracer.LAYERS)
    assert values["trace.residue_s"] == pytest.approx(wall - layer_sum)
    assert 0 <= values["trace.residue_s"] < 0.01 * wall


def test_benchmark_json_matches_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["per_layer"]] == list(tracer.LAYER_MAP)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values()) <= 0.25


@pytest.mark.parametrize(
    "change, expected",
    [
        ([0.80, 0.81, 0.79, 0.80, 0.82, 0.78, 0.80, 0.81, 0.79, 0.80], "gain"),
        ([1.30, 1.31, 1.29, 1.30, 1.32, 1.28, 1.30, 1.31, 1.29, 1.30], "regression"),
        ([1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00], "no-regression"),
        ([0.60, 1.50, 0.70, 1.40, 0.80, 1.30, 0.90, 1.20, 1.00, 1.10], "unresolved"),
    ],
)
def test_compare_verdicts(change, expected):
    parent = {s: 1.0 + 0.01 * (s % 3) for s in range(10)}
    verdict = compare.verdict(parent, dict(enumerate(change)), better="lower", bound=0.2)
    assert verdict["verdict"] == expected
