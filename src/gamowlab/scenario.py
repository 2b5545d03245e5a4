"""Declarative scenario files: field tables, validation and execution.

A scenario is a JSON object with a ``kind`` of ``damping``, ``resonance``
or ``lattice``. Complex matrix entries are written as two-element
``[re, im]`` arrays, so a 2x2 identity reads
``[[[1,0],[0,0]],[[0,0],[1,0]]]``.

damping:   p, n_max, observables (2 to 64 2x2 matrices), eps
resonance: resonances ([{energy, width}, ...]), variant, observables
           (exactly two 2N x 2N matrices), grid ({t_start, t_end, steps}),
           eps, optional fit_window
lattice:   observables (exactly three projector matrices of equal size)

Validation builds every object a run uses from its kind's field table; constructor
errors become ``field: message`` diagnostics, and a top-level key the kind does not
read becomes a ``scenario: unknown key`` diagnostic. ``MAX_*`` cap the size of a run.
Each kind's ``observables`` list is converted as one stack by one rule, ``_stack``:
one conversion, then one shape, size and finiteness check; only a list that fails it
goes through the same rule again matrix by matrix, to name the first bad one. Entries
must be JSON numbers: a string is not read as one.

Both commutator series are computed in :mod:`gamowlab.commutators`; this module
only formats and writes them. A resonance run reduces each chunk of
``commutators._commutator_chunks`` to its CSV rows as it comes and keeps only their
norms; a damping run writes the worst-pair norms of ``commutators._damping_norms``.

Outputs are written with shortest round-trip float formatting and fixed
row order, so identical scenarios produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import channels, commutators, qlattice
from .evolution import EvolutionVariant
from .gamow import MAX_RESONANCES, Resonance, _finite, new_space

__all__ = ["Scenario", "load_scenario", "validate_file", "report_invalid", "run_file", "write_demo_files"]

MAX_GRID_STEPS = 100_000
MAX_TRAJECTORY_ENTRIES = 2**24  # steps * (2N)^2 commutator entries, a bound on run time; the run keeps none
MAX_N_MAX = 1_000_000
MAX_DAMPING_OBSERVABLES = 64  # k(k-1)/2 pairs per step
MAX_LATTICE_DIM = 256


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: its kind and the built objects its run uses, by name."""

    kind: str
    objects: dict


class _Absent:
    def __repr__(self) -> str:
        return "missing"


_ABSENT = _Absent()  # the value of a key the scenario leaves out


class _Invalid(ValueError):
    """An error in part of a field; ``path`` (``[i]``, ``.name``) is appended to its label."""

    def __init__(self, path: str, error) -> None:
        super().__init__(str(error))
        self.path = path + getattr(error, "path", "")


def _number(raw, above: float = -math.inf) -> float:
    if not isinstance(raw, (int, float)) or isinstance(raw, bool) or not _finite(raw):
        raise ValueError("must be a finite number")
    if not raw > above:
        raise ValueError(f"must be > {above}, got {float(raw)}")
    return float(raw)


def _capped(value: int, cap: int, what: str) -> int:
    if value > cap:
        raise ValueError(f"{value} {what} exceed the cap of {cap}")
    return value


def _integer(raw, low: int, cap: int, what: str) -> int:
    if not isinstance(raw, int) or isinstance(raw, bool) or raw < low:
        raise ValueError(f"must be an integer >= {low}, got {raw!r}")
    return _capped(raw, cap, what)


def _capped_list(raw, cap: int, what: str):
    """``raw``; a list is checked against ``cap`` first, so an over-cap list builds none of its items."""
    if isinstance(raw, list):
        _capped(len(raw), cap, what)
    return raw


def _items(raw, count: int | None = None) -> list:
    """``raw``, if it is a nonempty list, of ``count`` items if given."""
    if not isinstance(raw, list) or not raw:
        raise ValueError("must be a nonempty list")
    if count is not None and len(raw) != count:
        raise ValueError(f"must hold exactly {count} items, got {len(raw)}")
    return raw


def _each(raw, build, count: int | None = None) -> list:
    """Build every item of a nonempty list, of ``count`` items if given."""
    items = []
    for i, item in enumerate(_items(raw, count)):
        try:
            items.append(build(item))
        except ValueError as exc:
            raise _Invalid(f"[{i}]", exc) from None
    return items


def _floats(raw) -> np.ndarray:
    """``raw`` as a float array, if every entry is a JSON number: strings are not parsed as numbers.

    numpy's dtype discovery gives a string entry a string or object array; an
    object array also holds ints past the int64 range, and is checked entry by
    entry. Booleans still pass as 0 and 1, since one mixed with numbers leaves
    no trace in the discovered dtype.
    """
    try:
        arr = np.asarray(raw)
        if arr.dtype.kind == "O" and all(isinstance(x, (int, float)) for x in arr.flat):
            arr = arr.astype(float)  # an int past the float range raises OverflowError
        if arr.dtype.kind not in "biuf":
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ValueError("entries must be [re, im] pairs of numbers") from None
    return arr.astype(float, copy=False)


def _stack(raw, dim: int | None = None) -> np.ndarray:
    """The (k, d, d) complex stack of a list of k square matrices of [re, im] pairs, of ``dim`` rows if given.

    The one rule for valid matrices: its diagnostics speak of one matrix, as
    :func:`_matrices` applies it to a one-item list to name a bad item.
    """
    arr = _floats(raw)
    if arr.ndim != 4 or arr.shape[3] != 2 or arr.shape[1] != arr.shape[2]:
        raise ValueError(f"must be a square matrix of [re, im] pairs, got shape {arr.shape[1:]}")
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(f"must be {dim}x{dim}, got {arr.shape[1]}x{arr.shape[2]}")
    if not np.isfinite(arr).all():
        raise ValueError("entries must be finite")
    return arr[..., 0] + 1j * arr[..., 1]


def _matrices(raw: list, dim: int | None = None, row_cap: int | None = None) -> np.ndarray:
    """The (k, d, d) stack of the matrices of a list that :func:`_items` passed, of ``dim`` rows if given.

    An item of more than ``row_cap`` rows fails before anything is converted. One
    :func:`_stack` call serves the whole list; if it fails, each item goes through
    :func:`_stack` on its own, to name the first bad one, and if none is, they differ
    in size.
    """
    if row_cap is None or not any(isinstance(m, list) and len(m) > row_cap for m in raw):
        try:
            return _stack(raw, dim)
        except ValueError:
            pass
    _each(raw, lambda m: _stack([m if row_cap is None else _capped_list(m, row_cap, "matrix rows")], dim))
    raise ValueError("lattice projectors must share a dimension")  # only a lattice triple leaves the dimension free


def _encode_matrix(mat: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(mat, dtype=complex)]


def _damping_stack(raw, _) -> np.ndarray:
    mats = _matrices(_items(_capped_list(raw, MAX_DAMPING_OBSERVABLES, "observables")), 2)
    if len(mats) < 2:
        raise ValueError("damping scenarios need at least two matrices")
    return mats


def _resonance(item) -> Resonance:
    if not isinstance(item, dict):
        raise ValueError("must be an object with energy and width")
    try:
        return Resonance(energy=item.get("energy"), width=item.get("width"))
    except ValueError as exc:
        name, _, message = str(exc).partition(": ")
        raise _Invalid(f".{name}", message) from None


def _times(_, b) -> np.ndarray:
    if not b["t_end"] > b["t_start"]:
        raise ValueError(f"t_end must exceed t_start, got [{b['t_start']}, {b['t_end']}]")
    if not math.isfinite(b["t_end"] - b["t_start"]):
        raise ValueError(f"t_end - t_start must be finite, got [{b['t_start']}, {b['t_end']}]")
    return commutators.time_grid(np.linspace(b["t_start"], b["t_end"], b["steps"]))


def _fit_start(raw, b) -> int:
    fraction = None if raw is _ABSENT else _number(raw)
    return commutators.fit_window_start(b["times"].size, b["space"].n_resonances, fraction)


def _projectors(raw, _) -> list[qlattice.Projector]:
    return _each(list(_matrices(_items(raw, 3), row_cap=MAX_LATTICE_DIM)), qlattice.Projector)


_DAMPING_FIELDS = (
    ("p", "p", lambda raw, _: _number(raw)),
    ("channel", "p", lambda _, b: channels.damping_channel(b["p"])),
    ("n_max", "n_max", lambda raw, _: _integer(raw, 1, MAX_N_MAX, "channel steps")),
    ("eps", "eps", lambda raw, _: _number(raw, above=0)),
    ("observables", "observables", _damping_stack),
)
_RESONANCE_FIELDS = (
    ("space", "resonances", lambda raw, _: new_space(_each(_capped_list(raw, MAX_RESONANCES, "resonances"), _resonance))),
    ("variant", "variant", lambda raw, _: EvolutionVariant(raw)),
    ("t_start", "grid.t_start", lambda raw, _: _number(raw)),
    ("t_end", "grid.t_end", lambda raw, _: _number(raw)),
    ("steps", "grid.steps", lambda raw, _: _integer(raw, 2, MAX_GRID_STEPS, "grid steps")),
    ("times", "grid", _times),
    (None, "grid", lambda _, b: _capped(b["times"].size * b["space"].dim**2, MAX_TRAJECTORY_ENTRIES, "trajectory entries")),
    ("eps", "eps", lambda raw, _: _number(raw, above=0)),
    ("fit_start", "fit_window", _fit_start),
    ("observables", "observables", lambda raw, b: _matrices(_items(raw, 2), b["space"].dim)),
)
_LATTICE_FIELDS = (("projectors", "observables", _projectors),)


def _build(data, fields) -> tuple[list[str], dict]:
    """Run a field table of (key, label, build) rows; return the diagnostics and the objects.

    ``build(raw, built)`` gets the value at the label's dotted path and the objects built
    so far; a KeyError skips a row that needs a failed one. Results are stored under ``key``.
    """
    built: dict = {}
    diagnostics: list[str] = []
    for key, label, build in fields:
        raw = data
        for name in label.split("."):
            raw = raw.get(name, _ABSENT) if isinstance(raw, dict) else _ABSENT
        try:
            value = build(raw, built)
        except KeyError:
            continue
        except (ValueError, OverflowError) as exc:
            diagnostics.append(f"{label}{getattr(exc, 'path', '')}: {exc}")
            continue
        if key is not None:
            built[key] = value
    return diagnostics, built


def load_scenario(path) -> tuple[list[str], Scenario | None]:
    """Parse a scenario file and build its objects; diagnostics are the findings."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [f"file: cannot read {path}: {exc}"], None
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer past the digit limit, or too deep nesting
        return [f"file: invalid JSON: {exc}"], None
    if not isinstance(data, dict):
        return ["scenario: top level must be a JSON object"], None
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        return [f"kind: must be one of {'|'.join(_KINDS)}, got {kind!r}"], None
    fields = _KINDS[kind][0]
    known = {"kind"} | {label.split(".")[0] for _, label, _ in fields}
    diagnostics = [f"scenario: unknown key {key!r}" for key in data if key not in known]
    found, built = _build(data, fields)
    diagnostics += found
    return diagnostics, None if diagnostics else Scenario(kind, built)


def validate_file(path) -> list[str]:
    """Build everything a run of the scenario would use, without running it."""
    return load_scenario(path)[0]


def report_invalid(diagnostics: list[str]) -> int:
    """Print each diagnostic and return the validation exit code, 2."""
    for d in diagnostics:
        print(f"invalid scenario: {d}")
    return 2


def _run_damping(o: dict) -> tuple[dict[str, list[str]], str]:
    norms = commutators._damping_norms(o["channel"], o["observables"], o["n_max"]).tolist()
    lines = ["n,norm"] + [f"{n},{norm!r}" for n, norm in enumerate(norms)]
    first_below = next((n for n, norm in enumerate(norms) if norm < o["eps"]), None)
    reached = f"commuting at n={first_below}" if first_below is not None else "eps not reached"
    return {"commutators.csv": lines}, (
        f"damping: p={o['p']}, n_max={o['n_max']}, worst-pair norm "
        f"{norms[0]:.6g} -> {norms[-1]:.6g}, {reached}"
    )


def _run_resonance(o: dict) -> tuple[dict[str, list[str]], str]:
    space, times, eps = o["space"], o["times"], o["eps"]
    slow = int(np.argmin(space.widths))
    norms = np.empty(times.size)
    lines = ["t,norm,log_norm,alpha_re,alpha_im,beta_re,beta_im,ansatz_residual,taqm_valid"]
    # Per chunk: its norms, its (rows, 7) table of CSV numbers, then its lines, so only
    # one chunk's commutators, coefficients and Python floats are alive; math.log, not
    # np.log, keeps each log_norm to the bit.
    for chunk, comm, chunk_norms in commutators._commutator_chunks(space, *o["observables"], times, o["variant"]):
        norms[chunk] = chunk_norms
        alphas, betas, residuals = commutators.ansatz_coefficients(space, times[chunk], comm, chunk_norms)
        alpha, beta = alphas[:, slow], betas[:, slow]
        table = np.column_stack([times[chunk], chunk_norms, alpha.real, alpha.imag, beta.real, beta.imag, residuals])
        for t, norm, a_re, a_im, b_re, b_im, residual in table.tolist():
            log_norm = math.log(norm) if norm > 0 else float("-inf")
            lines.append(
                f"{t!r},{norm!r},{log_norm!r},{a_re!r},{a_im!r},{b_re!r},{b_im!r},{residual!r},"
                f"{'true' if t >= 0 else 'false'}"
            )

    fit = commutators._decay_fit(times[o["fit_start"] :], norms[o["fit_start"] :])
    expected = -2.0 * float(space.widths.min())
    deviation = abs(fit.slope - expected)
    below = np.nonzero(norms < eps)[0]
    t_c_text = f"{float(times[below[0]])!r}" if below.size else f"not reached by t_end={float(times[-1])!r}"
    fit_lines = [
        f"slope = {fit.slope!r}",
        f"intercept = {fit.intercept!r}",
        f"expected_slope = {expected!r}",
        f"abs_deviation = {deviation!r}",
        f"t_c(eps={eps!r}) = {t_c_text}",
    ]
    return {"commutators.csv": lines, "fit.txt": fit_lines}, (
        f"resonance: N={space.n_resonances}, variant={o['variant'].value}, "
        f"slope={fit.slope:.9g}, expected={expected:.9g}, |dev|={deviation:.3g}, t_c={t_c_text}"
    )


def _run_lattice(o: dict) -> tuple[dict[str, list[str]], str]:
    a, b, c = o["projectors"]
    report = qlattice.distributivity_check(a, b, c)
    compatible = qlattice.abelian_certificate([a.mat, b.mat, c.mat]).abelian
    meet_word = "SATISFIED" if report.meet_equal else "VIOLATED"
    join_word = "SATISFIED" if report.join_equal else "VIOLATED"
    ineq_word = "OK" if report.inequality_holds else "NUMERICAL-RANK-BUG"
    lines = [
        f"meet distributivity: {meet_word}",
        f"join distributivity: {join_word}",
        f"distributive inequalities: {ineq_word}",
        f"rank a^(bvc) = {report.lhs_meet.rank}",
        f"rank (a^b)v(a^c) = {report.rhs_meet.rank}",
        f"rank av(b^c) = {report.lhs_join.rank}",
        f"rank (avb)^(avc) = {report.rhs_join.rank}",
        f"pairwise compatible: {str(compatible).lower()}",
    ]
    return {"lattice.txt": lines}, (
        f"lattice: meet distributivity: {meet_word}, join distributivity: {join_word}, "
        f"inequalities: {ineq_word}"
    )


_KINDS = {"damping": (_DAMPING_FIELDS, _run_damping), "resonance": (_RESONANCE_FIELDS, _run_resonance),
          "lattice": (_LATTICE_FIELDS, _run_lattice)}


def _write_files(out: Path, texts: dict[str, str]) -> None:
    """Write each text to ``out / name``, all of them or none, and raise any OSError again after the cleanup.

    Each text is written under a temporary name in ``out``, and all are renamed
    into place once all are written. On failure the temporaries go, and ``out``
    too if this call made it; after a rename, so do the files under every name,
    an earlier call's included. ``out`` then holds no partial set.
    """
    created = not out.exists()
    temps: list[Path] = []
    renamed = False
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            temps.append(out / f".{name}.partial")
            temps[-1].write_text(text, encoding="utf-8")
        for temp, name in zip(temps, texts):
            os.replace(temp, out / name)
            renamed = True
    except OSError:
        for temp in temps:
            temp.unlink(missing_ok=True)
        if renamed:
            for name in texts:
                if not (out / name).is_dir():  # a directory under an output name is not a file of ours
                    (out / name).unlink(missing_ok=True)
        if created:
            shutil.rmtree(out, ignore_errors=True)
        raise


def run_file(path, outdir) -> int:
    """Run a scenario file; returns 0 (ok), 2 (validation) or 3 (runtime).

    The outputs are written by :func:`_write_files` once the whole run has succeeded.
    """
    diagnostics, sc = load_scenario(path)
    if diagnostics:
        return report_invalid(diagnostics)
    try:
        with warnings.catch_warnings():  # a SEMIGROUP_D evolution warns that it extrapolates
            warnings.filterwarnings("ignore", "SEMIGROUP_D has no canonical", RuntimeWarning)
            files, summary = _KINDS[sc.kind][1](sc.objects)
        _write_files(Path(outdir), {name: "\n".join(lines) + "\n" for name, lines in files.items()})
    except (ValueError, OSError) as exc:
        print(f"runtime error: {exc}")
        return 3
    print(summary)
    return 0


def write_demo_files(outdir) -> list[Path]:
    """Write the three worked example scenarios as ready-to-run files, all of them or none."""
    sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
    sigma_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p_plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    p_minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    demos = {
        "demo_damping.json": {
            "kind": "damping",
            "p": 0.5,
            "n_max": 20,
            "eps": 1e-10,
            "observables": [_encode_matrix(sigma_x), _encode_matrix(sigma_y)],
        },
        "demo_resonance.json": {
            "kind": "resonance",
            "resonances": [{"energy": 0.0, "width": 0.5}],
            "variant": "hermitian",
            "grid": {"t_start": 0.0, "t_end": 5.0, "steps": 101},
            "eps": 0.1,
            "observables": [_encode_matrix(sigma_x), _encode_matrix(sigma_y)],
        },
        "demo_lattice.json": {
            "kind": "lattice",
            "observables": [_encode_matrix(p0), _encode_matrix(p_plus), _encode_matrix(p_minus)],
        },
    }
    out = Path(outdir)
    _write_files(out, {name: json.dumps(payload, indent=2) + "\n" for name, payload in demos.items()})
    return [out / name for name in demos]
