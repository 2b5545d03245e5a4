import ast
import decimal
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gamowlab import channels, commutators, scenario
from gamowlab.cli import main
from gamowlab.cmatrix import _pair_cross_norms, _pauli_vectors, commutator, frobenius_norm, pair_commutator_norms
from gamowlab.commutators import UNDERFLOW_FLOOR, envelope_fit, trajectory
from gamowlab.evolution import EvolutionVariant, evolution_operator, heisenberg_evolve
from gamowlab.gamow import MAX_RESONANCES, Resonance, new_space
from support import (
    chunk_calls,
    chunk_length,
    pauli_vector,
    per_time_ansatz,
    random_hermitian,
    random_unitary,
    span_projector,
)


def encode(mat):
    return [[[float(np.real(x)), float(np.imag(x))] for x in row] for row in np.asarray(mat)]


SIGMA_X = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
SIGMA_Y = [[[0, 0], [0, -1]], [[0, 1], [0, 0]]]
SIGMA_Z = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]


def write_scenario(tmp_path: Path, payload, name="scenario.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def resonance_payload(**overrides):
    payload = {
        "kind": "resonance",
        "resonances": [{"energy": 0.0, "width": 0.5}],
        "variant": "hermitian",
        "grid": {"t_start": 0.0, "t_end": 5.0, "steps": 101},
        "eps": 0.1,
        "observables": [SIGMA_X, SIGMA_Y],
    }
    payload.update(overrides)
    return payload


# ---------------------------------------------------------------- validation


def test_validate_demo_files_are_clean(tmp_path):
    for path in scenario.write_demo_files(tmp_path):
        assert scenario.validate_file(path) == []


def test_validate_negative_width(tmp_path):
    path = write_scenario(
        tmp_path, resonance_payload(resonances=[{"energy": 0.0, "width": -1.0}])
    )
    diagnostics = scenario.validate_file(path)
    assert any("resonances[0].width" in d and "> 0" in d for d in diagnostics)


def test_validate_wrong_observable_dimension_for_damping(tmp_path):
    three = [[[1, 0]] * 3] * 3
    path = write_scenario(
        tmp_path,
        {"kind": "damping", "p": 0.5, "n_max": 5, "eps": 1e-6, "observables": [SIGMA_X, three]},
    )
    diagnostics = scenario.validate_file(path)
    assert any("observables[1]" in d and "2x2" in d for d in diagnostics)


def test_validate_unknown_kind(tmp_path):
    path = write_scenario(tmp_path, {"kind": "banana"})
    assert any(d.startswith("kind:") for d in scenario.validate_file(path))


@pytest.mark.parametrize(
    "payload",
    [
        {"kind": "damping", "p": 0.5, "n_max": 5, "eps": 1e-6, "observables": [SIGMA_X, SIGMA_Y]},
        resonance_payload(),
        {"kind": "lattice", "observables": [SIGMA_X, SIGMA_Y, SIGMA_Z]},
    ],
    ids=["damping", "resonance", "lattice"],
)
def test_unknown_top_level_key_is_a_diagnostic(tmp_path, capsys, payload):
    # a misspelt key ("fit_windw") would otherwise run with the default it meant to override
    path = write_scenario(tmp_path, {**payload, "fit_windw": 0.5})
    diagnostics = scenario.validate_file(path)
    assert diagnostics[0] == "scenario: unknown key 'fit_windw'"
    assert main(["validate", str(path)]) == 2
    assert "invalid scenario: scenario: unknown key 'fit_windw'" in capsys.readouterr().out.splitlines()
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "invalid scenario: scenario: unknown key 'fit_windw'" in capsys.readouterr().out.splitlines()
    assert not (tmp_path / "out").exists()


def test_validate_bad_json_and_missing_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert any("invalid JSON" in d for d in scenario.validate_file(path))
    # json.loads refuses integer literals past 4300 digits with a plain ValueError
    path.write_text('{"kind": "damping", "p": ' + "1" * 5000 + "}", encoding="utf-8")
    assert any("invalid JSON" in d for d in scenario.validate_file(path))
    assert any("cannot read" in d for d in scenario.validate_file(tmp_path / "nope.json"))


@pytest.mark.parametrize(
    "content, message",
    [
        ('{"kind": "damping", "p": 0.5, "note": "caf\u00e9"}'.encode("latin-1"), "file: cannot read"),
        (b"[" * 100_000, "file: invalid JSON: maximum recursion depth exceeded"),
    ],
    ids=["not-utf8", "nested-past-the-recursion-limit"],
)
def test_undecodable_file_is_a_diagnostic_for_validate_and_run(tmp_path, capsys, content, message):
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().out.startswith(f"invalid scenario: {message}")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().out.startswith(f"invalid scenario: {message}")
    assert not (tmp_path / "out").exists()


def test_validate_grid_and_variant(tmp_path):
    path = write_scenario(
        tmp_path,
        resonance_payload(
            variant="unitary", grid={"t_start": 2.0, "t_end": 1.0, "steps": 1}
        ),
    )
    diagnostics = scenario.validate_file(path)
    assert any(d.startswith("variant:") for d in diagnostics)
    assert any("grid.steps" in d for d in diagnostics)
    assert any("t_end must exceed t_start" in d for d in diagnostics)


def test_grid_span_past_the_float_range_is_a_quiet_diagnostic(tmp_path):
    # both ends are finite, but t_end - t_start is not: validation rejects the grid
    # before it reaches linspace, which would warn of an overflow
    path = write_scenario(tmp_path, resonance_payload(grid={"t_start": -1e308, "t_end": 1e308, "steps": 11}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert scenario.validate_file(path) == ["grid: t_end - t_start must be finite, got [-1e+308, 1e+308]"]
        assert scenario.run_file(path, tmp_path / "out") == 2
    assert not (tmp_path / "out").exists()


def test_validate_resonance_dimension_mismatch(tmp_path):
    payload = resonance_payload(
        resonances=[{"energy": 0.0, "width": 0.5}, {"energy": 1.0, "width": 1.0}]
    )
    path = write_scenario(tmp_path, payload)
    diagnostics = scenario.validate_file(path)
    assert any("4x4" in d for d in diagnostics)


@pytest.mark.parametrize(
    "resonance, field",
    [
        ({"energy": float("nan"), "width": 0.5}, "energy"),
        ({"energy": 0.0, "width": float("inf")}, "width"),
    ],
)
def test_non_finite_resonance_is_a_diagnostic(tmp_path, resonance, field):
    # json writes these as NaN and Infinity, which json.loads accepts
    path = write_scenario(tmp_path, resonance_payload(resonances=[resonance]))
    diagnostics = scenario.validate_file(path)
    assert any(d.startswith(f"resonances[0].{field}:") and "finite" in d for d in diagnostics)
    assert scenario.run_file(path, tmp_path / "out") == 2
    assert not (tmp_path / "out").exists()


def test_int_past_the_float_range_is_a_diagnostic_at_its_path(tmp_path, capsys):
    # json reads 10**400 back as an int that no float holds; each field reports it at its path
    huge = 10**400
    damping = json.loads((GOLDEN / "demo_damping.json").read_text())
    damping["p"] = huge
    damping["observables"].append([[[huge, 0], [0, 0]], [[0, 0], [1, 0]]])
    resonance = resonance_payload(resonances=[{"energy": 0.0, "width": huge}])
    for name, payload, expected in [
        ("damping.json", damping, ["p: must be a finite number", "observables[2]: entries must be [re, im] pairs of numbers"]),
        ("resonance.json", resonance, [f"resonances[0].width: must be a finite number, got {huge!r}"]),
    ]:
        path = write_scenario(tmp_path, payload, name)
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out.splitlines() == [f"invalid scenario: {line}" for line in expected]
    with pytest.raises(ValueError, match="width: must be a finite number"):
        Resonance(0.0, huge)


def test_resonance_cap_is_a_diagnostic_for_validate_and_run(tmp_path):
    zeros = encode(np.zeros((130, 130)))
    payload = resonance_payload(
        resonances=[{"energy": 0.0, "width": 0.5}] * 65, observables=[zeros, zeros]
    )
    path = write_scenario(tmp_path, payload)
    assert any("cap of 64" in d for d in scenario.validate_file(path))
    assert scenario.run_file(path, tmp_path / "out") == 2


def test_validate_lattice_rejects_non_projector(tmp_path):
    payload = {"kind": "lattice", "observables": [SIGMA_X, SIGMA_Y, SIGMA_Z]}
    path = write_scenario(tmp_path, payload)
    diagnostics = scenario.validate_file(path)
    assert any("idempotent" in d for d in diagnostics)


def test_lattice_entry_beyond_projector_bound_is_a_diagnostic(tmp_path, capsys):
    # |P_ij| <= 1 for every orthogonal projector; a finite 1e308 entry is
    # reported as such, without overflowing the Hermitian and idempotent checks
    big = [[[1e308, 0], [0, 0]], [[0, 0], [0, 0]]]
    p_zero = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
    p_plus = [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]
    path = write_scenario(tmp_path, {"kind": "lattice", "observables": [big, p_zero, p_plus]})
    expected = "invalid scenario: observables[0]: projector entries need real and imaginary parts of size <= 1 + 1e-10"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out.splitlines() == [expected]
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().out.splitlines() == [expected]
    assert not (tmp_path / "out").exists()


def test_lattice_projector_with_a_bad_complement_is_a_diagnostic(tmp_path, capsys):
    # P = diag(-9.999999e-11, 1) passes the idempotent check but I - P does not:
    # validate and run both reject it, and run does not fail on it instead
    p_bad = encode(np.diag([-9.999999e-11, 1.0]))
    p_plus = [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]
    p_zero = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
    path = write_scenario(tmp_path, {"kind": "lattice", "observables": [p_bad, p_plus, p_zero]})
    expected = ["invalid scenario: observables[0]: projector is not idempotent to 1e-10"]
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().out.splitlines() == expected
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().out.splitlines() == expected
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides, expected",
    [
        # t_end > t_start, but the three linspace points collapse
        ({"grid": {"t_start": 0.0, "t_end": 5e-324, "steps": 3}}, "grid: time grid must be a nonempty, strictly increasing"),
        # round(0.999 * 100) = 100 leaves one of the 101 grid points in the window
        ({"fit_window": 0.001}, "fit_window: window holds 1 grid point(s)"),
    ],
    ids=["collapsed-grid", "one-point-fit-window"],
)
def test_validate_rejects_what_run_cannot_execute(tmp_path, overrides, expected):
    path = write_scenario(tmp_path, resonance_payload(**overrides))
    assert any(d.startswith(expected) for d in scenario.validate_file(path))
    assert scenario.run_file(path, tmp_path / "out") == 2
    assert not (tmp_path / "out").exists()


STRING_SIGMA_X = [[["0", "0"], ["1", "0"]], [["1", "0"], ["0", "0"]]]


def build_outcome(build):
    """The (dtype, shape, bytes) of the stack ``build`` returns, or its diagnostic as a field table shows it."""
    try:
        stack = build()
    except ValueError as exc:
        return f"{getattr(exc, 'path', '')}: {exc}"
    return stack.dtype, stack.shape, stack.tobytes()


NUMBERS = "entries must be [re, im] pairs of numbers"


@pytest.mark.parametrize(
    "raw, dim, row_cap, diagnostic",
    [
        ([SIGMA_X, SIGMA_Y, SIGMA_Z], 2, None, None),
        ([encode(random_hermitian(np.random.default_rng(3), 4)) for _ in range(3)], None, None, None),
        ([SIGMA_X, [[[1, 0], [0, 0]], [[0, 0]]]], 2, None, f"[1]: {NUMBERS}"),
        ([SIGMA_X, encode(np.eye(3))], 2, None, "[1]: must be 2x2, got 3x3"),
        ([SIGMA_X, encode(np.diag([1.0, np.nan]))], 2, None, "[1]: entries must be finite"),
        ([encode(np.diag([1.0, -np.inf])), SIGMA_X], 2, None, "[0]: entries must be finite"),
        ([SIGMA_X, encode(np.zeros((3, 3))), [[1, 0]]], None, 2, "[1]: 3 matrix rows exceed the cap of 2"),
        ([SIGMA_Y], 2, None, None),
        (5, 2, None, ": must be a nonempty list"),
        ([SIGMA_X, 5, {}], 2, None, "[1]: must be a square matrix of [re, im] pairs, got shape ()"),
        ([SIGMA_X, [[[10**30, 0], [0, 0]], [[0, 0], [1, 0]]]], 2, None, None),
        ([SIGMA_X, [[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]]], 2, None, f"[1]: {NUMBERS}"),
        ([STRING_SIGMA_X, SIGMA_Y], 2, None, f"[0]: {NUMBERS}"),
        ([SIGMA_X, [[[1.5, None], [0, 0]], [[0, 0], [1, 0]]]], 2, None, f"[1]: {NUMBERS}"),
        ([[[[True, 0], [0, 0.5]], [[0, 0], [1, 0]]], SIGMA_X], 2, None, None),  # still read as 1
        ([SIGMA_X, encode(np.eye(3)), SIGMA_Y], None, scenario.MAX_LATTICE_DIM,
         ": lattice projectors must share a dimension"),
        ([SIGMA_X, [[1, 0]], encode(np.zeros((3, 3)))], None, 2,
         "[1]: must be a square matrix of [re, im] pairs, got shape (1, 2)"),
        ([encode(np.zeros((3, 3))), SIGMA_X, 5], None, 2, "[0]: 3 matrix rows exceed the cap of 2"),
    ],
    ids=["valid", "valid-4x4", "ragged", "wrong-dimension", "nan", "inf", "over-row-cap", "single",
         "non-list", "non-list-item", "int-1e30", "int-1e400", "string", "null", "boolean",
         "unequal-sizes", "malformed-then-over-row-cap", "over-row-cap-then-malformed"],
)
def test_family_conversion_equals_the_per_item_path(raw, dim, row_cap, diagnostic):
    # a valid family is the plain decode of its [re, im] pairs; a bad one names its first bad item,
    # whether the item is malformed or over the row cap
    family = build_outcome(lambda: scenario._matrices(scenario._items(raw), dim, row_cap))
    if diagnostic is None:
        arr = np.asarray(raw, dtype=float)
        assert family == build_outcome(lambda: arr[..., 0] + 1j * arr[..., 1])
        assert family[:2] == (np.complex128, (len(raw), *np.shape(raw)[1:3]))
    else:
        assert family == diagnostic


def test_string_matrix_entries_are_a_diagnostic_for_validate_and_run(tmp_path, capsys):
    # numpy parses "1" as a float; a JSON string is no number, as the scalar fields already hold
    payload = {"kind": "damping", "p": 0.5, "n_max": 5, "eps": 1e-6, "observables": [STRING_SIGMA_X, SIGMA_Y]}
    path = write_scenario(tmp_path, payload)
    assert scenario.validate_file(path) == ["observables[0]: entries must be [re, im] pairs of numbers"]
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().out == "invalid scenario: observables[0]: entries must be [re, im] pairs of numbers\n"
    assert not (tmp_path / "out").exists()


def zero_matrices(count, dim):
    return [encode(np.zeros((dim, dim)))] * count


@pytest.mark.parametrize(
    "payload, cap",
    [
        (resonance_payload(grid={"t_start": 0.0, "t_end": 5.0, "steps": scenario.MAX_GRID_STEPS + 1}),
         scenario.MAX_GRID_STEPS),
        # 1025 steps of a 128x128 trajectory: 1025 * 128**2 > 2**24
        (resonance_payload(resonances=[{"energy": 0.0, "width": 0.5}] * 64,
                           grid={"t_start": 0.0, "t_end": 5.0, "steps": 1025},
                           observables=zero_matrices(2, 128)),
         scenario.MAX_TRAJECTORY_ENTRIES),
        ({"kind": "damping", "p": 0.5, "n_max": scenario.MAX_N_MAX + 1, "eps": 1e-6,
          "observables": [SIGMA_X, SIGMA_Y]},
         scenario.MAX_N_MAX),
        ({"kind": "damping", "p": 0.5, "n_max": 5, "eps": 1e-6,
          "observables": [SIGMA_X] * (scenario.MAX_DAMPING_OBSERVABLES + 1)},
         scenario.MAX_DAMPING_OBSERVABLES),
        ({"kind": "lattice", "observables": zero_matrices(3, scenario.MAX_LATTICE_DIM + 1)},
         scenario.MAX_LATTICE_DIM),
        # a malformed first item: the cap is checked before any item is built
        ({"kind": "damping", "p": 0.5, "n_max": 5, "eps": 1e-6,
          "observables": [[[1, 0]]] + [SIGMA_X] * scenario.MAX_DAMPING_OBSERVABLES},
         scenario.MAX_DAMPING_OBSERVABLES),
        (resonance_payload(resonances=[{"energy": 0.0, "width": -1.0}]
                           + [{"energy": 0.0, "width": 0.5}] * MAX_RESONANCES),
         MAX_RESONANCES),
        # an over-cap first matrix and a malformed third: each matrix's rows are capped before it is built
        ({"kind": "lattice", "observables": zero_matrices(1, scenario.MAX_LATTICE_DIM + 1) + [SIGMA_X, [[1, 0]]]},
         scenario.MAX_LATTICE_DIM),
    ],
    ids=["grid-steps", "trajectory-entries", "n-max", "damping-observables", "lattice-dimension",
         "damping-observables-malformed-first", "resonances-malformed-first", "lattice-dimension-malformed-third"],
)
def test_over_cap_input_is_a_diagnostic(tmp_path, payload, cap):
    path = write_scenario(tmp_path, payload)
    assert any(f"exceed the cap of {cap}" in d for d in scenario.validate_file(path))
    assert scenario.run_file(path, tmp_path / "out") == 2
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------- runs


def test_run_damping_halves_norm_each_step(tmp_path):
    path = write_scenario(
        tmp_path,
        {"kind": "damping", "p": 0.5, "n_max": 10, "eps": 1e-12, "observables": [SIGMA_X, SIGMA_Y]},
    )
    out = tmp_path / "out"
    assert scenario.run_file(path, out) == 0
    rows = (out / "commutators.csv").read_text().strip().splitlines()
    assert rows[0] == "n,norm"
    norms = [float(line.split(",")[1]) for line in rows[1:]]
    assert norms[0] == pytest.approx(2 * np.sqrt(2), rel=1e-15)
    for a, b in zip(norms, norms[1:]):
        assert b == pytest.approx(0.5 * a, rel=1e-12)


def test_run_resonance_fit_report(tmp_path):
    path = write_scenario(tmp_path, resonance_payload())
    out = tmp_path / "out"
    assert scenario.run_file(path, out) == 0
    fit_lines = (out / "fit.txt").read_text().strip().splitlines()
    fields = dict(line.split(" = ") for line in fit_lines)
    assert float(fields["slope"]) == pytest.approx(-1.0, abs=1e-6)
    assert float(fields["expected_slope"]) == -1.0
    assert float(fields["abs_deviation"]) <= 1e-6
    # closed form: t_c = ln(2 sqrt(2) / 0.1) grid-rounded up to 3.35
    assert float(fields["t_c(eps=0.1)"]) == pytest.approx(3.35)
    csv_lines = (out / "commutators.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "t,norm,log_norm,alpha_re,alpha_im,beta_re,beta_im,ansatz_residual,taqm_valid"
    assert all(line.endswith(",true") for line in csv_lines[1:])


@pytest.mark.parametrize("n_res, eps", [(1, 1e-6), (1, 10.0), (1, 1e-300), (2, 1e-3), (2, 1e-300)])
def test_fit_t_c_is_the_first_grid_time_below_eps(tmp_path, n_res, eps):
    rng = np.random.default_rng(47 + n_res)
    resonances = [{"energy": float(e), "width": float(w)}
                  for e, w in zip(rng.uniform(-2, 2, n_res), rng.uniform(0.3, 1.5, n_res))]
    space = new_space([Resonance(**r) for r in resonances])
    o1, o2 = random_hermitian(rng, space.dim), random_hermitian(rng, space.dim)
    grid = {"t_start": 0.0, "t_end": 30.0, "steps": 601}
    payload = resonance_payload(resonances=resonances, grid=grid, eps=eps, observables=[encode(o1), encode(o2)])
    out = tmp_path / "out"
    assert scenario.run_file(write_scenario(tmp_path, payload), out) == 0
    fields = dict(line.split(" = ") for line in (out / "fit.txt").read_text().strip().splitlines())
    # the reference: one operator, two conjugations, a commutator and a norm per grid time
    ts = np.linspace(grid["t_start"], grid["t_end"], grid["steps"])
    expected = "not reached by t_end=30.0"
    for t in ts:
        op = evolution_operator(space, t, EvolutionVariant.HERMITIAN)
        if frobenius_norm(commutator(heisenberg_evolve(op, o1), heisenberg_evolve(op, o2))) < eps:
            expected = repr(float(t))
            break
    assert fields[f"t_c(eps={eps!r})"] == expected
    assert expected.startswith("not reached") == (eps == 1e-300)


def test_run_lattice_reports_violation(tmp_path):
    payload = {
        "kind": "lattice",
        "observables": [
            [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
            [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]],
            [[[0.5, 0], [-0.5, 0]], [[-0.5, 0], [0.5, 0]]],
        ],
    }
    path = write_scenario(tmp_path, payload)
    out = tmp_path / "out"
    assert scenario.run_file(path, out) == 0
    text = (out / "lattice.txt").read_text()
    assert "meet distributivity: VIOLATED" in text
    assert "distributive inequalities: OK" in text


def test_run_lattice_at_the_dimension_cap_has_exact_ranks(tmp_path):
    # nested ranges r_b < r_c < r_a at d = 256: the null singular values of every meet's
    # stacked complements must stay below the 1e-10 cut and the others (1 or sqrt(2)) above it
    d = scenario.MAX_LATTICE_DIM
    u = random_unitary(np.random.default_rng(53), d)
    a, b, c = (u[:, :r] @ u[:, :r].conj().T for r in (192, 64, 128))
    path = write_scenario(tmp_path, {"kind": "lattice", "observables": [encode(m) for m in (a, b, c)]})
    out = tmp_path / "out"
    assert scenario.run_file(path, out) == 0
    # a ^ (b v c) = c, (a ^ b) v (a ^ c) = c, a v (b ^ c) = a, (a v b) ^ (a v c) = a
    assert (out / "lattice.txt").read_text().splitlines() == [
        "meet distributivity: SATISFIED",
        "join distributivity: SATISFIED",
        "distributive inequalities: OK",
        "rank a^(bvc) = 128",
        "rank (a^b)v(a^c) = 128",
        "rank av(b^c) = 192",
        "rank (avb)^(avc) = 192",
        "pairwise compatible: true",
    ]


def test_run_lattice_of_near_lines_reports_the_inequalities(tmp_path):
    # lines at 1e-6 rad meet only at the origin; counting them as meeting would put a ^ b
    # off both lines by 5e-7, past the 1e-9 containment tolerance
    theta = 1e-6
    mats = [span_projector(v).mat for v in ([1.0, 0.0], [np.cos(theta), np.sin(theta)], [0.0, 1.0])]
    path = write_scenario(tmp_path, {"kind": "lattice", "observables": [encode(m) for m in mats]})
    out = tmp_path / "out"
    assert scenario.run_file(path, out) == 0
    assert (out / "lattice.txt").read_text().splitlines() == [
        "meet distributivity: VIOLATED",
        "join distributivity: VIOLATED",
        "distributive inequalities: OK",
        "rank a^(bvc) = 1",
        "rank (a^b)v(a^c) = 0",
        "rank av(b^c) = 1",
        "rank (avb)^(avc) = 2",
        "pairwise compatible: false",
    ]


def test_run_returns_2_on_invalid_scenario(tmp_path):
    path = write_scenario(tmp_path, resonance_payload(eps=-1.0))
    assert scenario.run_file(path, tmp_path / "out") == 2


def test_run_returns_3_on_runtime_error(tmp_path):
    # commuting observables give an all-zero trajectory: the fit has no
    # usable points, which is a runtime failure, not a validation one
    diag1 = [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]
    diag2 = [[[3, 0], [0, 0]], [[0, 0], [4, 0]]]
    path = write_scenario(tmp_path, resonance_payload(observables=[diag1, diag2]))
    assert scenario.run_file(path, tmp_path / "out") == 3


def test_runtime_error_leaves_no_output(tmp_path):
    # the commutator underflows long before t = 1e6, so the fit has fewer
    # than two usable points; commutators.csv must not be left behind
    payload = resonance_payload(
        resonances=[{"energy": 0.3, "width": 0.5}],
        grid={"t_start": 0.0, "t_end": 1e6, "steps": 11},
    )
    path = write_scenario(tmp_path, payload)
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert scenario.run_file(path, out) == 3
    assert not out.exists()


@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
def test_failed_write_leaves_no_output(tmp_path, monkeypatch, existing):
    # the second of the two resonance outputs fails to write: the first must not be left behind
    path = write_scenario(tmp_path, resonance_payload())
    out = tmp_path / "out"
    if existing:
        out.mkdir()
    calls = []

    def failing_second_write(file, mode="r", *args, **kwargs):
        if "w" in mode:
            calls.append(os.path.basename(file))
            if len(calls) == 2:
                raise OSError("disk full")
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(scenario, "open", failing_second_write, raising=False)  # the name scenario looks up first
    assert scenario.run_file(path, out) == 3
    assert len(calls) == 2
    assert out.exists() == existing
    assert not existing or list(out.iterdir()) == []


@pytest.mark.parametrize("demo", ["demo_damping", "demo_resonance", "demo_lattice"])
def test_run_interns_no_string(tmp_path, monkeypatch, demo):
    # pathlib interns every path component it parses, and a long-lived process of many
    # runs would grow its interned-string table; run_file reads and writes through os
    (path,) = [p for p in scenario.write_demo_files(tmp_path) if p.stem == demo]
    out = tmp_path / "out"
    intern, calls = sys.intern, []
    monkeypatch.setattr(sys, "intern", lambda s: calls.append(s) or intern(s))
    assert scenario.run_file(path, out) == 0
    monkeypatch.undo()
    assert calls == []


@pytest.mark.parametrize("earlier_run", [False, True])
def test_failed_rename_leaves_no_output_of_this_run(tmp_path, monkeypatch, earlier_run):
    # the second of the two resonance outputs fails to rename into an existing --out:
    # the first, already renamed, must go too, and so must an earlier run's file under the
    # second name, which would otherwise be left as part of a set; other files stay
    path = write_scenario(tmp_path, resonance_payload())
    out = tmp_path / "out"
    out.mkdir()
    (out / "earlier.txt").write_text("kept\n", encoding="utf-8")
    if earlier_run:
        for name in ("commutators.csv", "fit.txt"):
            (out / name).write_text("an earlier run\n", encoding="utf-8")
    replace = os.replace
    calls = []

    def failing_second_replace(src, dst):
        calls.append(Path(dst).name)
        if len(calls) == 2:
            raise OSError("rename failed")
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_second_replace)
    assert scenario.run_file(path, out) == 3
    assert calls == ["commutators.csv", "fit.txt"]
    assert sorted(p.name for p in out.iterdir()) == ["earlier.txt"]


def test_directory_under_an_output_name_is_a_runtime_error(tmp_path):
    # the rename onto the directory fails; the cleanup removes the renamed csv and leaves the directory
    path = write_scenario(tmp_path, resonance_payload())
    out = tmp_path / "out"
    (out / "fit.txt").mkdir(parents=True)
    assert scenario.run_file(path, out) == 3
    assert [p.name for p in out.iterdir()] == ["fit.txt"]


def test_failed_first_rename_keeps_an_earlier_run(tmp_path, monkeypatch):
    # nothing of this run reached --out, so an earlier run's complete set stays
    path = write_scenario(tmp_path, resonance_payload())
    out = tmp_path / "out"
    out.mkdir()
    for name in ("commutators.csv", "fit.txt"):
        (out / name).write_text("an earlier run\n", encoding="utf-8")

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    assert scenario.run_file(path, out) == 3
    assert sorted(p.name for p in out.iterdir()) == ["commutators.csv", "fit.txt"]


# ---------------------------------------------------------------- determinism


# Reference demo scenarios and their outputs. A refactor leaves these bytes
# unchanged; regenerate them only for an intended change of output.
GOLDEN = Path(__file__).parent / "data" / "demo"


def test_demo_files_match_golden(tmp_path):
    written = scenario.write_demo_files(tmp_path)
    assert sorted(p.name for p in written) == sorted(p.name for p in GOLDEN.glob("*.json"))
    for path in written:
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes()


@pytest.mark.parametrize("demo", ["demo_damping", "demo_resonance", "demo_lattice"])
def test_demo_outputs_match_golden(tmp_path, demo):
    scenario.write_demo_files(tmp_path)
    out = tmp_path / "out"
    assert scenario.run_file(tmp_path / f"{demo}.json", out) == 0
    expected = sorted((GOLDEN / demo).iterdir())
    assert sorted(p.name for p in out.iterdir()) == [p.name for p in expected]
    for golden in expected:
        assert (out / golden.name).read_bytes() == golden.read_bytes()


def test_demo_resonance_norms_are_within_4_ulps_of_the_closed_form(tmp_path):
    # sigma_x and sigma_y at E = 0, Gamma = 0.5: [O1(t), O2(t)] = 2i sigma_z e^{-t}, whose
    # norm 2 sqrt(2) e^{-t} is taken here in 40-digit decimal arithmetic at each written t
    scenario.write_demo_files(tmp_path)
    assert scenario.run_file(tmp_path / "demo_resonance.json", tmp_path / "out") == 0
    rows = (tmp_path / "out" / "commutators.csv").read_text().splitlines()[1:]
    assert len(rows) == 101
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        for row in rows:
            t, norm = map(float, row.split(",")[:2])
            exact = 2 * Decimal(2).sqrt() * (-Decimal(t)).exp()
            assert abs(Decimal(norm) - exact) <= 4 * Decimal(math.ulp(norm)), row


def test_runs_are_byte_identical(tmp_path):
    demo_dir = tmp_path / "demos"
    scenario.write_demo_files(demo_dir)
    for demo in sorted(demo_dir.glob("*.json")):
        out_a = tmp_path / "a" / demo.stem
        out_b = tmp_path / "b" / demo.stem
        assert scenario.run_file(demo, out_a) == 0
        assert scenario.run_file(demo, out_b) == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@pytest.mark.parametrize("shift", [-300, 300])
@pytest.mark.parametrize("kind", ["damping", "resonance"])
def test_observables_shifted_by_a_power_of_two_shift_the_run_exactly(tmp_path, kind, shift):
    # norms, alpha and beta are of degree 2 in the observables and the residual of degree 0,
    # so observables times 2^shift give 2^(2 shift) times the plain run's cells, and its
    # residuals, bit for bit; log_norm, fit.txt and the summary round, so they are not compared
    rng = np.random.default_rng(59)
    if kind == "damping":
        payload = {"kind": "damping", "p": 0.03, "n_max": 100, "eps": 1e-6}
        observables = [random_hermitian(rng, 2) for _ in range(8)]
        scaled, same = ["norm"], []
    else:
        resonances = [{"energy": float(rng.uniform(-2, 2)), "width": w} for w in (0.6, 0.9)]
        payload = resonance_payload(resonances=resonances, grid={"t_start": 0.0, "t_end": 8.0, "steps": 201}, eps=1e-3)
        observables = [random_hermitian(rng, 4) for _ in range(2)]
        scaled, same = ["norm", "alpha_re", "alpha_im", "beta_re", "beta_im"], ["ansatz_residual"]
    runs = []
    for k in (0, shift):
        path = write_scenario(tmp_path, {**payload, "observables": [encode(o * 2.0**k) for o in observables]}, f"{k}.json")
        assert scenario.run_file(path, tmp_path / f"out{k}") == 0
        header, *rows = (tmp_path / f"out{k}" / "commutators.csv").read_text().splitlines()
        columns = dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))
        runs.append({name: np.array(columns[name], dtype=float) for name in scaled + same})
    plain, moved = runs
    assert plain["norm"].all()
    for name in scaled:
        np.testing.assert_array_equal(moved[name], np.ldexp(plain[name], 2 * shift), err_msg=name)
    for name in same:
        np.testing.assert_array_equal(moved[name], plain[name], err_msg=name)


TOOLS = Path(__file__).resolve().parents[1] / "tools"

# Other x86-64 CPU classes, emulated per child process: numpy at AVX2 and at X86_V2
# dispatch, and two other kernel sets of numpy's bundled OpenBLAS.
CPU_CLASSES = {
    "avx2": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    "x86_v2": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR X86_V3"},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
}

# The child prints the digest tool's CPU line, then one JSON line per scenario: its
# name, exit code and stdout; each run writes its outputs under the directory given.
CPU_CLASS_CHILD = """
import contextlib, io, json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from output_digest import _cpu_class
print(_cpu_class(), flush=True)
from gamowlab import scenario
for path in map(Path, sys.argv[3:]):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = scenario.run_file(path, Path(sys.argv[2]) / path.stem)
    print(json.dumps([path.stem, code, stdout.getvalue()]))
"""


def digest_probes(demo_resonance):
    """The probe scenarios of ``tools/output_digest.py``, by name; what importing the tool sets is undone."""
    saved = sys.dont_write_bytecode, list(sys.path)
    try:
        sys.path.insert(0, str(TOOLS))
        import output_digest
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved
    return output_digest._probes(demo_resonance)


def cpu_class_run(paths, out, setting):
    """Run the scenarios in a child with ``setting`` over an environment free of CPU-class variables.

    Returns the child's result, its CPU line (None if it printed none, as when
    numpy rejects the setting), its scenario records and its output bytes by name.
    """
    env = {k: v for k, v in os.environ.items() if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(scenario.__file__).parents[1]), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", CPU_CLASS_CHILD, str(TOOLS), str(out), *map(str, paths)],
        capture_output=True,
        text=True,
        env={**env, **setting},
        timeout=300,
    )
    cpu, *records = result.stdout.splitlines() or [None]
    files = {f"{f.parent.name}/{f.name}": f.read_bytes() for f in sorted(out.glob("*/*"))}
    return result, cpu, [json.loads(record) for record in records], files


@pytest.fixture(scope="module")
def cpu_class_default(tmp_path_factory):
    """The damping and lattice demos and four digest probes, written once, and their run under the default setting."""
    tmp = tmp_path_factory.mktemp("cpu_class")
    scenario.write_demo_files(tmp)
    probes = digest_probes(json.loads((tmp / "demo_resonance.json").read_text(encoding="utf-8")))
    paths = [tmp / "demo_damping.json", tmp / "demo_lattice.json"]
    for name in ("damping_scale_1e-150", "damping_scale_1e+150", "damping_scale_1e-160", "near_lines_1e-10"):
        paths.append(write_scenario(tmp, probes[name], f"{name}.json"))
    result, cpu, records, files = cpu_class_run(paths, tmp / "out", {})
    assert result.returncode == 0, result.stderr
    assert [code for _, code, _ in records] == [0] * len(paths)
    return paths, (cpu, records, files)


@pytest.mark.parametrize("setting", sorted(CPU_CLASSES))
def test_damping_and_lattice_bits_hold_on_every_emulated_cpu_class(cpu_class_default, tmp_path, setting):
    # damping runs of Hermitian observables and lattice runs give the default's exit codes,
    # stdout and output bytes; a setting the machine cannot emulate, whose child prints no
    # CPU line or the default's, is skipped
    paths, (default_cpu, default_records, default_files) = cpu_class_default
    result, cpu, records, files = cpu_class_run(paths, tmp_path / "out", CPU_CLASSES[setting])
    if cpu is None or cpu == default_cpu:
        pytest.skip(f"{setting} is not emulated here: {cpu or result.stderr.strip()}")
    assert result.returncode == 0, result.stderr
    assert records == default_records
    assert files.keys() == default_files.keys()
    assert [name for name in files if files[name] != default_files[name]] == []


def written_norms(csv: bytes) -> list[list[bytes]]:
    """The t, norm and log_norm cells of a resonance ``commutators.csv``."""
    return [row.split(b",")[:3] for row in csv.splitlines()]


@pytest.fixture(scope="module")
def cpu_class_resonance_default(tmp_path_factory):
    """The resonance demo and a seeded random pair, written once, and their run under the default setting.

    One norm of the random pair's fit window is a float whose log numpy's AVX-512
    kernel rounds one ulp away from ``math.log``, and the least-squares lines through
    the two kernels' logs differ in the last digit of their slope and intercept.
    """
    tmp = tmp_path_factory.mktemp("cpu_class_resonance")
    scenario.write_demo_files(tmp)
    rng = np.random.default_rng(1394)
    resonances = [{"energy": float(rng.uniform(-2, 2)), "width": float(rng.uniform(0.1, 1))}]
    observables = [encode(random_hermitian(rng, 2)) for _ in range(2)]
    paths = [
        tmp / "demo_resonance.json",
        write_scenario(tmp, resonance_payload(resonances=resonances, observables=observables), "random_pair.json"),
    ]
    result, cpu, records, files = cpu_class_run(paths, tmp / "out", {})
    assert result.returncode == 0, result.stderr
    assert [code for _, code, _ in records] == [0, 0]
    return paths, (cpu, records, files)


@pytest.mark.parametrize("setting", sorted(CPU_CLASSES))
def test_resonance_fit_holds_on_every_emulated_cpu_class(cpu_class_resonance_default, tmp_path, setting):
    # the fit reads the written log norms, so a run's stdout and fit.txt hold wherever its
    # t, norm and log_norm cells do: for the demo in every setting, since its entries 0, +-1
    # and +-i make every product exact, and for the random pair at least at AVX2 dispatch,
    # which moves no BLAS product; the demo's commutators.csv holds under the other OpenBLAS
    # cores only, since its alpha/beta cells follow numpy's real exp, which rounds
    # differently at AVX2 and X86_V2 dispatch
    paths, (default_cpu, default_records, default_files) = cpu_class_resonance_default
    result, cpu, records, files = cpu_class_run(paths, tmp_path / "out", CPU_CLASSES[setting])
    if cpu is None or cpu == default_cpu:
        pytest.skip(f"{setting} is not emulated here: {cpu or result.stderr.strip()}")
    assert result.returncode == 0, result.stderr
    assert files.keys() == default_files.keys()
    held = {
        name: written_norms(files[f"{name}/commutators.csv"]) == written_norms(default_files[f"{name}/commutators.csv"])
        for name, _, _ in default_records
    }
    assert held["demo_resonance"]
    if setting == "avx2":
        assert held["random_pair"]
    for record, default_record in zip(records, default_records):
        name = default_record[0]
        assert record[:2] == default_record[:2]
        if held[name]:
            assert record == default_record
            assert files[f"{name}/fit.txt"] == default_files[f"{name}/fit.txt"], name
    if "OPENBLAS_CORETYPE" in CPU_CLASSES[setting]:
        assert files["demo_resonance/commutators.csv"] == default_files["demo_resonance/commutators.csv"]


# ---------------------------------------------------------------- cli wiring


def test_cli_validate_exit_codes(tmp_path, capsys):
    demo_dir = tmp_path / "demos"
    scenario.write_demo_files(demo_dir)
    assert main(["validate", str(demo_dir / "demo_damping.json")]) == 0
    assert "valid" in capsys.readouterr().out
    bad = write_scenario(tmp_path, {"kind": "nope"})
    assert main(["validate", str(bad)]) == 2
    assert "invalid scenario" in capsys.readouterr().out


def test_cli_demo_and_run(tmp_path, capsys):
    assert main(["demo", "--out", str(tmp_path / "d")]) == 0
    capsys.readouterr()
    code = main(["run", str(tmp_path / "d" / "demo_resonance.json"), "--out", str(tmp_path / "o")])
    assert code == 0
    assert "slope=-1" in capsys.readouterr().out


def test_cli_demo_failed_write_is_a_runtime_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert main(["demo", "--out", str(taken)]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("runtime error: ")


def test_cli_demo_failed_rename_leaves_no_partial_set(tmp_path, capsys):
    # a directory under the second demo's name stops its rename: the first demo, already renamed, goes too
    out = tmp_path / "d"
    (out / "demo_resonance.json").mkdir(parents=True)
    assert main(["demo", "--out", str(out)]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("runtime error: ")
    assert [p.name for p in out.iterdir()] == ["demo_resonance.json"]


def test_cli_subprocess_end_to_end(tmp_path):
    demo_dir = tmp_path / "demos"
    result = subprocess.run(
        [sys.executable, "-m", "gamowlab", "demo", "--out", str(demo_dir)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "gamowlab",
            "run",
            str(demo_dir / "demo_damping.json"),
            "--out",
            str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert (tmp_path / "out" / "commutators.csv").exists()


@pytest.mark.parametrize("n_res, steps", [(64, 6), (2, 1001)], ids=["N64", "N2"])
def test_blas_thread_count_does_not_move_outputs(tmp_path, n_res, steps):
    # 128x128 matrices: each norm sums 16,384 squared entries, past the length at
    # which OpenBLAS splits an inner product by thread; 4x4 ones over 1,001 grid times
    # take one (c, 4) @ (4, 16) GEMM per chunk of the commutator tensor. On a 1-core
    # runner both runs may take one thread, so there this test cannot show a dependence.
    rng = np.random.default_rng(64)
    path = write_scenario(
        tmp_path,
        resonance_payload(
            resonances=[{"energy": e, "width": w} for e, w in zip(rng.uniform(-1, 1, n_res), rng.uniform(0.1, 1, n_res))],
            grid={"t_start": 0.0, "t_end": 2.0, "steps": steps},
            observables=[encode(random_hermitian(rng, 2 * n_res)) for _ in range(2)],
        ),
    )
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        result = subprocess.run(
            [sys.executable, "-m", "gamowlab", "run", str(path), "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stdout
        runs.append((result.stdout, {f.name: f.read_bytes() for f in sorted(out.iterdir())}))
    assert runs[0] == runs[1]


def test_run_damping_reports_commuting_step(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        {"kind": "damping", "p": 0.5, "n_max": 30, "eps": 1e-3, "observables": [SIGMA_X, SIGMA_Y]},
    )
    assert scenario.run_file(path, tmp_path / "out") == 0
    out = capsys.readouterr().out
    # 2 sqrt(2) * 0.5^n < 1e-3 first at n = 12
    assert "commuting at n=12" in out


def per_step_damping(o):
    """The reference: one Pauli-vector step and one cross-norm call per step, then the run's formatting."""
    scale = channels._pauli_transfer(o["channel"]).diagonal()
    vectors = _pauli_vectors(o["observables"])
    rows, first_below = [], None
    for n in range(o["n_max"] + 1):
        if n > 0:
            vectors = vectors * scale
        worst = max(_pair_cross_norms(vectors).tolist())
        rows.append((n, worst))
        if first_below is None and worst < o["eps"]:
            first_below = n
    reached = f"commuting at n={first_below}" if first_below is not None else "eps not reached"
    return {"commutators.csv": ["n,norm"] + [f"{n},{norm!r}" for n, norm in rows]}, (
        f"damping: p={o['p']}, n_max={o['n_max']}, worst-pair norm "
        f"{rows[0][1]:.6g} -> {rows[-1][1]:.6g}, {reached}"
    )


def matrix_damping_norms(o):
    """Worst-pair norms of the observables evolved as 2x2 matrices by the channel, step by step."""
    evolved, worst = o["observables"], []
    for n in range(o["n_max"] + 1):
        if n > 0:
            evolved = channels.apply_heisenberg(o["channel"], evolved)
        worst.append(max(pair_commutator_norms(evolved).tolist()))
    return np.array(worst)


def damping_objects(tmp_path, k, n_max, eps, seed=29, magnitude=1.0, hermitian=True):
    rng = np.random.default_rng(seed)
    if hermitian:
        matrices = [random_hermitian(rng, 2) for _ in range(k)]
    else:
        matrices = list(rng.normal(size=(k, 2, 2)) + 1j * rng.normal(size=(k, 2, 2)))
    observables = [encode(magnitude * m) for m in matrices]
    payload = {"kind": "damping", "p": 0.2, "n_max": n_max, "eps": eps, "observables": observables}
    diagnostics, sc = scenario.load_scenario(write_scenario(tmp_path, payload))
    assert diagnostics == []
    return sc.objects


@pytest.mark.parametrize(
    "k, n_max, hermitian",
    [(2, 1, True), (2, 300, True), (2, 3500, True), (9, 1, True), (9, 100, True), (64, 1, True), (64, 20, True),
     (9, 40, False)],
    ids=["2-1", "2-300", "2-3500", "9-1", "9-100", "64-1", "64-20", "9-40-non-hermitian"],
)
def test_chunked_damping_run_equals_the_per_step_loop(tmp_path, k, n_max, hermitian):
    # the run's own chunks: 1,536, 63 and 1 steps at k = 2, 9 and 64 for Hermitian
    # observables (real Pauli vectors), 26 at k = 9 for complex ones, so 3,501, 101 and
    # 41 steps leave a short last chunk; commuting is first reached at the first step of
    # the second chunk, the one carried over from the chunk before, or at n_max in a
    # one-chunk run
    objects = damping_objects(tmp_path, k, n_max, 1e-300, hermitian=hermitian)
    ((_, chunks),) = chunk_calls(commutators._damping_norms, objects["channel"], objects["observables"], n_max)
    lengths = [chunk.stop - chunk.start for chunk in chunks]
    assert len(chunks) == 1 or lengths[0] == 1 or lengths[-1] < lengths[0]
    target = chunks[1].start if len(chunks) > 1 else n_max
    norms = per_step_damping(objects)[0]["commutators.csv"][1:]
    # eps just above the norm at the target step: commuting is first reached there
    eps = float(np.nextafter(float(norms[target].split(",")[1]), np.inf))
    objects = damping_objects(tmp_path, k, n_max, eps, hermitian=hermitian)
    expected = per_step_damping(objects)
    assert f"commuting at n={target}" in expected[1]
    files, summary = scenario._run_damping(objects)
    assert (files, summary) == expected
    # the Pauli steps agree with the matrix channel wherever its z cancellation is mild
    norms = np.array([float(line.split(",")[1]) for line in files["commutators.csv"][1:]])
    reference = matrix_damping_norms(objects)
    live = reference > 1e-6 * reference[0]
    np.testing.assert_allclose(norms[live], reference[live], rtol=1e-12, atol=0)


def block_dtypes(objects):
    """Run the damping series on ``objects``; return the dtypes of the blocks it hands the cross-norm kernel."""
    seen, kernel = set(), commutators._pair_cross_norms
    def recorded(block):
        seen.add(block.dtype)
        return kernel(block)
    commutators._pair_cross_norms = recorded
    try:
        commutators._damping_norms(objects["channel"], objects["observables"], objects["n_max"])
    finally:
        commutators._pair_cross_norms = kernel
    return seen


def test_damping_route_follows_the_traceless_parts(tmp_path):
    # H_j + i c_j I has the Pauli vectors of H_j, with no imaginary part, as the identity
    # part cancels out of r_3 = (O00 - O11) / 2: it takes the real route and writes the
    # H_j family's bytes; one non-Hermitian member sends the family to the complex route.
    # Both routes give the bytes of the complex per-step loop.
    k, n_max = 8, 100
    hermitian = damping_objects(tmp_path, k, n_max, 1e-3, seed=67)
    rng = np.random.default_rng(73)
    shifted, skewed = [], []
    for m in hermitian["observables"]:
        shifted.append(encode(m + 1j * rng.normal() * np.eye(2)))
        skewed.append(encode(m))
    skewed[3] = encode(hermitian["observables"][3] + np.array([[0, 0.25j], [0, 0]]))
    runs = {}
    for name, observables in (("shifted", shifted), ("skewed", skewed)):
        payload = {"kind": "damping", "p": 0.2, "n_max": n_max, "eps": 1e-3, "observables": observables}
        diagnostics, sc = scenario.load_scenario(write_scenario(tmp_path, payload, f"{name}.json"))
        assert diagnostics == []
        runs[name] = sc.objects
    assert block_dtypes(hermitian) == block_dtypes(runs["shifted"]) == {np.dtype(np.float64)}
    assert block_dtypes(runs["skewed"]) == {np.dtype(np.complex128)}
    expected = scenario._run_damping(hermitian)
    assert expected == per_step_damping(hermitian)
    assert scenario._run_damping(runs["shifted"]) == per_step_damping(runs["shifted"]) == expected
    assert scenario._run_damping(runs["skewed"]) == per_step_damping(runs["skewed"])


@pytest.mark.parametrize("magnitude", [1e-150, 1e150])
@pytest.mark.parametrize("k, n_max", [(2, 300), (9, 40), (64, 20)])
def test_chunked_damping_run_with_extreme_entries_equals_the_per_step_loop(tmp_path, k, n_max, magnitude):
    # every pair's plain sum of squares leaves [2^-600, 2^600], so each chunk row takes
    # the norm kernel's rescale path, and the cross products come near the ends of the float range
    objects = damping_objects(tmp_path, k, n_max, 1e-300, magnitude=magnitude)
    expected = per_step_damping(objects)
    norms = np.array([float(line.split(",")[1]) for line in expected[0]["commutators.csv"][1:]])
    assert ((norms < 2.0**-300) | (norms > 2.0**300)).all()
    assert scenario._run_damping(objects) == expected


def test_damping_run_at_the_ends_of_the_eps_range(tmp_path):
    # eps just above the step-0 norm: commuting at once; eps = 1e-300: never
    objects = damping_objects(tmp_path, 5, 30, 1e-300)
    expected = per_step_damping(objects)
    assert expected[1].endswith("eps not reached")
    assert scenario._run_damping(objects) == expected
    eps = float(np.nextafter(float(expected[0]["commutators.csv"][1].split(",")[1]), np.inf))
    objects = damping_objects(tmp_path, 5, 30, eps)
    expected = per_step_damping(objects)
    assert expected[1].endswith("commuting at n=0")
    assert scenario._run_damping(objects) == expected


def test_chunked_damping_run_holds_no_run_sized_block(tmp_path):
    # one (n_max + 1, P, 2, 2) stack of every step's 2016 commutators would take 64 MB
    # at k = 64 and n_max = 500, and their (n_max + 1, P, 3) cross products 48 MB; the
    # chunked run holds one step's 97 KB of cross products and 129 KB of commutators
    objects = damping_objects(tmp_path, 64, 500, 1e-12)
    tracemalloc.start()
    try:
        files, _ = scenario._run_damping(objects)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = sum(sys.getsizeof(line) for line in files["commutators.csv"])
    assert peak - lines < 4 * 2**20


def closed_form_worst_norms(observables, p, n_max):
    """Exact worst-pair norm per step: with c = r_A x r_B of the initial Pauli vectors,
    ||[A_n, B_n]||^2 = 8[(1-p)^{3n}(|c_x|^2 + |c_y|^2) + (1-p)^{2n}|c_z|^2]."""
    r = np.array([pauli_vector(o) for o in observables])
    i, j = np.triu_indices(len(r), 1)
    c = np.cross(r[i], r[j])
    n = np.arange(n_max + 1)[:, None]
    squares = 8 * ((1 - p) ** (3 * n) * (np.abs(c[:, :2]) ** 2).sum(axis=1) + (1 - p) ** (2 * n) * np.abs(c[:, 2]) ** 2)
    return np.sqrt(squares).max(axis=1)


def test_damping_run_follows_the_closed_form_deep_into_the_decay(tmp_path, capsys):
    # evolved as matrices, z = (O00 - O11)/2 comes out of a cancellation against O00 and
    # loses its digits as the norm falls; in Pauli coordinates nothing cancels
    rng = np.random.default_rng(61)
    observables = [random_hermitian(rng, 2) for _ in range(4)]
    p, n_max, eps = 0.3, 300, 1e-40
    exact = closed_form_worst_norms(observables, p, n_max)
    crossing = int(np.argmax(exact < eps))
    assert 0 < crossing and exact[crossing] < eps * (1 - 1e-9) and exact[crossing - 1] > eps * (1 + 1e-9)
    payload = {"kind": "damping", "p": p, "n_max": n_max, "eps": eps, "observables": [encode(o) for o in observables]}
    path = write_scenario(tmp_path, payload)
    assert scenario.run_file(path, tmp_path / "out") == 0
    assert capsys.readouterr().out.rstrip().endswith(f"commuting at n={crossing}")
    rows = (tmp_path / "out" / "commutators.csv").read_text().splitlines()[1:]
    norms = np.array([float(row.split(",")[1]) for row in rows])
    normal = exact >= np.finfo(float).tiny
    assert normal.all()
    np.testing.assert_allclose(norms[normal], exact[normal], rtol=1e-12, atol=0)


def test_damping_run_with_huge_entries_is_quiet(tmp_path, capsys):
    # squared commutator entries near 1e600 pass the float range; the scaled norms are
    # finite, so the run succeeds, and it raises no numpy warning on the way
    big = 1e150
    payload = {"kind": "damping", "p": 0.05, "n_max": 20, "eps": 1e-10,
               "observables": [encode(big * np.array([[0, 1], [1, 0]])), encode(big * np.array([[0, -1j], [1j, 0]]))]}
    path = write_scenario(tmp_path, payload)
    expected = per_step_damping(scenario.load_scenario(path)[1].objects)[0]["commutators.csv"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert scenario.run_file(path, tmp_path / "out") == 0
    lines = (tmp_path / "out" / "commutators.csv").read_text().splitlines()
    assert lines[1] == "0,2.82842712474619e+300"
    assert lines == expected
    assert "Warning" not in capsys.readouterr().err


def assert_run_fails_quietly(tmp_path, payload):
    """The CLI run exits 3 with an overflow diagnostic, prints nothing on stderr and leaves no --out."""
    path = write_scenario(tmp_path, payload)
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-m", "gamowlab", "run", str(path), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 3
    assert result.stdout.startswith("runtime error:") and "overflow" in result.stdout
    assert result.stderr == ""
    assert not out.exists()


@pytest.mark.parametrize("scale", [1e160, 1.5e308])
def test_damping_run_past_the_float_range_fails_quietly(tmp_path, scale):
    # the demo Paulis scaled up: at 1e160 their commutators overflow, at 1.5e308 the
    # channel step itself does; the run fails with exit 3 and a diagnostic, and numpy
    # prints no warning
    payload = json.loads((GOLDEN / "demo_damping.json").read_text())
    payload["observables"] = [
        [[[scale * part for part in entry] for entry in row] for row in obs] for obs in payload["observables"]
    ]
    assert_run_fails_quietly(tmp_path, payload)


@pytest.mark.parametrize(
    "overrides",
    [
        {"resonances": [{"energy": 0.0, "width": 2.0}], "variant": "invertible",
         "grid": {"t_start": 0.0, "t_end": 400.0, "steps": 3}},
        {"resonances": [{"energy": 1e308, "width": 0.5}]},
    ],
    ids=["invertible-growth", "huge-energy"],
)
def test_resonance_run_past_the_float_range_fails_quietly(tmp_path, overrides):
    # the demo resonance run with INVERTIBLE conjugation, whose G-slot factor e^{t G/2}
    # overflows, or with an energy whose phase t E overflows: the evolved entries pass
    # the float range, and the run fails with exit 3 and a diagnostic, no numpy warning
    payload = json.loads((GOLDEN / "demo_resonance.json").read_text())
    payload.update(overrides)
    assert_run_fails_quietly(tmp_path, payload)


@pytest.mark.parametrize(
    "variant, widths, t_end, code",
    [
        ("semigroup_d", None, 5.0, 3),
        ("semigroup_d", (0.5, 0.8), 5.0, 0),
        pytest.param("hermitian", (0.2, 2.0), 200.0, 0, marks=pytest.mark.xfail(
            strict=True, reason="the alpha/beta scale e^{2 t Gamma} of the faster resonance overflows")),
    ],
    ids=["semigroup-demo-N1", "semigroup-random-N2", "hermitian-fast-width-N2"],
)
def test_run_prints_no_warning(tmp_path, variant, widths, t_end, code):
    # A scenario run keeps its exit code and prints nothing on stderr. SEMIGROUP_D
    # conjugation warns that it extrapolates (the demo pair commutes on the decaying
    # sector, so it has no points to fit). A valid HERMITIAN run with t * Gamma_max past
    # 354.9 still prints the overflow of its unwritten alpha/beta columns.
    payload = json.loads((GOLDEN / "demo_resonance.json").read_text())
    payload["variant"] = variant
    payload["grid"]["t_end"] = t_end
    if widths is not None:
        rng = np.random.default_rng(5)
        payload["resonances"] = [{"energy": 0.3, "width": widths[0]}, {"energy": -0.2, "width": widths[1]}]
        payload["observables"] = [encode(random_hermitian(rng, 4)) for _ in range(2)]
    path = write_scenario(tmp_path, payload)
    result = subprocess.run(
        [sys.executable, "-m", "gamowlab", "run", str(path), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == code
    assert result.stderr == ""


def test_coefficients_on_a_grid_past_half_the_float_range_are_quiet_and_finite(tmp_path):
    # the sigma_x, sigma_y run with Gamma = 1e-310 on [1e308, 1.7e308]: 2 t passes the
    # float range, but t Gamma <= 0.017, and the scale of the coefficients doubles the
    # width, not the time, so every alpha/beta cell is finite and numpy does not warn
    path = write_scenario(
        tmp_path,
        resonance_payload(
            resonances=[{"energy": 0.0, "width": 1e-310}], grid={"t_start": 1e308, "t_end": 1.7e308, "steps": 101}
        ),
    )
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "gamowlab", "run", str(path), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0 and result.stderr == ""
    rows = (out / "commutators.csv").read_text().splitlines()
    assert rows[1] == "1e+308,2.7724205152210537,1.0197207708399172,0.0,1.9999999999999982,0.0,-1.9999999999999982,0.0,true"
    assert all(np.isfinite([float(cell) for cell in row.split(",")[3:7]]).all() for row in rows[1:])


@pytest.mark.parametrize(
    "width, t_start, t_end, expected",
    [(3e-8, 1e10, 1e10 + 1e-3, -6e-8), (0.5, 0.0, 1e-200, 0.0)],
    ids=["far-grid", "tiny-span"],
)
def test_resonance_fit_on_extreme_grids_is_quiet(tmp_path, width, t_start, t_end, expected):
    # the sigma_x, sigma_y run on a grid whose times agree in their first 13 digits, and on
    # one so short that every log norm is equal: the run exits 0 with its one summary line,
    # nothing reaches stderr, and the fit is the least-squares slope, -2 Gamma on the far
    # grid and 0 on the tiny span
    path = write_scenario(
        tmp_path,
        resonance_payload(
            resonances=[{"energy": 0.0, "width": width}],
            grid={"t_start": t_start, "t_end": t_end, "steps": 101},
        ),
    )
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-m", "gamowlab", "run", str(path), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout
    assert len(result.stdout.splitlines()) == 1
    assert result.stderr == ""
    slope = float((out / "fit.txt").read_text().splitlines()[0].removeprefix("slope = "))
    assert slope == pytest.approx(expected, rel=1e-3, abs=0.0)


def resonance_objects(tmp_path, widths, t_end, steps, seed=47):
    """A loaded HERMITIAN scenario on [0, t_end]: random energies, the given widths, a random Hermitian pair."""
    rng = np.random.default_rng(seed)
    payload = resonance_payload(
        resonances=[{"energy": float(rng.uniform(-2, 2)), "width": float(w)} for w in widths],
        grid={"t_start": 0.0, "t_end": t_end, "steps": steps},
        observables=[encode(random_hermitian(rng, 2 * len(widths))) for _ in range(2)],
    )
    diagnostics, sc = scenario.load_scenario(write_scenario(tmp_path, payload))
    assert diagnostics == []
    return sc.objects


@pytest.mark.parametrize(
    "widths, full_chunks, tail, dead",
    [
        ((0.6, 0.9), 1, 5, 0),  # N = 2: a full chunk, then a short last chunk of 5 grid times
        (tuple(np.linspace(0.1, 1.0, 64)), 4, 0, 0),  # N = 64: one grid time per chunk
        # N = 2: the norms fall under the underflow floor near t = 324, late in the third
        # chunk; the short fourth chunk starts at t = 326 and has no live residual
        ((1.0, 1.02), 3, 20, 20),
    ],
    ids=["N2", "N64", "underflow"],
)
def test_streamed_resonance_run_equals_the_trajectory(tmp_path, widths, full_chunks, tail, dead):
    # the run reduces each chunk as it comes; its columns equal the per-time reference
    # on the stacked trajectory, and its fit that of the trajectory
    steps = full_chunks * chunk_length(2 * len(widths)) + tail
    t_end = 326.0 * (steps - 1) / (steps - tail) if dead else 8.0
    objects = resonance_objects(tmp_path, widths, t_end, steps)
    space, times = objects["space"], objects["times"]
    files, _ = scenario._run_resonance(objects)
    traj = trajectory(space, *objects["observables"], times, objects["variant"])
    assert traj.norms[0] > UNDERFLOW_FLOOR and np.all(traj.norms[steps - dead :] <= UNDERFLOW_FLOOR)
    slow = int(np.argmin(space.widths))
    rows = [line.split(",") for line in files["commutators.csv"][1:]]
    assert len(rows) == steps
    for k, row in enumerate(rows):
        alpha, beta, residual = per_time_ansatz(space, traj, k)
        expected = [traj.norms[k], alpha[slow].real, alpha[slow].imag, beta[slow].real, beta[slow].imag, residual]
        assert [row[1], *row[3:8]] == [repr(float(x)) for x in expected]
    fit = envelope_fit(traj)
    assert files["fit.txt"][:2] == [f"slope = {fit.slope!r}", f"intercept = {fit.intercept!r}"]


@pytest.mark.parametrize("fit_window", [None, 0.25, 1.0], ids=["default", "quarter", "whole"])
@pytest.mark.parametrize("widths", [(0.5,), (0.6, 0.9)], ids=["N1", "N2"])
def test_run_fit_equals_the_trajectory_fit_on_its_window(tmp_path, widths, fit_window):
    # validation picks the window the run fits on; it is the one envelope_fit takes for the fraction
    rng = np.random.default_rng(53)
    resonances = [Resonance(float(rng.uniform(-2, 2)), w) for w in widths]
    observables = [random_hermitian(rng, 2 * len(widths)) for _ in range(2)]
    payload = resonance_payload(
        resonances=[{"energy": r.energy, "width": r.width} for r in resonances],
        grid={"t_start": 0.0, "t_end": 8.0, "steps": 41},
        observables=[encode(o) for o in observables],
    )
    if fit_window is not None:
        payload["fit_window"] = fit_window
    assert scenario.run_file(write_scenario(tmp_path, payload), tmp_path / "out") == 0
    traj = trajectory(new_space(resonances), *observables, np.linspace(0.0, 8.0, 41))
    fit = envelope_fit(traj, fit_window)
    lines = (tmp_path / "out" / "fit.txt").read_text().splitlines()
    assert lines[:2] == [f"slope = {fit.slope!r}", f"intercept = {fit.intercept!r}"]


def test_streamed_resonance_run_holds_no_trajectory_stack(tmp_path):
    # a (51, 128, 128) stack of every grid time's commutator would take 13 MB at N = 64;
    # the streamed run holds one grid time's 256 KB chunk at a time and the (T,) norms
    objects = resonance_objects(tmp_path, np.linspace(0.1, 1.0, 64), 20.0, 51)
    tracemalloc.start()
    try:
        files, _ = scenario._run_resonance(objects)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = sum(sys.getsizeof(line) for line in files["commutators.csv"])
    assert peak - lines < 4 * 2**20


def test_run_multi_resonance_scenario(tmp_path):
    # two resonances; per-block xy observables keep the commutator diagonal,
    # so the residual column is zero and the alpha columns track the slower
    # (first) resonance exactly
    obs1 = np.zeros((4, 4), dtype=complex)
    obs2 = np.zeros((4, 4), dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    for j, (a, b, c, d) in enumerate([(1.0, 0.5, -0.25, 2.0), (0.5, 1.5, 1.0, -1.0)]):
        sl = slice(2 * j, 2 * j + 2)
        obs1[sl, sl] = a * sx + b * sy
        obs2[sl, sl] = c * sx + d * sy
    payload = {
        "kind": "resonance",
        "resonances": [{"energy": 0.4, "width": 0.5}, {"energy": -1.0, "width": 2.0}],
        "variant": "hermitian",
        "grid": {"t_start": 0.0, "t_end": 5.0, "steps": 101},
        "eps": 1e-4,
        "fit_window": 0.25,
        "observables": [encode(obs1), encode(obs2)],
    }
    path = write_scenario(tmp_path, payload)
    out = tmp_path / "out"
    assert scenario.run_file(path, out) == 0
    fields = dict(
        line.split(" = ") for line in (out / "fit.txt").read_text().strip().splitlines()
    )
    assert float(fields["expected_slope"]) == -1.0
    assert float(fields["slope"]) == pytest.approx(-1.0, abs=0.05)
    rows = (out / "commutators.csv").read_text().strip().splitlines()[1:]
    k_slow = obs1[:2, :2] @ obs2[:2, :2] - obs2[:2, :2] @ obs1[:2, :2]
    first = rows[0].split(",")
    assert float(first[3]) == pytest.approx(k_slow[0, 0].real, abs=1e-12)
    assert float(first[4]) == pytest.approx(k_slow[0, 0].imag, abs=1e-12)
    assert all(float(r.split(",")[7]) <= 1e-12 for r in rows)


# ---------------------------------------------------------------- validate == run


def leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaf_paths(value, path + (i,))
    else:
        yield path


DEMO_LEAVES = [
    (demo.name, path) for demo in sorted(GOLDEN.glob("*.json")) for path in leaf_paths(json.loads(demo.read_text()))
]
MUTATIONS = [None, "x", "1", True, -1, 0, 0.5, 5e-324, 1e308, float("nan"), float("inf"), [], {}, 10**7, 10**400]


def mutated_demo(name, path, value):
    """The demo scenario ``name`` with the leaf at ``path`` replaced by ``value``."""
    payload = json.loads((GOLDEN / name).read_text())
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return payload


def assert_validate_and_run_agree(payload, tmp: Path):
    """validate finds diagnostics exactly when run exits 2, neither raises, and a failed run leaves no output."""
    scen = write_scenario(tmp, payload)
    out = tmp / "out"
    diagnostics = scenario.validate_file(scen)
    code = scenario.run_file(scen, out)
    assert code in (0, 2, 3)
    assert (code == 2) == bool(diagnostics)
    assert out.exists() == (code == 0)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DEMO_LEAVES), st.sampled_from(MUTATIONS))
@example(("demo_lattice.json", ("kind",)), [])  # an unhashable kind
def test_validate_and_run_agree_on_mutated_demos(leaf, value):
    # one leaf of a demo scenario replaced
    name, path = leaf
    with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
        assert_validate_and_run_agree(mutated_demo(name, path, value), Path(tmp))


def assert_mutations_agree_quietly(name, path, tmp_path):
    """Every mutation of one leaf of the demo ``name`` agrees, with any numpy warning an error."""
    for i, value in enumerate(MUTATIONS):
        (tmp_path / str(i)).mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_validate_and_run_agree(mutated_demo(name, path, value), tmp_path / str(i))


def demo_leaf_params(name):
    return pytest.mark.parametrize(
        "path", [path for demo, path in DEMO_LEAVES if demo == name], ids=lambda path: ".".join(map(str, path))
    )


@demo_leaf_params("demo_damping.json")
def test_mutated_damping_demos_agree_and_run_quietly(tmp_path, path):
    assert_mutations_agree_quietly("demo_damping.json", path, tmp_path)


@demo_leaf_params("demo_lattice.json")
def test_mutated_lattice_demos_agree_and_run_quietly(tmp_path, path):
    assert_mutations_agree_quietly("demo_lattice.json", path, tmp_path)


# The alpha/beta scale exp(2 t Gamma) overflows where width or t_end is huge; the
# exact exponent structure of ROADMAP item 2 removes these warnings, and its fix
# must drop the marks.
ALPHA_BETA_OVERFLOW = [(path, value) for path in [("resonances", 0, "width"), ("grid", "t_end")] for value in [1e308, 10**7]]


def resonance_mutation_params():
    for demo, path in DEMO_LEAVES:
        if demo != "demo_resonance.json":
            continue
        for value in MUTATIONS:
            marks = ()
            if (path, value) in ALPHA_BETA_OVERFLOW:
                marks = pytest.mark.xfail(strict=True, raises=RuntimeWarning, reason="alpha/beta exp(2tΓ) overflow, ROADMAP item 2")
            text = repr(value) if len(repr(value)) <= 12 else f"{len(repr(value))}-digit int"
            yield pytest.param(path, value, marks=marks, id=f"{'.'.join(map(str, path))}={text}")


@pytest.mark.parametrize("path, value", list(resonance_mutation_params()))
def test_mutated_resonance_demos_agree_and_run_quietly(tmp_path, path, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_validate_and_run_agree(mutated_demo("demo_resonance.json", path, value), tmp_path)


def test_scenario_module_leaves_numerics_to_the_library():
    # scenario builds, formats and writes: it imports no cmatrix kernel and no private channel name
    tree = ast.parse(Path(scenario.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["gamowlab" if node.level else None, node.module]))
            imported |= {module} | {f"{module}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "channels":
            imported.add(f"gamowlab.channels.{node.attr}")
    assert not [name for name in imported if name.split(".")[:2] == ["gamowlab", "cmatrix"]]
    assert not [name for name in imported if name.startswith("gamowlab.channels._")]
