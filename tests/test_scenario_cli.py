import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gamowlab import scenario
from gamowlab.cli import main


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
    ],
    ids=["grid-steps", "trajectory-entries", "n-max", "damping-observables", "lattice-dimension"],
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
    write_text = Path.write_text
    calls = []

    def failing_second_write(self, *args, **kwargs):
        calls.append(self.name)
        if len(calls) == 2:
            raise OSError("disk full")
        return write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing_second_write)
    assert scenario.run_file(path, out) == 3
    assert len(calls) == 2
    assert out.exists() == existing
    assert not existing or list(out.iterdir()) == []


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


def test_run_damping_reports_commuting_step(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        {"kind": "damping", "p": 0.5, "n_max": 30, "eps": 1e-3, "observables": [SIGMA_X, SIGMA_Y]},
    )
    assert scenario.run_file(path, tmp_path / "out") == 0
    out = capsys.readouterr().out
    # 2 sqrt(2) * 0.5^n < 1e-3 first at n = 12
    assert "commuting at n=12" in out


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
MUTATIONS = [None, "x", True, -1, 0, 0.5, 5e-324, 1e308, float("nan"), float("inf"), [], {}, 10**7]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DEMO_LEAVES), st.sampled_from(MUTATIONS))
@example(("demo_lattice.json", ("kind",)), [])  # an unhashable kind
def test_validate_and_run_agree_on_mutated_demos(leaf, value):
    # one leaf of a demo scenario replaced: validate finds diagnostics exactly
    # when run exits 2, neither raises, and a failed run leaves no output
    name, path = leaf
    payload = json.loads((GOLDEN / name).read_text())
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        scen = write_scenario(Path(tmp), payload)
        out = Path(tmp) / "out"
        with np.errstate(all="ignore"):
            diagnostics = scenario.validate_file(scen)
            code = scenario.run_file(scen, out)
        assert code in (0, 2, 3)
        assert (code == 2) == bool(diagnostics)
        assert out.exists() == (code == 0)
