"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from gamowlab import scenario
from gamowlab.channels import (
    DensityMatrix,
    KrausChannel,
    apply_heisenberg,
    apply_schrodinger,
    damping_channel,
    damping_closed_form,
    damping_limit,
    iterate_heisenberg,
)
from gamowlab.cmatrix import commutator, frobenius_norm
from gamowlab.commutators import ansatz_report, envelope_fit, growth_witness, phase_constancy_check, trajectory
from gamowlab.evolution import (
    EvolutionVariant,
    evolution_operator,
    hermitian_square_law,
    semigroup_via_roots,
)
from gamowlab.gamow import Resonance, basis_vector, new_space, pseudo_product
from gamowlab.qlattice import Projector, distributivity_check, meet, join
from support import (
    P_MINUS,
    P_PLUS,
    P_ZERO,
    block_xy_pair,
    random_density,
    random_hermitian,
    random_kraus_family,
    random_projector,
    random_unitary,
)

HERM = EvolutionVariant.HERMITIAN
INV = EvolutionVariant.INVERTIBLE
SEMI = EvolutionVariant.SEMIGROUP_D


def report(criterion: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] {criterion}")
    assert not failures, f"{criterion}: " + "; ".join(str(f) for f in failures[:5])


def test_criterion_01_damping_closed_form():
    failures = []
    rng = np.random.default_rng(42)
    observables = [random_hermitian(rng, 2) for _ in range(50)]
    start = time.perf_counter()
    worst = 0.0
    for p in (0.1, 0.5, 0.9):
        ch = damping_channel(p)
        for obs in observables:
            current = obs
            for n in range(1, 201):
                current = apply_heisenberg(ch, current)
                worst = max(worst, float(np.linalg.norm(current - damping_closed_form(p, n, obs))))
    elapsed = time.perf_counter() - start
    # spot check that the n-fold entry point itself agrees
    for n in (0, 1, 7, 200):
        direct = iterate_heisenberg(damping_channel(0.5), observables[0], n)
        worst = max(worst, frobenius_norm(direct - damping_closed_form(0.5, n, observables[0])))
    if worst > 1e-12:
        failures.append(f"worst Frobenius error {worst:.3e} > 1e-12")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s")
    report("criterion 01: damping closed form (n <= 200, three p values, < 1 s)", failures)


def test_criterion_02_commutative_limit():
    failures = []
    rng = np.random.default_rng(43)
    observables = [random_hermitian(rng, 2, scale=2.0) for _ in range(5)]
    for p in (0.1, 0.5, 0.9):
        ch = damping_channel(p)
        for obs in observables:
            limit = damping_limit(obs)
            bound_base = 2.0 * frobenius_norm(obs)
            current = obs
            for n in range(1, 101):
                current = apply_heisenberg(ch, current)
                gap = frobenius_norm(current - limit)
                if gap > bound_base * (1 - p) ** (n / 2) + 1e-15:
                    failures.append(f"limit bound broken at p={p}, n={n}: {gap:.3e}")
                    break
    ch = damping_channel(0.5)
    o1, o2 = observables[0], observables[1]
    prev = frobenius_norm(commutator(o1, o2))
    for n in range(1, 101):
        o1 = apply_heisenberg(ch, o1)
        o2 = apply_heisenberg(ch, o2)
        norm = frobenius_norm(commutator(o1, o2))
        if norm > prev + 1e-15:
            failures.append(f"commutator norm increased at n={n}")
            break
        prev = norm
    if prev >= 1e-10:
        failures.append(f"commutator norm {prev:.3e} >= 1e-10 at n=100, p=0.5")
    report("criterion 02: commutative limit bound and monotone commutator decay", failures)


def test_criterion_03_duality():
    failures = []
    rng = np.random.default_rng(44)
    channels = [damping_channel(p) for p in (0.0, 0.25, 0.5, 0.75, 1.0)]
    channels += [KrausChannel(2, tuple(random_kraus_family(rng, 2, 3))) for _ in range(5)]
    worst = 0.0
    for i in range(100):
        ch = channels[i % len(channels)]
        rho = DensityMatrix(random_density(rng, 2))
        obs = random_hermitian(rng, 2)
        lhs = np.trace(apply_schrodinger(ch, rho).mat @ obs)
        rhs = np.trace(rho.mat @ apply_heisenberg(ch, obs))
        worst = max(worst, abs(lhs - rhs))
    if worst > 1e-12:
        failures.append(f"worst mean-value mismatch {worst:.3e} > 1e-12")
    report("criterion 03: Schrodinger/Heisenberg duality over 100 random pairs", failures)


def test_criterion_04_pseudometric_and_roots():
    failures = []
    for n in range(1, 9):
        space = new_space([Resonance(0.2 * j - 0.5, 0.4 + 0.3 * j) for j in range(n)])
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for ki in ("D", "G"):
                    for kj in ("D", "G"):
                        value = pseudo_product(
                            space, basis_vector(space, i, ki), basis_vector(space, j, kj)
                        )
                        expected = 1.0 if (i == j and ki != kj) else 0.0
                        if value != expected:
                            failures.append(f"duality table broken at N={n} ({i}{ki}, {j}{kj})")
        if np.abs(space.root_b @ space.root_b - space.metric).max() > 1e-13:
            failures.append(f"B*B != A at N={n}")
        adj = space.root_b.conj().T
        if np.abs(adj @ adj - space.metric).max() > 1e-13:
            failures.append(f"Bdag*Bdag != A at N={n}")
        for t in (0.0, 0.9, 2.7):
            recon = semigroup_via_roots(space, t)
            direct = np.diag(evolution_operator(space, t, SEMI).diag)
            if np.abs(recon - direct).max() > 1e-12:
                failures.append(f"root reconstruction off at N={n}, t={t}")
    report("criterion 04: duality table (N <= 8), metric roots, root reconstruction", failures)


def test_criterion_05_evolution_identities():
    failures = []
    space = new_space([Resonance(1.0, 0.5), Resonance(-0.7, 2.0)])
    for t in np.linspace(-5.0, 5.0, 21):
        op = evolution_operator(space, t, INV)
        back = evolution_operator(space, -t, INV)
        if np.abs(np.diag(op.diag) @ np.diag(back.diag) - np.eye(space.dim)).max() > 1e-12:
            failures.append(f"U(t)U(-t) != I at t={t}")
    single = new_space([Resonance(0.0, 0.5)])
    for t in (0.0, 0.5, 2.0, 4.0):
        squared, _ = hermitian_square_law(single, t)
        if np.abs(squared - np.exp(-t * 0.5) * np.eye(2)).max() > 1e-13:
            failures.append(f"square law off at t={t}")
    for variant in (HERM, INV):
        u0 = np.diag(evolution_operator(space, 0.0, variant).diag)
        if np.abs(u0 - np.eye(space.dim)).max() != 0:
            failures.append(f"U(0) != I for {variant.name}")
    report("criterion 05: inverse identity, hermitian square law, U(0) = I", failures)


def test_criterion_06_growth_pathology():
    failures = []
    rng = np.random.default_rng(45)
    obs = random_hermitian(rng, 2)
    for width in (0.5, 2.0):
        space = new_space([Resonance(0.8, width)])
        for t in (1.0, 2.0):
            witness = growth_witness(space, obs, t)
            expected = np.exp(t * width)
            if abs(witness - expected) > 1e-10 * expected:
                failures.append(f"witness {witness} != e^(tG) at G={width}, t={t}")
    report("criterion 06: invertible-conjugation growth witness equals e^(t Gamma)", failures)


def test_criterion_07_single_resonance_decay_law():
    failures = []
    rng = np.random.default_rng(46)
    times = np.linspace(0.0, 5.0, 101)
    for width in (0.5, 2.0):
        space = new_space([Resonance(0.0, width)])
        o1 = random_hermitian(rng, 2)
        o2 = random_hermitian(rng, 2)
        k = commutator(o1, o2)
        assert frobenius_norm(k) > 1e-3 and abs(k[0, 0]) > 1e-3
        traj = trajectory(space, o1, o2, times, HERM)
        fit = envelope_fit(traj)
        if abs(fit.slope - (-2.0 * width)) > 1e-6:
            failures.append(f"slope {fit.slope} vs {-2 * width}")
        for idx in range(0, 101, 10):
            t = times[idx]
            expected = np.exp(-2.0 * t * width) * np.abs(k)
            if not np.allclose(np.abs(traj.values[idx]), expected, rtol=1e-12, atol=1e-200):
                failures.append(f"entry modulus law off at t={t}, width={width}")
                break
        alphas = np.array([ansatz_report(space, traj, i).alphas[0] for i in range(101)])
        if np.abs(alphas).max() - np.abs(alphas).min() > 1e-9:
            failures.append(f"|alpha| drifts at width={width}")
        if not phase_constancy_check(space, traj):
            failures.append(f"phase law broken at width={width}")
    # nonzero energy, observables whose commutator is diagonal: envelope and
    # modulus clauses hold exactly; the diagonal coefficients stay constant
    space = new_space([Resonance(1.3, 0.5)])
    o1, o2 = block_xy_pair(rng, 1)
    k = commutator(o1, o2)
    traj = trajectory(space, o1, o2, times, HERM)
    fit = envelope_fit(traj)
    if abs(fit.slope - (-1.0)) > 1e-6:
        failures.append(f"slope {fit.slope} depends on energy")
    for idx in (3, 50, 100):
        expected = np.exp(-2.0 * times[idx] * 0.5) * np.abs(k)
        if not np.allclose(np.abs(traj.values[idx]), expected, rtol=1e-12, atol=1e-200):
            failures.append("entry modulus law off at nonzero energy")
            break
    betas = np.array([ansatz_report(space, traj, i).betas[0] for i in range(101)])
    if np.abs(betas).max() - np.abs(betas).min() > 1e-9:
        failures.append("|beta| drifts at nonzero energy")
    report("criterion 07: single-resonance decay envelope, entry moduli and phase law", failures)


def test_criterion_08_multi_resonance():
    failures = []
    times = np.linspace(0.0, 5.0, 101)
    cases = [(2, (0.5, 2.0), 47), (3, (0.5, 2.0, 3.5), 48)]
    for n_res, widths, seed in cases:
        rng = np.random.default_rng(seed)
        space = new_space([Resonance(0.0, w) for w in widths])
        o1 = random_hermitian(rng, 2 * n_res)
        o2 = random_hermitian(rng, 2 * n_res)
        k_norm = frobenius_norm(commutator(o1, o2))
        traj = trajectory(space, o1, o2, times, HERM)
        bound = k_norm * np.exp(-2.0 * min(widths) * times)
        if not np.all(traj.norms <= bound * (1 + 1e-12)):
            failures.append(f"norm bound broken for N={n_res}")
        fit = envelope_fit(traj, window_fraction=0.25)
        target = -2.0 * min(widths)
        if abs(fit.slope - target) > 0.05 * abs(target):
            failures.append(f"late slope {fit.slope:.4f} not within 5% of {target} (N={n_res})")
        # block-diagonal observables built from the xy plane realize the
        # diagonal form exactly: residual vanishes for all grid times
        ob1, ob2 = block_xy_pair(rng, n_res)
        energies = new_space([Resonance(0.3 * j - 0.2, w) for j, w in enumerate(widths)])
        traj_block = trajectory(energies, ob1, ob2, times, HERM)
        residuals = [ansatz_report(energies, traj_block, i).residual for i in range(0, 101, 5)]
        if max(residuals) > 1e-12:
            failures.append(f"block-diagonal residual {max(residuals):.3e} > 1e-12 (N={n_res})")
    report("criterion 08: multi-resonance bound, late-window slope, diagonal residual", failures)


def test_criterion_09_lattice():
    failures = []
    a, b, c = Projector(P_ZERO), Projector(P_PLUS), Projector(P_MINUS)
    lhs = meet(a, join(b, c))
    rhs = join(meet(a, b), meet(a, c))
    if frobenius_norm(lhs.mat - P_ZERO) > 1e-9 or lhs.rank != 1:
        failures.append("a ^ (b v c) != a for the canonical triple")
    if frobenius_norm(rhs.mat) > 1e-9:
        failures.append("(a^b) v (a^c) != 0 for the canonical triple")
    rng = np.random.default_rng(49)
    for trial in range(200):
        d = int(rng.integers(2, 7))
        triple = [Projector(random_projector(rng, d)) for _ in range(3)]
        if not distributivity_check(*triple).inequality_holds:
            failures.append(f"distributive inequality violated on trial {trial}")
            break
    for trial in range(30):
        d = int(rng.integers(2, 7))
        u = random_unitary(rng, d)
        mats = [u @ np.diag(rng.integers(0, 2, size=d).astype(float)) @ u.conj().T for _ in range(3)]
        rep = distributivity_check(*(Projector(m) for m in mats))
        if not (rep.meet_equal and rep.join_equal):
            failures.append(f"commuting triple not distributive on trial {trial}")
            break
    report("criterion 09: canonical non-distributive triple, inequalities, Boolean triples", failures)


def test_criterion_10_cli_determinism(tmp_path):
    failures = []
    start = time.perf_counter()
    demo_dir = tmp_path / "demos"
    scenario.write_demo_files(demo_dir)
    demos = sorted(demo_dir.glob("*.json"))
    if len(demos) != 3:
        failures.append(f"expected 3 demo scenarios, found {len(demos)}")
    for demo in demos:
        out_a = tmp_path / "first" / demo.stem
        out_b = tmp_path / "second" / demo.stem
        if scenario.run_file(demo, out_a) != 0 or scenario.run_file(demo, out_b) != 0:
            failures.append(f"demo run failed for {demo.name}")
            continue
        for path_a in sorted(out_a.iterdir()):
            path_b = out_b / path_a.name
            if path_a.read_bytes() != path_b.read_bytes():
                failures.append(f"output {path_a.name} differs between runs of {demo.name}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    report("criterion 10: demo scenarios run twice byte-identically in < 5 s", failures)
