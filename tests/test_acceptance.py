"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion. Criteria 3-7 score the rows of one ``run_experiment`` call,
made once per module: the loop that ``spinqrc run``, ``sweep`` and ``esn``
run, so they score exactly what the CLI computes.
"""
import time

import numpy as np
import pytest

from spinqrc.experiment import ExperimentManifest, SweepGrid, run_experiment
from spinqrc.linalg import kernel_blas, one_blas_thread, trace_distance
from spinqrc.qubits import ground_density
from spinqrc.reservoir import (ReservoirConfig, evolution_operator,
                               run_sequence, sample_couplings, step)

N_SEEDS = 10
DELAYS = tuple(range(11))
TOPOLOGIES = ("linear", "ring")
READOUTS = ("per_qubit", "averaged")

# Held-out steps that score criterion 3's capacity curve. Over the default
# 40 the binary drive has chance correlations at long lags (squared 0.128
# between s_{k-9} and s_k, 0.163 between s_{k-10} and s_{k-1}), so C(9)
# reads 0.11-0.18 at every gamma and breaks the monotone clause's 0.05
# slack whatever the reservoir remembers; over 400 steps they average out.
STM_CURVE_TEST_STEPS = 400

# Criterion 1's cost budget, as a multiple of the time this machine needs
# for the two dim-64 matrix products per step that exact evolution cannot
# avoid (zgemm_floor). An absolute budget would test the host instead.
EXACTNESS_COST_FACTOR = 2.0


@pytest.fixture(scope="module")
def per_seed():
    """per_seed[ensemble][row_id] -> the row's per-seed array over N_SEEDS
    seeds, such as ``per_seed["stm"]["stm_tau01|linear|per_qubit|0.1"]``,
    for every ensemble the criteria score."""
    ensembles = {
        # criterion 6: both readouts over the default 40 held-out steps
        "stm": SweepGrid(gammas=(0.1,)).manifests(
            {}, tasks=("stm",), n_seeds=N_SEEDS),
        # criterion 3
        "stm_curve": SweepGrid(gammas=(0.1,), readouts=(1,)).manifests(
            {"n_test": STM_CURVE_TEST_STEPS}, tasks=("stm",), n_seeds=N_SEEDS),
        # criteria 4 and 5
        "narma": SweepGrid().manifests(
            {}, tasks=("narma2", "narma5", "narma10"), n_seeds=N_SEEDS),
        # criterion 7
        "esn": [ExperimentManifest(
            kind="esn", config={"variant": variant},
            tasks=("stm", "narma2", "narma5", "narma10"), stm_delays=(2, 3, 4),
            n_seeds=N_SEEDS) for variant in (1, 3, 5)],
    }
    run_experiment([m for cells in ensembles.values() for m in cells])
    return {name: {row_id: np.array(row.per_seed) for m in cells
                   for row_id, row in m.metrics.items()}
            for name, cells in ensembles.items()}


def zgemm_floor(dim: int = 64, steps: int = 10_000, repeats: int = 3) -> float:
    """Best of ``repeats`` timings of the two dim x dim complex products that
    each of ``steps`` reservoir steps makes (``P rho``, then
    ``(1-gamma) W P† + rho'``), through the zgemm binding the kernel calls,
    at the package's one BLAS thread. ``tools/bench_record.py`` times it
    as its host control."""
    rng = np.random.default_rng(0)
    prop, rho = (np.asfortranarray(rng.standard_normal((dim, dim))
                                   + 1j * rng.standard_normal((dim, dim)))
                 for _ in range(2))
    work, out = np.empty_like(prop), np.zeros_like(prop)
    blas = kernel_blas()
    propagate = blas.gemm(prop, rho, work)
    mix = blas.gemm(work, prop, out, alpha=0.9, beta=1.0, conj_b=True)
    best = np.inf
    with one_blas_thread():
        for _ in range(repeats):
            started = time.perf_counter()
            for _ in range(steps):
                propagate()
                mix()
            best = min(best, time.perf_counter() - started)
    return best


def test_criterion_1_exactness():
    """Unitarity, 10k-step state invariants, and the contraction law, all
    within EXACTNESS_COST_FACTOR times the machine's time for the 20,000
    dim-64 products that the 10k steps need."""
    floor = zgemm_floor()
    started = time.perf_counter()

    u = evolution_operator(ReservoirConfig())
    unitarity = np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))
    assert unitarity < 1e-10

    # 10,000 steps at defaults; run_sequence checks the trace each step and
    # Hermiticity/positivity on a cadence whose drift bound keeps every
    # intermediate state within 1e-9, raising StateInvariantError otherwise.
    cfg = ReservoirConfig(n_pre=9760, n_fb=200, n_test=40)
    assert cfg.total_steps == 10_000
    inputs = np.random.default_rng(314).uniform(0.0, 1.0, cfg.total_steps)
    traj = run_sequence(cfg, inputs)
    assert np.abs(traj.z_rows).max() <= 1 + 1e-9

    worst_rel = 0.0
    for gamma in (0.01, 0.1):
        small = ReservoirConfig(gamma=gamma)
        u_g = evolution_operator(small)
        dim = 2**small.n_qubits
        sigma = np.zeros((dim, dim), dtype=complex)
        sigma[dim - 1, dim - 1] = 1.0
        a, b = ground_density(small.n_qubits), sigma
        d0 = trace_distance(a, b)
        drive = np.random.default_rng(7).uniform(0.0, 1.0, 40)
        for k, s in enumerate(drive, start=1):
            a, _ = step(a, float(s), u_g, gamma)
            b, _ = step(b, float(s), u_g, gamma)
            expected = (1 - gamma) ** k * d0
            rel = abs(trace_distance(a, b) - expected)
            rel /= expected
            worst_rel = max(worst_rel, rel)
    assert worst_rel < 1e-8

    elapsed = time.perf_counter() - started
    cost = (f"suite {elapsed:.2f}s = {elapsed / floor:.2f}x the {floor:.2f}s "
            f"of 20,000 dim-64 zgemm calls (budget "
            f"{EXACTNESS_COST_FACTOR:g}x)")
    print(f"criterion 1: unitarity {unitarity:.2e}, contraction rel err "
          f"{worst_rel:.2e}, {cost}")
    assert elapsed <= EXACTNESS_COST_FACTOR * floor, cost


def test_criterion_2_two_qubit_oracle():
    """50 steps at N_q=2 against a from-scratch 4x4 implementation built
    out of explicit Kronecker products and scalar eigenvalue phases."""
    cfg = ReservoirConfig(n_qubits=2, topology="linear", coupling_seed=5)
    bond = sample_couplings(cfg.topology, 2, cfg.coupling_seed)[0]
    assert bond.strength == pytest.approx(1.0)  # lone bond normalizes to 1

    # oracle: exchange eigenvalues are (-3, 1, 1, 1); the -3 eigenvector is
    # the singlet (|01> - |10>)/sqrt(2), so exp(-i dt H) has two scalar
    # phases and needs no matrix exponential at all
    dt = cfg.dt
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    p_singlet = np.outer(singlet, singlet).astype(complex)
    u_oracle = (np.exp(3j * dt) * p_singlet
                + np.exp(-1j * dt) * (np.eye(4) - p_singlet))

    eye2 = np.eye(2, dtype=complex)
    pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)

    def rotation_oracle(s):
        half = 0.5 * np.pi * s
        r2 = np.cos(half) * eye2 + 1j * np.sin(half) * pauli_x
        return np.kron(r2, eye2)  # input qubit is the leading factor

    rho_oracle = np.zeros((4, 4), dtype=complex)
    rho_oracle[0, 0] = 1.0

    u_pkg = evolution_operator(cfg)
    rho0 = rho = ground_density(2)
    drive = np.random.default_rng(20).uniform(0.0, 1.0, 50)

    worst = 0.0
    for s in drive:
        rho, _ = step(rho, float(s), u_pkg, cfg.gamma)
        prop = u_oracle @ rotation_oracle(float(s))
        rho_oracle = ((1 - cfg.gamma) * (prop @ rho_oracle @ prop.conj().T)
                      + cfg.gamma * rho0)
        worst = max(worst, np.abs(rho - rho_oracle).max())
    print(f"criterion 2: max per-entry deviation over 50 steps {worst:.2e}")
    assert worst < 1e-9


def test_criterion_3_stm_curve(per_seed):
    """Mean delay-1 capacity above 0.9, near-monotone decay, and delay-8
    capacity below 0.5, for at least one arrangement at gamma=0.1, scored
    over STM_CURVE_TEST_STEPS held-out steps.

    The defaults miss the delay-1 clause (about 0.5): the binary input is
    stored as a sign relative to <Z_1>, which a reset rate of 0.1 does not
    pin (README, "Tests")."""
    report = []
    passed = False
    for topology in TOPOLOGIES:
        curve = np.array([
            per_seed["stm_curve"][f"stm_tau{tau:02d}|{topology}|per_qubit|0.1"]
            .mean() for tau in DELAYS])
        high_recall = curve[1] > 0.9
        monotone = bool(np.all(curve[1:] <= curve[:-1] + 0.05))
        forgotten = curve[8] < 0.5
        passed = passed or (high_recall and monotone and forgotten)
        report.append(
            f"{topology}: C(1)={curve[1]:.3f} "
            f"({'ok' if high_recall else 'need >0.9'}), "
            f"monotone={'ok' if monotone else 'violated'}, "
            f"C(8)={curve[8]:.3f} ({'ok' if forgotten else 'need <0.5'})")
    print("criterion 3: " + "; ".join(report))
    assert passed, "; ".join(report)


def test_criterion_4_narma_accuracy(per_seed):
    """Mean NMSE at gamma=0.1 under the per-qubit readout: NARMA2 below
    1e-3, NARMA5 and NARMA10 below 5e-2."""
    means = {n: per_seed["narma"][f"narma{n}|linear|per_qubit|0.1"].mean()
             for n in (2, 5, 10)}
    print(f"criterion 4: NARMA2 {means[2]:.2e}, NARMA5 {means[5]:.2e}, "
          f"NARMA10 {means[10]:.2e}")
    assert means[2] < 1e-3
    assert means[5] < 5e-2
    assert means[10] < 5e-2


def test_criterion_5_dissipation_direction(per_seed):
    """Stronger reset must help: mean NMSE at gamma=0.1 below gamma=0.01
    for every task, topology, and readout combination."""
    failures = []
    for n in (2, 5, 10):
        for topology in TOPOLOGIES:
            for readout in READOUTS:
                strong, weak = (
                    per_seed["narma"][f"narma{n}|{topology}|{readout}|{gamma}"]
                    .mean() for gamma in ("0.1", "0.01"))
                if not strong < weak:
                    failures.append(f"narma{n}/{topology}/{readout}: "
                                    f"{strong:.2e} !< {weak:.2e}")
    print(f"criterion 5: 12 comparisons, {len(failures)} violations")
    assert not failures, "; ".join(failures)


def test_criterion_6_readout_dominance(per_seed):
    """Per-qubit readout at least matches the site-averaged one at every
    delay, averaging seeds across both arrangements."""
    gaps = []
    for tau in DELAYS:
        per_qubit, averaged = (np.concatenate([
            per_seed["stm"][f"stm_tau{tau:02d}|{t}|{readout}|0.1"]
            for t in TOPOLOGIES]).mean() for readout in READOUTS)
        gaps.append(per_qubit - averaged)
    worst = min(gaps)
    print(f"criterion 6: smallest type I - type II gap {worst:+.4f}")
    assert worst >= 0.0, f"type II beat type I by {-worst:.4f} at some delay"


def test_criterion_7_esn_baseline(per_seed):
    """Deeper history must not help recall (ESN1 >= ESN3 >= ESN5 on the
    delay 2-4 set), and ESN1 vs ESN3 NARMA error stays within 10x.

    The defaults miss the NARMA2 spread (about 12x): the readout fit's rank
    cutoff drops real directions of the saturated ESN3 features (README,
    "Tests")."""
    def mean(task, variant):
        return per_seed["esn"][f"{task}|esn{variant}|per_qubit|"].mean()

    c1, c3, c5 = (np.mean([mean(f"stm_tau{tau:02d}", v) for tau in (2, 3, 4)])
                  for v in (1, 3, 5))
    ratios = {}
    for n in (2, 5, 10):
        ratio = mean(f"narma{n}", 1) / mean(f"narma{n}", 3)
        ratios[n] = max(ratio, 1.0 / ratio)
    report = (f"capacities ESN1 {c1:.3f}, ESN3 {c3:.3f}, ESN5 {c5:.3f} "
              "(need ESN1 >= ESN3 >= ESN5); NARMA 1-vs-3 spread "
              + ", ".join(f"n{n}={r:.1f}x" for n, r in ratios.items())
              + " (need <= 10x)")
    print("criterion 7: " + report)
    assert c1 >= c3 >= c5, f"capacity order violated: {report}"
    assert all(r <= 10.0 for r in ratios.values()), (
        f"NARMA spread above 10x: {report}")


def test_criterion_8_reproducible_report(run_cli):
    """The experiment command, re-run with identical config and seed,
    writes byte-identical metrics.csv."""
    config = {"n_qubits": 4, "n_pre": 10, "n_fb": 30, "n_test": 10}
    outputs = []
    for name in ("first", "second"):
        code, out = run_cli(["run", "--task", "narma5", "--seed", "3",
                             "--seeds", "3"], config, out=name)
        assert code == 0
        outputs.append((out / "metrics.csv").read_bytes())
    print(f"criterion 8: {len(outputs[0])} bytes, identical="
          f"{outputs[0] == outputs[1]}")
    assert outputs[0] == outputs[1]
