"""Trajectories simulated in worker processes, and single trajectories
split over helper processes: identical output at any count, errors and
dead processes reported, every child reaped."""
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import FROZEN_JOBS, child_env, frozen_under, reaped

from spinqrc import experiment, linalg, reservoir, tasks, workers
from spinqrc.cli import EXIT_NUMERICAL
from spinqrc.errors import StateInvariantError
from spinqrc.experiment import (TASK_NAMES, ExperimentManifest, SweepGrid,
                                run_experiment)
from spinqrc.qubits import ground_density
from spinqrc.tasks import gen_stm

SMALL = {"n_qubits": 4, "n_pre": 10, "n_fb": 30, "n_test": 10}
# Two coupling draws of one cell, so two workers get one each.
TWO_DRAWS = dict(SMALL, seeds=2, tasks=["narma2"],
                 sweep={"topologies": ["linear"], "gammas": [0.1],
                        "readouts": [1]})


def use_workers(monkeypatch, count):
    monkeypatch.setattr(workers, "_available_cpus", lambda: count)


@pytest.fixture(autouse=True)
def deadline():
    """Fail a test that runs past two minutes instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError("still running after 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("argv, golden", list(FROZEN_JOBS.values()),
                         ids=lambda v: v.name if isinstance(v, Path) else None)
def test_goldens_at_one_and_two_workers(frozen_run, argv, golden, count):
    run = frozen_run(argv)
    assert len(run.forks[count]) == count - 1
    assert run.unreaped[count] == []
    # The other worker count writes the same files, manifests included.
    # That holds on any BLAS kernel, the golden bytes on one only.
    assert run.files[count] == run.files[3 - count]
    assert run.files[count]["metrics.csv"] == golden.read_bytes(), \
        frozen_under()


def test_builds_one_propagator_per_coupling_draw(monkeypatch):
    use_workers(monkeypatch, 1)
    reservoir._draw_unitary.cache_clear()
    builds = []
    build = reservoir.evolution_operator

    def counted(config):
        builds.append((config.topology, config.coupling_seed))
        return build(config)

    monkeypatch.setattr(reservoir, "evolution_operator", counted)
    run_experiment(SweepGrid().manifests(dict(SMALL), tasks=TASK_NAMES,
                                         n_seeds=2, base_seed=0,
                                         input_seed=42))
    # 2 topologies x 2 seeds: gamma, readout and drive do not enter U.
    assert len(builds) == 4
    assert len(set(builds)) == 4


def test_counts_calls_across_worker_processes(tmp_path, monkeypatch, forks):
    use_workers(monkeypatch, 2)
    log = tmp_path / "calls.txt"
    run_sequence = experiment.run_sequence

    def logged(config, inputs):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {config.n_qubits}\n")
        return run_sequence(config, inputs)

    monkeypatch.setattr(experiment, "run_sequence", logged)
    cells = SweepGrid().manifests(dict(SMALL), tasks=TASK_NAMES, n_seeds=2,
                                  base_seed=0, input_seed=42)
    cells.append(ExperimentManifest(
        kind="reservoir", tasks=("narma2",), readout=2, n_seeds=2,
        config={"n_qubits": 9, "n_pre": 1, "n_fb": 4, "n_test": 2}))
    run_experiment(cells)
    calls = [line.split() for line in log.read_text().splitlines()]
    # 2 topologies x 2 gammas x 2 drives x 2 seeds, plus 2 nine-qubit runs.
    assert len(calls) == 18
    assert len({pid for pid, _ in calls}) == 2
    assert len(forks) == 1 and all(reaped(pid) for pid in forks)


@pytest.mark.parametrize("where", ["child", "parent"])
def test_invariant_error_in_any_process_exits_3(run_cli, monkeypatch, capsys,
                                                forks, where):
    use_workers(monkeypatch, 2)
    parent = os.getpid()
    run_sequence = experiment.run_sequence

    def failing(config, inputs):
        if (os.getpid() == parent) == (where == "parent"):
            raise StateInvariantError("trace deviates from 1 by 3.00e-01")
        if where == "parent":
            time.sleep(600)  # a worker whose results are no longer wanted
        return run_sequence(config, inputs)

    monkeypatch.setattr(experiment, "run_sequence", failing)
    code, out = run_cli(["sweep"], TWO_DRAWS)
    assert code == EXIT_NUMERICAL
    # The parent runs the first draw's group, the worker the second's.
    seed = 0 if where == "parent" else 1
    assert capsys.readouterr().err == (
        "error: trace deviates from 1 by 3.00e-01 (member: topology linear, "
        f"n_qubits 4, gamma 0.1, coupling_seed {seed})\n")
    assert not (out / "metrics.csv").exists()
    assert len(forks) == 1 and all(reaped(pid) for pid in forks)


def test_dead_worker_fails_the_run(tmp_path, run_cli, monkeypatch, forks):
    use_workers(monkeypatch, 2)
    parent = os.getpid()
    run_sequence = experiment.run_sequence

    def dying(config, inputs):
        if os.getpid() != parent:
            os._exit(9)
        return run_sequence(config, inputs)

    monkeypatch.setattr(experiment, "run_sequence", dying)
    with pytest.raises(ChildProcessError, match="status 9"):
        run_cli(["sweep"], TWO_DRAWS)
    assert not (tmp_path / "out" / "metrics.csv").exists()
    assert len(forks) == 1 and all(reaped(pid) for pid in forks)


def test_a_failed_worker_fork_runs_its_share_here(run_cli, monkeypatch):
    use_workers(monkeypatch, 1)
    _, alone = run_cli(["sweep"], TWO_DRAWS, out="alone")
    use_workers(monkeypatch, 2)
    tried = []

    def failing_fork():
        tried.append(None)
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", failing_fork)
    code, out = run_cli(["sweep"], TWO_DRAWS)
    assert code == 0
    assert ((out / "metrics.csv").read_bytes()
            == (alone / "metrics.csv").read_bytes())
    # One worker was asked for and none was forked, so this process has no
    # child left to reap.
    assert len(tried) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# A trajectory long enough for helpers at n = 6 (the default 440 steps).
SIX = {"n_qubits": 6}


def use_helpers(monkeypatch, count):
    monkeypatch.setattr(workers, "idle_cpus", lambda: count)


@pytest.fixture
def exact_splits(monkeypatch):
    """Helpers forked on any BLAS kernel, for tests of the crew's mechanics
    rather than of its bits."""
    monkeypatch.setattr(reservoir, "splits_exactly", lambda dim: True)


def assert_same_rows(*rows):
    """n = 6 ``z_rows`` equal bit for bit where the library splits a dim-64
    product exactly. Elsewhere ``exact_splits`` forces the split that
    ``linalg.splits_exactly`` refuses, which rounds differently, so they
    agree to 1e-12."""
    if linalg.splits_exactly(64):
        assert len({r.tobytes() for r in rows}) == 1, frozen_under()
    else:
        assert max(abs(r - rows[0]).max() for r in rows) <= 1e-12


needs_helpers = pytest.mark.skipif(
    not (hasattr(os, "fork") and workers._stores_in_order()),
    reason="no helper process is forked on this platform")
needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"),
    reason="no CPU affinity on this platform")


def lone_and_helped_rows(n_qubits, steps, set_helpers):
    """The ``z_rows`` bytes of an n-qubit run of ``steps`` steps on the
    binary and the NARMA drive, alone and after ``set_helpers(1)``, as
    {drive: [alone, helped]}."""
    drives = {"binary": gen_stm(steps, 42),
              "narma": tasks.gen_narma_input(steps)}
    config = reservoir.ReservoirConfig(
        n_qubits=n_qubits, n_pre=steps - 2, n_fb=1, n_test=1)
    runs = {}
    for name, inputs in drives.items():
        for helpers in (0, 1):
            set_helpers(helpers)
            runs.setdefault(name, []).append(
                reservoir.run_sequence(config, inputs).z_rows.tobytes())
    return runs


@needs_helpers
@pytest.mark.parametrize("n_qubits, steps", [
    (6, 300), (7, 40), (8, 6), (9, 3), (10, 3)])
def test_a_helper_changes_no_bit(monkeypatch, forks, n_qubits, steps):
    runs = lone_and_helped_rows(n_qubits, steps,
                                lambda count: use_helpers(monkeypatch, count))
    for name, (alone, helped) in runs.items():
        assert alone == helped, f"{name} drive, {frozen_under()}"
    # A helper is forked only where the library splits a product exactly.
    assert len(forks) == len(runs) * linalg.splits_exactly(2**n_qubits)
    assert all(reaped(pid) for pid in forks)


# test_a_helper_changes_no_bit[6-300] in a child process under OpenBLAS's
# Haswell kernel, whose column blocks differ from the one-call product. It
# prints the child's core, splits_exactly(64), the number of processes its
# runs forked, then each drive whose rows a helper changed.
HASWELL_CHILD = """\
import os
import sys
sys.path.insert(0, sys.argv[1])
from spinqrc import linalg, workers
from test_workers import lone_and_helped_rows

def set_helpers(count):
    workers.idle_cpus = lambda: count

forks = []
os.register_at_fork(before=lambda: forks.append(None))
runs = lone_and_helped_rows(6, 300, set_helpers)
print(linalg.kernel_blas().core, linalg.splits_exactly(64), len(forks),
      *[name for name, (alone, helped) in runs.items() if alone != helped])
"""


@needs_helpers
def test_a_helper_changes_no_bit_under_haswell():
    done = subprocess.run(
        [sys.executable, "-c", HASWELL_CHILD, str(Path(__file__).parent)],
        env=dict(child_env(), OPENBLAS_CORETYPE="Haswell"),
        capture_output=True, text=True, check=True)
    core, exact, forked, *changed = done.stdout.split()
    if core != "Haswell":
        pytest.skip(f"the child ran OpenBLAS core {core}, not Haswell")
    assert exact == "False"
    assert forked == "0"
    assert changed == [], f"a helper changed the {changed} drive's rows"


@needs_helpers
@needs_affinity
@pytest.mark.usefixtures("exact_splits")
def test_a_helper_sharing_one_cpu_finishes(monkeypatch, forks):
    # Both processes spin at their barriers on one CPU: each must yield it
    # while it waits, or every barrier waits out a time slice.
    config = reservoir.ReservoirConfig(n_qubits=6, n_pre=598, n_fb=1,
                                       n_test=1)
    inputs = tasks.gen_narma_input(config.total_steps)
    elapsed, rows = [], []
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(saved)})
    try:
        for helpers in (0, 1):
            use_helpers(monkeypatch, helpers)
            started = time.perf_counter()
            rows.append(reservoir.run_sequence(config, inputs).z_rows)
            elapsed.append(time.perf_counter() - started)
    finally:
        os.sched_setaffinity(0, saved)
    assert_same_rows(*rows)
    assert elapsed[1] < 10 * elapsed[0] + 0.5, elapsed
    assert len(forks) == 1 and all(reaped(pid) for pid in forks)


@needs_helpers
@pytest.mark.usefixtures("exact_splits")
def test_many_idle_cpus_fork_one_helper(monkeypatch, forks):
    # More idle CPUs than columns still split each product in two.
    config = reservoir.ReservoirConfig(n_qubits=6, n_pre=298, n_fb=1,
                                       n_test=1)
    inputs = tasks.gen_narma_input(config.total_steps)
    rows = []
    for helpers in (0, 1000):
        use_helpers(monkeypatch, helpers)
        rows.append(reservoir.run_sequence(config, inputs).z_rows)
    assert_same_rows(*rows)
    assert len(forks) == 1 and all(reaped(pid) for pid in forks)


@needs_helpers
@pytest.mark.usefixtures("exact_splits")
def test_a_failed_helper_fork_runs_alone(monkeypatch):
    config = reservoir.ReservoirConfig(n_qubits=6, n_pre=298, n_fb=1,
                                       n_test=1)
    inputs = tasks.gen_narma_input(config.total_steps)
    rows = []
    for helpers in (0, 1):
        use_helpers(monkeypatch, helpers)
        rows.append(reservoir.run_sequence(config, inputs).z_rows)

    def failing_fork():
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", failing_fork)
    rows.append(reservoir.run_sequence(config, inputs).z_rows)
    assert_same_rows(*rows)


@pytest.mark.usefixtures("exact_splits")
@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("seeds", [1, 2], ids=["one_draw", "two_draws"])
@pytest.mark.parametrize("cpus", [[0], [0, 1], [0, 1, 2, 3]],
                         ids=["one_cpu", "two_cpus", "four_cpus"])
def test_no_crew_touches_cpu_affinity(tmp_path, run_cli, monkeypatch, forks,
                                      cpus, seeds, fails):
    # A helper decides which process runs which column block, never where
    # either process runs: the crew that fills the CPUs (one draw on two)
    # and those that do not leave every affinity set as it is, however the
    # run ends. A 1-task n = 6 `run` sees an affinity set faked as `cpus`,
    # and pinning is recorded, not done, as the host may have other CPUs;
    # where the platform has no affinity calls, these stand in for them.
    if fails:
        check_state = reservoir._check_state
        checks = []

        def failing(rho, spare, full=True):
            checks.append(full)
            if len(checks) == 20:
                raise StateInvariantError("trace deviates from 1 by 1e-3")
            check_state(rho, spare, full)

        monkeypatch.setattr(reservoir, "_check_state", failing)
    use_workers(monkeypatch, len(cpus))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus),
                        raising=False)
    pins = tmp_path / "pins"
    pins.touch()

    def recording_setaffinity(pid, cpus):
        with open(pins, "a") as f:
            f.write(f"{os.getpid()} {sorted(cpus)}\n")

    monkeypatch.setattr(os, "sched_setaffinity", recording_setaffinity,
                        raising=False)
    code, _ = run_cli(["run", "--task", "narma2", "--seeds", str(seeds)], SIX)
    assert code == (EXIT_NUMERICAL if fails else 0)
    assert pins.read_text() == ""
    # Seen here: a worker for each draw past the first that a CPU takes,
    # and this process's helper where its share of the CPUs leaves one idle
    # (one draw on two or four CPUs, two draws on four) on a platform that
    # runs helpers; a worker forks its own helper.
    processes = min(len(cpus), seeds)
    helper = len(cpus) // processes > 1 and workers._stores_in_order()
    assert len(forks) == processes - 1 + helper
    assert all(reaped(pid) for pid in forks)


def test_two_draws_on_two_cpus_fork_no_helper(run_cli, monkeypatch, forks):
    use_workers(monkeypatch, 2)
    code, _ = run_cli(["run", "--task", "narma2", "--seeds", "2"], SIX)
    assert code == 0 and len(forks) == 1 and all(map(reaped, forks))


@needs_helpers
@pytest.mark.usefixtures("exact_splits")
def test_a_single_draw_gets_a_helper(run_cli, monkeypatch, forks):
    use_workers(monkeypatch, 2)
    code, _ = run_cli(["run", "--task", "narma2", "--seeds", "1"], SIX)
    assert code == 0 and len(forks) == 1 and all(map(reaped, forks))


@needs_helpers
@pytest.mark.usefixtures("exact_splits")
def test_bad_start_state_with_a_helper_exits_3(run_cli, monkeypatch, capsys,
                                               forks):
    use_workers(monkeypatch, 2)

    def nan_ground_density(n_qubits):
        rho = ground_density(n_qubits).astype(complex)
        rho[0, 0] = float("nan")
        return rho

    monkeypatch.setattr(reservoir, "ground_density", nan_ground_density)
    code, out = run_cli(["run", "--task", "narma2", "--seeds", "1"], SIX)
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "error: trace deviates from 1 by nan before step 0 (member: topology "
        "linear, n_qubits 6, gamma 0.1, coupling_seed 0)\n")
    assert not (out / "metrics.csv").exists()
    assert len(forks) == 1 and all(reaped(pid) for pid in forks)


@needs_helpers
@pytest.mark.usefixtures("exact_splits")
def test_a_helper_error_is_raised_as_itself(monkeypatch, forks):
    use_helpers(monkeypatch, 1)
    sync = workers.Crew.sync
    calls = []

    def failing(crew):
        if crew.rank == 1:
            calls.append(None)  # counted in the helper's own memory
            if len(calls) == 5:
                raise MemoryError("the helper ran out of memory")
        sync(crew)

    monkeypatch.setattr(workers.Crew, "sync", failing)
    config = reservoir.ReservoirConfig(n_qubits=6, n_pre=298, n_fb=1,
                                       n_test=1)
    with pytest.raises(MemoryError, match="^the helper ran out of memory$"):
        reservoir.run_sequence(config, tasks.gen_narma_input(300))
    assert calls == []
    assert len(forks) == 1 and all(reaped(pid) for pid in forks)


@needs_helpers
@pytest.mark.usefixtures("exact_splits")
def test_killed_helper_fails_the_run(tmp_path, run_cli, monkeypatch, forks):
    use_workers(monkeypatch, 2)
    check_state = reservoir._check_state
    checks = []

    def killing(rho, spare, full=True):
        # Runs in the main process only; kills the helper mid-run.
        checks.append(full)
        if len(checks) == 20:
            os.kill(forks[-1], signal.SIGKILL)
        check_state(rho, spare, full)

    monkeypatch.setattr(reservoir, "_check_state", killing)
    with pytest.raises(ChildProcessError, match="exit status -9"):
        run_cli(["run", "--task", "narma2", "--seeds", "1"], SIX)
    assert len(checks) < 440
    assert not (tmp_path / "out" / "metrics.csv").exists()
    assert len(forks) == 1 and all(reaped(pid) for pid in forks)


@needs_helpers
@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads process states from /proc")
def test_helper_exits_when_its_parent_is_killed():
    script = (
        "import os, sys\n"
        "import numpy as np\n"
        "from spinqrc import reservoir, workers\n"
        "workers.idle_cpus = lambda: 1\n"
        "reservoir.splits_exactly = lambda dim: True\n"
        "os.register_at_fork(after_in_child=lambda: print(os.getpid(), "
        "flush=True))\n"
        "config = reservoir.ReservoirConfig(n_qubits=6, n_pre=200_000)\n"
        "reservoir.run_sequence(config, np.full(config.total_steps, 0.5))\n")
    main_process = subprocess.Popen([sys.executable, "-c", script],
                                    env=child_env(), stdout=subprocess.PIPE,
                                    text=True)
    try:
        helper = int(main_process.stdout.readline())
    finally:
        main_process.kill()
        main_process.wait()
        main_process.stdout.close()
    stat = Path(f"/proc/{helper}/stat")
    for _ in range(1000):  # 10 s
        try:
            if stat.read_text().rsplit(")", 1)[1].split()[0] in "ZX":
                break  # ended; waiting for its new parent to reap it
        except FileNotFoundError:
            break  # ended and reaped
        time.sleep(0.01)
    else:
        os.kill(helper, signal.SIGKILL)
        pytest.fail("the helper outlived its parent by 10 s")
