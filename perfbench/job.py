"""One benchmark job in a fresh process.

    python3 perfbench/job.py SPEC_JSON RESULT_JSON

SPEC_JSON names the job ``kind``:

* ``cli``: call ``spinqrc.cli.main(argv)``, as the console script does;
* ``trajectory``: one ``run_sequence`` over a uniform random drive drawn
  from ``seed``; z_rows are saved to ``z_path`` and the call's wall time
  is reported as ``evolve_s``;
* ``scan``: one ``run_sequence`` per (n_qubits, steps) pair, after a
  discarded warm-up call;
* ``env``: interpreter, numpy/scipy and BLAS versions and thread counts.

With ``"trace": true`` the public spinqrc functions are wrapped first (see
tracer.py) and the spans go into the result. The exit code is the job's
own: nonzero when the CLI or the simulation fails.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def _trajectory_config(reservoir, n_qubits, steps, seed, topology="linear",
                       gamma=0.1):
    return reservoir.ReservoirConfig(
        n_qubits=n_qubits, topology=topology, gamma=gamma, coupling_seed=seed,
        n_pre=steps - 2, n_fb=1, n_test=1)


def drive(seed: int, steps: int):
    import numpy as np

    return np.random.default_rng(seed).uniform(0.0, 1.0, steps)


def _openblas_threads(package_dir: Path, lib_dir: str):
    """(config string, thread count) of the OpenBLAS bundled in a wheel."""
    import ctypes

    for path in sorted((package_dir.parent / lib_dir).glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        out = {"library": path.name}
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get_threads is not None:
                get_threads.restype = ctypes.c_int
                get_threads.argtypes = []
                out["threads"] = get_threads()
            if get_config is not None:
                get_config.restype = ctypes.c_char_p
                get_config.argtypes = []
                out["config"] = get_config().decode()
            if get_threads is not None:
                return out
    return {"library": None, "threads": None}


def environment() -> dict:
    import os
    import platform

    import numpy
    import scipy
    import scipy.linalg  # loads scipy's BLAS

    def blas(module):
        deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": deps.get("name"), "version": deps.get("version")}
        info.update(_openblas_threads(Path(module.__file__).parent,
                                      f"{module.__name__}.libs"))
        return info

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_numpy": blas(numpy), "blas_scipy": blas(scipy)}


def main(spec: dict, result_path: Path) -> int:
    sys.path.insert(0, spec["src"])
    kind = spec["kind"]
    if kind == "env":
        result_path.write_text(json.dumps({"environment": environment()}))
        return 0

    import spinqrc.cli  # loads every module the tracer wraps
    from spinqrc import reservoir

    if kind == "scan":
        reservoir.run_sequence(_trajectory_config(reservoir, 2, 3, 0), drive(0, 3))

    tracer = None
    if spec.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    result: dict = {}
    code = 0
    if kind == "cli":
        code = spinqrc.cli.main(spec["argv"])
    elif kind == "trajectory":
        import numpy as np

        steps, seed = spec["steps"], spec["seed"]
        config = _trajectory_config(reservoir, spec["n_qubits"], steps, seed,
                                    spec["topology"], spec["gamma"])
        inputs = drive(seed, steps)
        started = time.perf_counter()
        traj = reservoir.run_sequence(config, inputs)
        result["evolve_s"] = time.perf_counter() - started
        np.save(spec["z_path"], traj.z_rows)
    elif kind == "scan":
        for n, steps in spec["sizes"]:
            reservoir.run_sequence(_trajectory_config(reservoir, n, steps, 0),
                                   drive(0, steps))
    else:
        raise SystemExit(f"unknown job kind {kind!r}")
    if tracer is not None:
        result["spans"] = tracer.spans
        result["absent"] = tracer.absent
    result_path.write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1]), Path(sys.argv[2])))
