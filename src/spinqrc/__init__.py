"""Exact density-matrix simulation of spin-qubit reservoir computing.

A small array of Heisenberg-coupled qubits is driven by X rotations on a
single input qubit, relaxed toward its ground state by a reset channel,
and read out through trained linear combinations of single-qubit Z
expectations.  The package also carries the benchmark task generators
(short-term memory, NARMA) and an echo-state-network baseline used for
comparison.
"""
from .errors import (ConfigError, DivergenceError, SpinChainError,
                     StateInvariantError, ValidationError)
from .reservoir import (ReservoirConfig, Topology, Trajectory,
                        evolution_operator, run_sequence, sample_couplings,
                        step)
from .readout import (ReadoutType, ReadoutWeights, make_features, nmse,
                      predict, stm_capacity, train_weights)
from .tasks import gen_narma_input, gen_narma_target, gen_stm
from .esn import EsnConfig, esn_weights, run_esn
from .experiment import (ExperimentManifest, SweepGrid, emit_report,
                         run_experiment)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DivergenceError", "SpinChainError", "StateInvariantError",
    "ValidationError",
    "ReservoirConfig", "Topology", "Trajectory",
    "evolution_operator", "run_sequence", "sample_couplings", "step",
    "ReadoutType", "ReadoutWeights", "make_features", "nmse", "predict",
    "stm_capacity", "train_weights",
    "gen_narma_input", "gen_narma_target", "gen_stm",
    "EsnConfig", "esn_weights", "run_esn",
    "ExperimentManifest", "SweepGrid", "emit_report", "run_experiment",
    "__version__",
]
