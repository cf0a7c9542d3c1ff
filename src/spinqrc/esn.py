"""Echo-state network baseline with long-correlation variants.

The update mixes the states from one, three, or five steps back:

    x_k = tanh(W (x_{k-1} [+ x_{k-3}] [+ x_{k-5}]) + w_in s_k)

Variant 1 uses only the previous state (the classical ESN); variants 3
and 5 add the older states, lengthening the network's internal
correlations. All variants share W and w_in for a given weight seed, so
differences in performance isolate the history depth.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .reservoir import Phase, check_numbers

HISTORY_DEPTH = 5
VARIANTS = (1, 3, 5)

_VARIANT_LAGS = {1: (1,), 3: (1, 3), 5: (1, 3, 5)}


@dataclass(frozen=True)
class EsnConfig:
    n_nodes: int = 6
    variant: int = 1
    w_scale: float = 0.4
    w_in_scale: float = 0.4
    weight_seed: int = 0
    n_pre: int = 200
    n_fb: int = 200
    n_test: int = 40

    def __post_init__(self) -> None:
        check_numbers(self, ("n_nodes", "variant", "weight_seed", "n_pre",
                             "n_fb", "n_test"), ("w_scale", "w_in_scale"))
        if self.n_nodes < 1:
            raise ConfigError("n_nodes must be at least 1")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant}")
        if self.w_scale <= 0.0 or self.w_in_scale <= 0.0:
            raise ConfigError("weight scales must be positive")
        if min(self.n_pre, self.n_fb, self.n_test) < 1:
            raise ConfigError("all phase lengths must be positive")

    @property
    def total_steps(self) -> int:
        return self.n_pre + self.n_fb + self.n_test

    def phase_of(self, step_index: int) -> Phase:
        if step_index < self.n_pre:
            return Phase.PREP
        if step_index < self.n_pre + self.n_fb:
            return Phase.TRAIN
        return Phase.TEST


@dataclass(frozen=True)
class EsnTrajectory:
    config: EsnConfig
    inputs: np.ndarray
    states: np.ndarray  # shape (total_steps, n_nodes)
    phases: tuple[Phase, ...] = field(repr=False)

    @property
    def train_slice(self) -> slice:
        c = self.config
        return slice(c.n_pre, c.n_pre + c.n_fb)

    @property
    def test_slice(self) -> slice:
        c = self.config
        return slice(c.n_pre + c.n_fb, c.total_steps)


def esn_weights(config: EsnConfig) -> tuple[np.ndarray, np.ndarray]:
    """Draw (W, w_in) from one seeded stream: W first, then w_in.

    Entries are uniform on [0, scale]. The draw order is part of the
    reproducibility contract; variants share weights by sharing the seed.
    """
    rng = np.random.default_rng(config.weight_seed)
    w = rng.uniform(0.0, config.w_scale, (config.n_nodes, config.n_nodes))
    w_in = rng.uniform(0.0, config.w_in_scale, config.n_nodes)
    return w, w_in


def run_esn(config: EsnConfig, inputs: Sequence[float]) -> EsnTrajectory:
    """Run a full prep/train/test sequence from zero-initialized history."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 1 or len(inputs) != config.total_steps:
        raise ConfigError(
            f"need exactly {config.total_steps} inputs, got {inputs.shape}")
    w, w_in = esn_weights(config)
    lags = _VARIANT_LAGS[config.variant]
    # The first HISTORY_DEPTH rows are the zero history before step 0.
    history = np.zeros((HISTORY_DEPTH + len(inputs), config.n_nodes))
    for k, s in enumerate(inputs, start=HISTORY_DEPTH):
        mixed = np.zeros(config.n_nodes)
        for lag in lags:
            mixed = mixed + history[k - lag]
        history[k] = np.tanh(w @ mixed + w_in * float(s))
    states = history[HISTORY_DEPTH:]
    phases = tuple(config.phase_of(k) for k in range(len(inputs)))
    return EsnTrajectory(config=config, inputs=inputs, states=states, phases=phases)
