"""Echo-state network baseline with long-correlation variants.

The update mixes the states from one, three, or five steps back:

    x_k = tanh(W (x_{k-1} [+ x_{k-3}] [+ x_{k-5}]) + w_in s_k)

Variant 1 uses only the previous state (the classical ESN); variants 3
and 5 add the older states, lengthening the network's internal
correlations. All variants share W and w_in for a given weight seed, so
differences in performance isolate the history depth.
"""
from __future__ import annotations

import reprlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .reservoir import Schedule, number
from .rng import Stream
from .tasks import sized_array

HISTORY_DEPTH = 5
VARIANTS = (1, 3, 5)

_VARIANT_LAGS = {1: (1,), 3: (1, 3), 5: (1, 3, 5)}


@dataclass(frozen=True)
class EsnConfig(Schedule):
    n_nodes: int = number(6, 1)
    variant: int = number(1)
    w_scale: float = number(0.4, above=0)
    w_in_scale: float = number(0.4, above=0)
    weight_seed: int = number(0, 0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got "
                              f"{reprlib.repr(self.variant)}")


def esn_weights(config: EsnConfig) -> tuple[np.ndarray, np.ndarray]:
    """Draw (W, w_in) from one seeded stream: W first, then w_in.

    Entries are uniform on [0, scale]. The draw order is part of the
    reproducibility contract; variants share weights by sharing the seed.
    """
    n = config.n_nodes
    stream = Stream(config.weight_seed)
    w = sized_array(np.empty, (n, n))  # first: an oversized W fails at once
    w.flat[:] = stream.uniform(config.w_scale, n * n)
    w_in = np.array(stream.uniform(config.w_in_scale, n))
    return w, w_in


def run_esn(config: EsnConfig, inputs: Sequence[float]) -> np.ndarray:
    """Run a full prep/train/test sequence from zero-initialized history;
    the drive must hold one value in [0, 1] per step. Row k of the result,
    shape (total_steps, n_nodes), is the state after input k."""
    inputs = config.check_drive(inputs)
    w, w_in = esn_weights(config)
    lags = _VARIANT_LAGS[config.variant]
    # The first HISTORY_DEPTH rows are the zero history before step 0.
    history = np.zeros((HISTORY_DEPTH + len(inputs), config.n_nodes))
    for k, s in enumerate(inputs, start=HISTORY_DEPTH):
        mixed = np.zeros(config.n_nodes)
        for lag in lags:
            mixed = mixed + history[k - lag]
        history[k] = np.tanh(w @ mixed + w_in * float(s))
    return history[HISTORY_DEPTH:]
