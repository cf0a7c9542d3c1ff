"""Benchmark sequences: delayed-recall streams and NARMA-n system output.

The delayed-recall task feeds the reservoir an i.i.d. binary stream and
asks it to reproduce the input from a given number of steps earlier. The
NARMA task drives a fixed triple-sine input through the standard NARMA-n
recurrence and asks the readout to track the recurrence output.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError, DivergenceError
from .rng import Stream

# Standard NARMA-n recurrence coefficients; module-level so variant
# recurrences can be explored by monkeypatching in analysis scripts.
NARMA_FEEDBACK_GAIN = 0.3
NARMA_MEMORY_GAIN = 0.05
NARMA_INPUT_GAIN = 1.5
NARMA_OFFSET = 0.1

# Triple-sine input tones and common period.
NARMA_TONES = (2.11, 3.73, 4.11)
NARMA_PERIOD = 100.0

# Recurrence values past this magnitude indicate mis-scaled inputs.
DIVERGENCE_LIMIT = 10.0

NARMA_ORDERS = (2, 5, 10, 15, 20)


def sized_array(make, size) -> np.ndarray:
    """``make(size)``, an array sized by the configuration; MemoryError, as
    for a size no memory holds, for a size past numpy's largest array."""
    try:
        return make(size)
    except ValueError as exc:  # "Maximum allowed dimension exceeded", ...
        raise MemoryError(str(exc)) from None


def gen_stm(length: int, seed: int) -> np.ndarray:
    """Seeded i.i.d. binary input stream of the delayed-recall task."""
    if length < 1:
        raise ConfigError("length must be positive")
    drive = sized_array(np.empty, length)  # first: too long fails at once
    drive[:] = Stream(seed).bits(length)
    return drive


def gen_narma_input(length: int) -> np.ndarray:
    """Deterministic triple-sine drive, always within [0, 0.2]."""
    if length < 1:
        raise ConfigError("length must be positive")
    k = sized_array(np.arange, length)
    prod = np.ones(length)
    for tone in NARMA_TONES:
        prod *= np.sin(2.0 * np.pi * tone * k / NARMA_PERIOD)
    return 0.1 * (prod + 1.0)


def gen_narma_target(inputs: np.ndarray, order: int) -> np.ndarray:
    """NARMA-n output for the given drive, aligned so targets[k] = y_k.

    y_{k+1} = 0.3 y_k + 0.05 y_k (sum of the last n outputs)
              + 1.5 s_{k-n+1} s_k + 0.1

    with zero-padded history. Raises DivergenceError if |y| exceeds
    DIVERGENCE_LIMIT, which signals inputs outside the intended scale.
    """
    s = np.asarray(inputs, dtype=float)
    if s.ndim != 1 or len(s) == 0:
        raise ConfigError("inputs must be a nonempty vector")
    if order < 2:
        raise ConfigError(f"NARMA order must be at least 2, got {order}")
    length = len(s)
    y = np.zeros(length)
    for k in range(length - 1):
        window = y[max(0, k - order + 1): k + 1].sum()
        s_old = s[k - order + 1] if k - order + 1 >= 0 else 0.0
        y[k + 1] = (NARMA_FEEDBACK_GAIN * y[k]
                    + NARMA_MEMORY_GAIN * y[k] * window
                    + NARMA_INPUT_GAIN * s_old * s[k]
                    + NARMA_OFFSET)
        if abs(y[k + 1]) > DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"recurrence output {y[k + 1]:.3g} at step {k + 1}; "
                "inputs are outside the intended scale")
    return y
