"""Linear readout layer: features, least-squares training, and scores.

Two feature layouts are supported. The per-qubit readout regresses the
target on every ``<Z_i>`` plus an intercept; the averaged readout uses only
the site-averaged magnetization plus an intercept. The averaged feature is
a linear combination of the per-qubit features, so on identical data the
per-qubit fit can never be worse on the training window.
"""
from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Relative eigenvalue cutoff below which normal-equation directions are
# treated as rank-deficient and dropped (minimum-norm solution).
RANK_CUTOFF = 1e-10


class ReadoutType(enum.IntEnum):
    PER_QUBIT = 1
    AVERAGED = 2


@dataclass(frozen=True)
class ReadoutWeights:
    """Trained weights (intercept first) with fit diagnostics."""

    w: np.ndarray
    residual_rms: float
    rank: int
    condition: float


def make_features(z_rows: np.ndarray, readout_type: ReadoutType) -> np.ndarray:
    """Assemble the regression matrix from per-step Z expectations.

    Per-qubit: columns (1, z_1, ..., z_n). Averaged: columns (1, mean_i z_i).
    """
    z_rows = np.asarray(z_rows, dtype=float)
    if z_rows.ndim != 2 or z_rows.shape[0] == 0:
        raise ValidationError(f"need a nonempty 2-d array, got shape {z_rows.shape}")
    ones = np.ones((z_rows.shape[0], 1))
    if ReadoutType(readout_type) is ReadoutType.PER_QUBIT:
        return np.hstack([ones, z_rows])
    return np.hstack([ones, z_rows.mean(axis=1, keepdims=True)])


def train_weights(features: np.ndarray, targets: np.ndarray,
                  ridge: float = 0.0) -> ReadoutWeights:
    """Least squares on the given rows: minimize ||Fw - y||^2 + ridge ||w||^2.

    Solved through the normal equations with an eigendecomposition of the
    (tiny) Gram matrix; eigenvalues below RANK_CUTOFF times the largest are
    dropped, which yields the minimum-norm solution when rank-deficient.
    """
    f = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if f.ndim != 2 or y.ndim != 1 or f.shape[0] != y.shape[0]:
        raise ValidationError(
            f"incompatible shapes: features {f.shape}, targets {y.shape}")
    if f.shape[0] < f.shape[1]:
        raise ValidationError("need at least as many rows as feature columns")
    if ridge < 0.0:
        raise ValidationError(f"ridge must be nonnegative, got {ridge}")

    gram = f.T @ f
    if ridge > 0.0:
        gram = gram + ridge * np.eye(gram.shape[0])
    rhs = f.T @ y
    evals, evecs = np.linalg.eigh(gram)
    cutoff = RANK_CUTOFF * max(evals[-1], 0.0)
    keep = evals > cutoff
    inv = np.where(keep, 1.0 / np.where(keep, evals, 1.0), 0.0)
    w = evecs @ (inv * (evecs.T @ rhs))
    rank = int(keep.sum())
    smallest_kept = evals[keep].min() if rank else np.inf
    condition = float(evals[-1] / smallest_kept) if rank else np.inf
    residual = f @ w - y
    return ReadoutWeights(
        w=w,
        residual_rms=float(np.sqrt(np.mean(residual**2))),
        rank=rank,
        condition=condition,
    )


def predict(weights: ReadoutWeights, features: np.ndarray) -> np.ndarray:
    """Row-wise dot product of features with the trained weights."""
    f = np.asarray(features, dtype=float)
    if f.ndim != 2 or f.shape[1] != weights.w.shape[0]:
        raise ValidationError(
            f"feature columns {f.shape} do not match {weights.w.shape[0]} weights")
    return f @ weights.w


def nmse(predicted: np.ndarray, target: np.ndarray) -> float:
    """Normalized mean squared error: sum (y - yhat)^2 / sum y^2."""
    yhat = np.asarray(predicted, dtype=float)
    y = np.asarray(target, dtype=float)
    if yhat.shape != y.shape or y.ndim != 1 or len(y) == 0:
        raise ValidationError("predicted and target must be equal-length vectors")
    denom = float(np.sum(y**2))
    if denom == 0.0:
        raise ValidationError("target is identically zero; error is undefined")
    return float(np.sum((y - yhat) ** 2)) / denom


def stm_capacity(predicted: np.ndarray, target: np.ndarray) -> float:
    """Squared Pearson correlation between prediction and target.

    A constant argument leaves the correlation undefined; the conservative
    capacity 0 is returned and a warning is issued.
    """
    yhat = np.asarray(predicted, dtype=float)
    y = np.asarray(target, dtype=float)
    if yhat.shape != y.shape or y.ndim != 1 or len(y) < 2:
        raise ValidationError("need two equal-length vectors of at least 2 entries")
    du = yhat - yhat.mean()
    dv = y - y.mean()
    su = float(du @ du)
    sv = float(dv @ dv)
    if su == 0.0 or sv == 0.0:
        warnings.warn("constant sequence: correlation undefined, capacity set to 0",
                      stacklevel=2)
        return 0.0
    r = float(du @ dv) / np.sqrt(su * sv)
    return min(r * r, 1.0)
