"""Distributions, channels, joint types, and information measures on them.

Conventions used throughout the package:

* all information quantities are in nats (natural logarithms);
* ``0 * log 0 = 0`` and ``0 * log(0/0) = 0``; a positive mass against a zero
  reference gives ``+inf``;
* probabilities below ``SUPPORT_ATOL`` are treated as exact zeros when
  deciding support questions, which keeps floating-point dust from turning
  finite divergences into spurious infinities;
* extended reals are plain Python floats, with ``math.inf`` standing in for
  the infinite values.

Objects are validated once at construction and never mutated afterwards, so
everything in this module is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SUPPORT_ATOL = 1e-15
SUM_ATOL = 1e-12


class AlphabetMismatchError(ValueError):
    """Two objects that must share an alphabet have different sizes."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _validated_pmf(values, what: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be a 1-D probability vector")
    if arr.size < 2:
        raise ValueError(f"{what} needs an alphabet of size >= 2, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")
    if arr.min() < -SUPPORT_ATOL:
        raise ValueError(f"{what} contains a negative entry: {arr.min()}")
    arr[arr < SUPPORT_ATOL] = 0.0
    total = arr.sum()
    if abs(total - 1.0) > SUM_ATOL:
        raise ValueError(f"{what} sums to {total!r}, expected 1 within {SUM_ATOL}")
    return _freeze(arr)


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability vector on a finite alphabet of size >= 2."""

    probs: np.ndarray

    def __init__(self, probs):
        object.__setattr__(self, "probs", _validated_pmf(probs, "distribution"))

    @property
    def size(self) -> int:
        return self.probs.size

    @property
    def support(self) -> np.ndarray:
        return self.probs > SUPPORT_ATOL

    @classmethod
    def uniform(cls, size: int) -> "Distribution":
        return cls(np.full(size, 1.0 / size))


@dataclass(frozen=True, eq=False)
class Channel:
    """Row-stochastic transition matrix W(y|x) of a memoryless channel."""

    rows: np.ndarray
    support_mask: np.ndarray

    def __init__(self, rows):
        mat = np.array(rows, dtype=float)
        if mat.ndim != 2:
            raise ValueError("channel rows must form a 2-D matrix")
        if mat.shape[0] < 2 or mat.shape[1] < 2:
            raise ValueError("channel alphabets must both have size >= 2")
        for x in range(mat.shape[0]):
            mat[x] = _validated_pmf(mat[x], f"channel row {x}")
        mask = mat > SUPPORT_ATOL
        if not mask.any(axis=0).all():
            dead = int(np.flatnonzero(~mask.any(axis=0))[0])
            raise ValueError(f"output symbol {dead} is unreachable from every input")
        object.__setattr__(self, "rows", _freeze(mat))
        object.__setattr__(self, "support_mask", _freeze(mask))

    @property
    def num_inputs(self) -> int:
        return self.rows.shape[0]

    @property
    def num_outputs(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True, eq=False)
class JointType:
    """A joint distribution on X x Y given as a fixed input marginal plus
    conditional rows; the input marginal is shared with the channel's input
    distribution by construction, so only the conditional varies."""

    input_marginal: Distribution
    conditional: np.ndarray

    def __init__(self, input_marginal: Distribution, conditional):
        cond = np.array(conditional, dtype=float)
        if cond.ndim != 2:
            raise ValueError("conditional must be a 2-D matrix")
        if cond.shape[0] != input_marginal.size:
            raise AlphabetMismatchError(
                f"conditional has {cond.shape[0]} rows for an input alphabet "
                f"of size {input_marginal.size}")
        for x in range(cond.shape[0]):
            cond[x] = _validated_pmf(cond[x], f"conditional row {x}")
        object.__setattr__(self, "input_marginal", input_marginal)
        object.__setattr__(self, "conditional", _freeze(cond))

    @property
    def num_outputs(self) -> int:
        return self.conditional.shape[1]

    def output_marginal(self) -> Distribution:
        return Distribution(self.input_marginal.probs @ self.conditional)


# ---------------------------------------------------------------------------
# vectorized kernels; conditionals are (..., X, Y) stacks of row-stochastic
# matrices and all returned arrays drop the last one or two axes
# ---------------------------------------------------------------------------

def entropy_vec(p: np.ndarray) -> np.ndarray:
    """Shannon entropy along the last axis, in nats."""
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > SUPPORT_ATOL, p * np.log(p), 0.0)
    return -terms.sum(axis=-1)


def kl_vec(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL divergence along the last axis; +inf on support violation.

    Inputs are normalized probability vectors, so the result is clipped at
    zero to keep rounding dust from producing slightly negative divergences.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    p_pos = p > SUPPORT_ATOL
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p_pos, p * (np.log(p) - np.log(q)), 0.0)
    bad = (p_pos & (q <= SUPPORT_ATOL)).any(axis=-1)
    total = np.maximum(terms.sum(axis=-1), 0.0)
    return np.where(bad, np.inf, total)


def cond_entropy_vec(cond: np.ndarray, p_in: np.ndarray) -> np.ndarray:
    """H(Y|X) of conditional stacks weighted by the input distribution."""
    return np.einsum("...x,x->...", entropy_vec(cond), p_in)


def cond_kl_vec(cond: np.ndarray, w_rows: np.ndarray, p_in: np.ndarray) -> np.ndarray:
    """Input-weighted conditional KL divergence to the channel rows."""
    per_row = kl_vec(cond, w_rows)
    # 0 * inf must contribute 0: inputs with no mass cannot violate support
    with np.errstate(invalid="ignore"):
        weighted = np.where(p_in > SUPPORT_ATOL, per_row * p_in, 0.0)
    return weighted.sum(axis=-1)


def mix_vec(cond: np.ndarray, p_in: np.ndarray) -> np.ndarray:
    """Output marginal of conditional stacks under the input distribution."""
    return np.einsum("...xy,x->...y", cond, p_in)


def mutual_information_vec(cond: np.ndarray, p_in: np.ndarray) -> np.ndarray:
    q_y = mix_vec(cond, p_in)
    i = entropy_vec(q_y) - cond_entropy_vec(cond, p_in)
    return np.maximum(i, 0.0)


# ---------------------------------------------------------------------------
# scalar operations
# ---------------------------------------------------------------------------

def entropy(p: Distribution) -> float:
    """Shannon entropy of ``p`` in nats."""
    return float(entropy_vec(p.probs))


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """D(p || q) in nats; +inf when p puts mass outside the support of q."""
    if p.size != q.size:
        raise AlphabetMismatchError(f"alphabet sizes differ: {p.size} vs {q.size}")
    return float(kl_vec(p.probs, q.probs))


def conditional_kl(jt: JointType, w: Channel) -> float:
    """Input-weighted divergence between the conditional of ``jt`` and ``w``."""
    if jt.conditional.shape != w.rows.shape:
        raise AlphabetMismatchError(
            f"joint type shape {jt.conditional.shape} does not match channel "
            f"shape {w.rows.shape}")
    return float(cond_kl_vec(jt.conditional, w.rows, jt.input_marginal.probs))


def mutual_information(jt: JointType) -> float:
    """Mutual information of the joint type, clipped at zero."""
    return float(mutual_information_vec(jt.conditional, jt.input_marginal.probs))


def output_marginal(p_in: Distribution, w: Channel) -> Distribution:
    """Push the input distribution through the channel."""
    if p_in.size != w.num_inputs:
        raise AlphabetMismatchError(
            f"input distribution size {p_in.size} does not match channel "
            f"inputs {w.num_inputs}")
    return Distribution(p_in.probs @ w.rows)


def llr_level(jt: JointType, w: Channel, p_out: Distribution, rate: float) -> float:
    """Typical normalized log-likelihood-ratio level of outputs whose joint
    type with the transmitted codeword is ``jt``.

    The level is the output-marginal divergence minus the conditional
    divergence, plus the clipped mutual-information surplus over the codebook
    rate. It is ``-inf`` exactly when the conditional divergence is infinite,
    i.e. when the joint type is incompatible with the channel support.
    """
    if not (rate >= 0.0 and math.isfinite(rate)):
        raise ValueError(f"rate must be finite and >= 0, got {rate}")
    d_c = conditional_kl(jt, w)
    if math.isinf(d_c):
        return -math.inf
    d_m = kl_divergence(jt.output_marginal(), p_out)
    surplus = max(mutual_information(jt) - rate, 0.0)
    return d_m - d_c + surplus


def channel_surprisal(jt: JointType, w: Channel) -> float:
    """Expected per-symbol negative log channel likelihood under ``jt``.

    Equals the normalized negative log-probability that the channel assigns
    to any sequence pair with this joint type; +inf off the channel support.
    """
    h_ygx = float(cond_entropy_vec(jt.conditional, jt.input_marginal.probs))
    return h_ygx + conditional_kl(jt, w)
