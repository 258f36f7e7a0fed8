"""Independent references the benchmark checks the package against.

Everything here is written from the defining formulas with plain numpy and
never calls the package's solvers: a dense 1-D scan for the Z-channel with
uniform input (the only channel-compatible joint types are
``[[1, 0], [q, 1 - q]]``), a joint-type-class sum for exact rate-0 error
probabilities of a binary-input binary-output channel, and a coarse-grid
upper bound on the smallest likelihood-ratio level of a 2x3 channel, used
only to draw thresholds.
"""

from __future__ import annotations

import math

import numpy as np


def _xlogy(x, y):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0) / y), 0.0)


def _hb(u):
    return -(_xlogy(u, 1.0) + _xlogy(1.0 - u, 1.0))


def _db(u, v):
    return _xlogy(u, v) + _xlogy(1.0 - u, 1.0 - v)


class ZChannelScan:
    """Dense scan over q = Q(0|1) for the Z-channel ``[[1, 0], [w, 1 - w]]``
    with uniform input; values in nats, ``inf`` when nothing is feasible."""

    def __init__(self, w: float, grid: int = 200_001):
        q = np.linspace(0.0, 1.0, grid)
        out0 = (1.0 + q) / 2.0
        self.d_m = _db(out0, (1.0 + w) / 2.0)
        self.d_c = 0.5 * _db(q, w)
        self.i_q = np.maximum(_hb(out0) - 0.5 * _hb(q), 0.0)
        self.i_xy = float(_hb((1.0 + w) / 2.0) - 0.5 * _hb(w))

    def level(self, rate: float) -> np.ndarray:
        return self.d_m - self.d_c + np.maximum(self.i_q - rate, 0.0)

    def lambda_min(self, rate: float) -> float:
        return float(self.level(rate).min())

    def tau_star(self, rate: float) -> float:
        return max(0.0, self.i_xy - rate)

    def fa(self, tau: float, rate: float) -> float:
        cost = self.d_m + np.maximum(self.i_q - rate, 0.0)
        return float(np.where(self.level(rate) >= tau, cost, np.inf).min())

    def md(self, tau: float, rate: float) -> float:
        lam = self.level(rate)
        if not lam.min() < tau:
            return math.inf
        feasible = lam <= tau
        if tau <= 0:
            # on this slice the interference ceiling of a rate-feasible type
            # is its own level; other output marginals admit no interferer
            ceiling = np.where(self.i_q <= rate, self.d_m - self.d_c, -np.inf)
            feasible &= ceiling <= tau
        return float(np.where(feasible, self.d_c, np.inf).min())


def quantized_counts(n: int, p_in) -> list[int]:
    """Nearest-integer composition with a largest-remainder fix."""
    raw = [n * p for p in p_in]
    counts = [math.floor(r) for r in raw]
    order = sorted(range(len(raw)), key=lambda i: counts[i] - raw[i])
    for i in order[:n - sum(counts)]:
        counts[i] += 1
    return counts


def r0_error_probs(n: int, rows, p_in, tau: float) -> tuple[float, float]:
    """Exact (alpha, beta) of the rate-0 threshold test with one codeword of
    the quantized type, summed over joint type classes instead of the 2^n
    output sequences. ``rows`` is a 2x2 channel matrix."""
    rows = np.asarray(rows, dtype=float)
    p_out = np.asarray(p_in, dtype=float) @ rows
    n0, n1 = quantized_counts(n, p_in)
    with np.errstate(divide="ignore"):
        log_w = np.log(rows)
        log_p = np.log(p_out)
    alpha, beta = [], []
    for k0 in range(n0 + 1):        # outputs 0 among the n0 positions x = 0
        for k1 in range(n1 + 1):    # outputs 0 among the n1 positions x = 1
            size = math.comb(n0, k0) * math.comb(n1, k1)
            with np.errstate(invalid="ignore"):
                lw = (_term(k0, log_w[0, 0]) + _term(n0 - k0, log_w[0, 1])
                      + _term(k1, log_w[1, 0]) + _term(n1 - k1, log_w[1, 1]))
            lp = (k0 + k1) * log_p[0] + (n - k0 - k1) * log_p[1]
            if math.isfinite(lw) and (lw - lp) / n >= tau:
                alpha.append(size * math.exp(lp))
            elif math.isfinite(lw):
                beta.append(size * math.exp(lw))
    return math.fsum(alpha), math.fsum(beta)


def _term(count: int, log_prob: float) -> float:
    return 0.0 if count == 0 else count * float(log_prob)


def lambda_min_upper_bound(rows: np.ndarray, p_in: np.ndarray, rate: float,
                           grid: int = 11) -> float:
    """Smallest level of a 2x3 channel over a coarse lattice of conditional
    rows. A minimum over a subset, so it never lies below the true minimum."""
    t = np.linspace(0.0, 1.0, grid)
    a, b = np.meshgrid(t, t, indexing="ij")
    keep = a + b <= 1.0 + 1e-12
    cand = np.column_stack([np.clip(1.0 - a[keep] - b[keep], 0.0, 1.0),
                            a[keep], b[keep]])
    cond = np.stack(np.broadcast_arrays(cand[:, None, :], cand[None, :, :]),
                    axis=2).reshape(-1, 2, 3)
    q_y = np.einsum("x,kxy->ky", p_in, cond)
    p_y = p_in @ rows
    d_m = _xlogy(q_y, p_y).sum(axis=1)
    d_c = np.einsum("x,kx->k", p_in, _xlogy(cond, rows[None]).sum(axis=2))
    neg_h_cond = np.einsum("x,kx->k", p_in, _xlogy(cond, 1.0).sum(axis=2))
    i_q = np.maximum(neg_h_cond - _xlogy(q_y, 1.0).sum(axis=1), 0.0)
    return float((d_m - d_c + np.maximum(i_q - rate, 0.0)).min())
