"""Independent reference computations for the tests.

Everything here is deliberately written from scratch against the defining
formulas (closed-form binary expressions, dense scans, direct enumeration)
and never calls into the package solvers it is used to check; only the
package's result and joint-type classes and its branch tags are imported.
"""

import itertools
import math

import numpy as np

from softcover import Distribution, ExponentResult, JointType
from softcover.exponents import BULK, SPARSE


def hb(u):
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(u > 0, u * np.log(u), 0.0)
        b = np.where(u < 1, (1 - u) * np.log1p(-u), 0.0)
    return -(a + b)


def db(u, v):
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(u > 0, u * (np.log(u) - math.log(v)), 0.0)
        b = np.where(u < 1, (1 - u) * (np.log1p(-u) - math.log1p(-v)), 0.0)
    return a + b


# -------------------------------------------------------------- Z-channel
def z_measures(q, w=0.45):
    """Closed forms on the channel-compatible slice, parametrized by
    q = Q(0|1) with the clean-input row pinned at (1, 0)."""
    out0 = (1.0 + q) / 2.0
    d_m = db(out0, (1.0 + w) / 2.0)
    d_c = 0.5 * db(q, w)
    i_q = np.maximum(hb(out0) - 0.5 * hb(q), 0.0)
    return d_m, d_c, i_q


def z_scan_fa(tau, rate, w=0.45, grid=2_000_001):
    q = np.linspace(0.0, 1.0, grid)
    d_m, d_c, i_q = z_measures(q, w)
    lam = d_m - d_c + np.maximum(i_q - rate, 0.0)
    cost = d_m + np.maximum(i_q - rate, 0.0)
    masked = np.where(lam >= tau, cost, np.inf)
    j = int(np.argmin(masked))
    return float(masked[j]), float(q[j])


def z_scan_md(tau, rate, w=0.45, grid=2_000_001):
    q = np.linspace(0.0, 1.0, grid)
    d_m, d_c, i_q = z_measures(q, w)
    lam = d_m - d_c + np.maximum(i_q - rate, 0.0)
    if not float(lam.min()) < tau:
        return math.inf, None
    feas = lam <= tau
    if tau <= 0:
        ceiling = np.where(i_q <= rate, d_m - d_c, -np.inf)
        feas &= ceiling <= tau
    masked = np.where(feas, d_c, np.inf)
    j = int(np.argmin(masked))
    return float(masked[j]), float(q[j])


# ------------------------------------------------------------------- BSC
def bsc_measures(a, b, eps=0.1):
    """a = Q(1|0), b = Q(0|1) for a binary symmetric channel with uniform
    input; the null output law is uniform."""
    out0 = (1 - a + b) / 2
    d_m = db(out0, 0.5)
    d_c = 0.5 * (db(a, eps) + db(b, eps))
    i_q = np.maximum(hb(out0) - 0.5 * (hb(a) + hb(b)), 0.0)
    return d_m, d_c, i_q


def bsc_scan_r0(tau, eps=0.1, grid=2000):
    """Both rate-zero exponents by a dense 2-D scan."""
    g = np.linspace(0.0, 1.0, grid)
    best_fa = best_md = math.inf
    for a_chunk in np.array_split(g, 20):
        a, b = np.meshgrid(a_chunk, g, indexing="ij")
        d_m, d_c, i_q = bsc_measures(a, b, eps)
        lam = d_m - d_c + i_q
        m_fa = lam >= tau
        if m_fa.any():
            best_fa = min(best_fa, float(np.where(m_fa, d_m + i_q, np.inf).min()))
        m_md = lam <= tau
        if m_md.any():
            best_md = min(best_md, float(np.where(m_md, d_c, np.inf).min()))
    return best_fa, best_md


def bsc_scan_flat(rate, eps=0.1, grid=2000):
    """Unconstrained false-alarm minimum with the level of the first
    minimizer in scan order."""
    g = np.linspace(0.0, 1.0, grid)
    best = math.inf
    best_lam = None
    for a_chunk in np.array_split(g, 20):
        a, b = np.meshgrid(a_chunk, g, indexing="ij")
        d_m, d_c, i_q = bsc_measures(a, b, eps)
        cost = d_m + np.maximum(i_q - rate, 0.0)
        k = np.unravel_index(int(np.argmin(cost)), cost.shape)
        if cost[k] < best:
            best = float(cost[k])
            best_lam = float((d_m - d_c + np.maximum(i_q - rate, 0.0))[k])
    return best, best_lam


# ------------------------------------------- exact finite-n enumerations
def exact_probs_single_codeword(x, w_rows, p_out, tau):
    """Exact (alpha, beta) for one codeword by brute-force enumeration of
    every output sequence, using plain Python products."""
    n = len(x)
    ny = len(p_out)
    alpha = beta = 0.0
    for y in itertools.product(range(ny), repeat=n):
        p_null = 1.0
        p_mix = 1.0
        for xi, yi in zip(x, y):
            p_null *= p_out[yi]
            p_mix *= w_rows[xi][yi]
        if p_mix > 0 and p_null > 0:
            lam = (math.log(p_mix) - math.log(p_null)) / n
            accept = lam >= tau
        else:
            accept = False  # zero mixture rejects at any finite threshold
        if accept:
            alpha += p_null
        else:
            beta += p_mix
    return alpha, beta


def exact_probs_mixture(codewords, w_rows, p_out, tau):
    """Exact (alpha, beta) for a codebook of several codewords by brute-force
    enumeration: the mixture probability of an output is the plain average
    over codewords of the products of channel transition probabilities."""
    n = len(codewords[0])
    ny = len(p_out)
    alpha = beta = 0.0
    for y in itertools.product(range(ny), repeat=n):
        p_null = 1.0
        for yi in y:
            p_null *= p_out[yi]
        p_mix = 0.0
        for x in codewords:
            term = 1.0
            for xi, yi in zip(x, y):
                term *= w_rows[xi][yi]
            p_mix += term
        p_mix /= len(codewords)
        if p_mix > 0 and p_null > 0:
            accept = (math.log(p_mix) - math.log(p_null)) / n >= tau
        else:
            accept = False  # zero mixture rejects at any finite threshold
        if accept:
            alpha += p_null
        else:
            beta += p_mix
    return alpha, beta


def exact_probs_type_class_average(n, w_rows, p_in, p_out, tau):
    """Average the exact single-codeword probabilities over every codeword
    of the type class (uniform composition assumed binary here)."""
    ones = round(n * p_in[1])
    alphas, betas = [], []
    for pos in itertools.combinations(range(n), ones):
        x = [0] * n
        for i in pos:
            x[i] = 1
        a, b = exact_probs_single_codeword(x, w_rows, p_out, tau)
        alphas.append(a)
        betas.append(b)
    return (math.fsum(alphas) / len(alphas), math.fsum(betas) / len(betas)), \
        (max(alphas) - min(alphas), max(betas) - min(betas))


def _compositions(total, parts):
    """Every tuple of ``parts`` non-negative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def r0_type_class_sums(n, w_rows, p_in, tau):
    """Exact rate-0 error probabilities of the threshold test with one
    codeword of composition ``n * p_in``, summed over joint n-types, and the
    lattice exponents of the same types.

    Given the codeword, the statistic depends on y only through the joint
    counts N(a, b) of (x, y), and prod_a c_a! / prod_b N(a, b)! outputs share
    them. Returns ``(alpha, beta, e_fa_n, e_md_n)``: the null mass of the
    accepted classes, the channel mass of the rejected ones,
    min D(V || P_Y | P_X) over accepted types and min D(V || W | P_X) over
    rejected types, where V is the conditional type N(a, b) / c_a.
    """
    w = np.asarray(w_rows, dtype=float)
    p_in = np.asarray(p_in, dtype=float)
    p_out = p_in @ w
    comp = [round(n * p) for p in p_in]
    assert all(abs(n * p - c) <= 1e-9 for p, c in zip(p_in, comp)), \
        f"n = {n} does not carry the input law {p_in.tolist()} exactly"
    ny = w.shape[1]
    alpha, beta = [], []
    e_fa_n = e_md_n = math.inf
    for rows in itertools.product(*(_compositions(c, ny) for c in comp)):
        pairs = [(a, b, k) for a, row in enumerate(rows)
                 for b, k in enumerate(row) if k]
        if any(w[a, b] == 0 for a, b, _ in pairs):
            continue  # zero channel mass: rejected at any finite threshold
        log_size = sum(math.lgamma(c + 1) for c in comp) - sum(
            math.lgamma(k + 1) for row in rows for k in row)
        log_w = sum(k * math.log(w[a, b]) for a, b, k in pairs)
        log_p = sum(k * math.log(p_out[b]) for a, b, k in pairs)
        if (log_w - log_p) / n >= tau:
            alpha.append(math.exp(log_size + log_p))
            e_fa_n = min(e_fa_n, sum(k * math.log(k / comp[a] / p_out[b])
                                     for a, b, k in pairs) / n)
        else:
            beta.append(math.exp(log_size + log_w))
            e_md_n = min(e_md_n, sum(k * math.log(k / comp[a] / w[a, b])
                                     for a, b, k in pairs) / n)
    return math.fsum(alpha), math.fsum(beta), e_fa_n, e_md_n


def r0_class_levels(comp, w_rows, p_out):
    """Sorted distinct levels (log W - log P_Y) / n of the joint type
    classes of one codeword with symbol counts ``comp`` that carry channel
    mass."""
    n = sum(comp)
    ny = len(p_out)
    levels = set()
    for rows in itertools.product(*(_compositions(c, ny) for c in comp)):
        pairs = [(a, b, k) for a, row in enumerate(rows)
                 for b, k in enumerate(row) if k]
        if any(w_rows[a][b] == 0 for a, b, _ in pairs):
            continue
        levels.add(sum(k * (math.log(w_rows[a][b]) - math.log(p_out[b]))
                       for a, b, k in pairs) / n)
    return sorted(levels)


def single_codeword_joint_type_prob(y, comp, counts):
    """Probability that a uniform draw from the type class of ``comp`` has
    the given joint counts with ``y`` (exact rational arithmetic)."""
    n = len(y)
    ny = counts.shape[1]
    y_counts = [sum(1 for yi in y if yi == b) for b in range(ny)]
    ways = 1
    for b in range(ny):
        if sum(counts[:, b]) != y_counts[b]:
            return 0.0
        block = math.factorial(y_counts[b])
        for a in range(counts.shape[0]):
            block //= math.factorial(int(counts[a, b]))
        ways *= block
    total = math.factorial(n)
    for c in comp:
        total //= math.factorial(int(c))
    return ways / total


# ---------------------------------------------------------------------------
# closed-form Z-channel oracle: a 1-D exhaustive scan over q = Q(0|1) with
# the clean-input row pinned, used as an independent check on the generic
# solver
# ---------------------------------------------------------------------------

_Z_CACHE: dict[tuple[float, int], tuple[np.ndarray, ...]] = {}


def _z_slice(w_param: float, grid: int):
    key = (w_param, grid)
    if key not in _Z_CACHE:
        q = np.linspace(0.0, 1.0, grid)
        _Z_CACHE[key] = (q, *z_measures(q, w_param))
    return _Z_CACHE[key]


def _z_joint_type(q: float) -> JointType:
    return JointType(Distribution([0.5, 0.5]), [[1.0, 0.0], [q, 1.0 - q]])


def zchannel_oracle_fa(w_param: float, rate: float, tau: float,
                       grid: int = 1_000_000) -> ExponentResult:
    """Exhaustive 1-D false-alarm scan for the binary Z-channel with uniform
    input; independent of the generic grid solver."""
    if not 0.0 < w_param < 1.0:
        raise ValueError("w_param must lie in (0, 1)")
    q, d_m, d_c, i_q = _z_slice(w_param, grid)
    lam = d_m - d_c + np.maximum(i_q - rate, 0.0)
    cost = d_m + np.maximum(i_q - rate, 0.0)
    masked = np.where(lam >= tau, cost, np.inf)
    j = int(np.argmin(masked))
    if not math.isfinite(masked[j]):
        return ExponentResult(math.inf, None, None, False)
    branch = SPARSE if i_q[j] > rate else BULK
    return ExponentResult(float(masked[j]), _z_joint_type(float(q[j])),
                          branch, True)


def zchannel_oracle_md(w_param: float, rate: float, tau: float,
                       grid: int = 1_000_000) -> ExponentResult:
    """Exhaustive 1-D missed-detection scan for the binary Z-channel with
    uniform input, including the interference ceiling for ``tau <= 0``
    (on this slice the ceiling of a bulk point is its own level, and sparse
    output marginals admit no rate-feasible interferer)."""
    if not 0.0 < w_param < 1.0:
        raise ValueError("w_param must lie in (0, 1)")
    if not rate > 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    q, d_m, d_c, i_q = _z_slice(w_param, grid)
    lam = d_m - d_c + np.maximum(i_q - rate, 0.0)
    if not float(lam.min()) < tau:
        return ExponentResult(math.inf, None, None, False)
    feas = lam <= tau
    if tau <= 0:
        ceiling = np.where(i_q <= rate, d_m - d_c, -np.inf)
        feas &= ceiling <= tau
    masked = np.where(feas, d_c, np.inf)
    j = int(np.argmin(masked))
    if not math.isfinite(masked[j]):
        return ExponentResult(math.inf, None, None, False)
    branch = SPARSE if i_q[j] > rate else BULK
    return ExponentResult(float(masked[j]), _z_joint_type(float(q[j])),
                          branch, True)


def r0_binary_log_sums(n, w_rows, p_in, tau):
    """``(ln alpha, ln beta)`` of the rate-0 threshold test on a 2x2 channel
    with full support, summed in the log domain over the flip counts: k0 of
    the c0 positions with input 0 see output 1, and k1 of the c1 positions
    with input 1 see output 0. Such a class holds C(c0, k0) C(c1, k1)
    outputs; each term is the log of that size times the null or the
    channel probability of one of them, and the sums shift by the largest
    term before they exponentiate."""
    w = np.asarray(w_rows, dtype=float)
    p_in = np.asarray(p_in, dtype=float)
    p_out = p_in @ w
    c0 = round(n * p_in[0])
    c1 = n - c0
    log_fact = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    k0 = np.arange(c0 + 1)[:, None]
    k1 = np.arange(c1 + 1)[None, :]
    log_size = (log_fact[c0] - log_fact[k0] - log_fact[c0 - k0]
                + log_fact[c1] - log_fact[k1] - log_fact[c1 - k1])
    ones = k0 + c1 - k1
    log_w = ((c0 - k0) * math.log(w[0, 0]) + k0 * math.log(w[0, 1])
             + k1 * math.log(w[1, 0]) + (c1 - k1) * math.log(w[1, 1]))
    log_p = (n - ones) * math.log(p_out[0]) + ones * math.log(p_out[1])
    accept = (log_w - log_p) / n >= tau

    def log_sum(terms):
        top = terms.max()
        return top + math.log(math.fsum(np.exp(terms - top).tolist()))

    return (log_sum((log_size + log_p)[accept]),
            log_sum((log_size + log_w)[~accept]))


# ---------------------------------------------------------------------------
# Hoeffding's dual for the missed-detection half-space {E_V[i] <= t}, where
# i(x, y) = ln W(y|x) / P_Y(y): at rate 0, and at any rate for tau > 0, that
# half-space is the whole feasible set and the exponent equals the dual
# ---------------------------------------------------------------------------

def md_tilt_dual(rows, p_in, t):
    """sup_{s >= 0} -s t - sum_x P(x) ln sum_y W(y|x)^(1-s) P_Y(y)^s, with
    the inner sums over the support of W(.|x), maximized by bounded Brent;
    ``inf`` when t <= sum_x P(x) min_y i(x, y), where no type is feasible."""
    from scipy.optimize import minimize_scalar
    from scipy.special import logsumexp

    w = np.asarray(rows, dtype=float)
    p = np.asarray(p_in, dtype=float)
    p_y = p @ w
    live = [x for x in range(len(p)) if p[x] > 0]
    supports = [w[x] > 0 for x in live]
    log_w = [np.log(w[x][supp]) for x, supp in zip(live, supports)]
    log_p = [np.log(p_y[supp]) for supp in supports]
    i_min = sum(p[x] * float(np.min(lw - lp))
                for x, lw, lp in zip(live, log_w, log_p))
    if t <= i_min:
        return math.inf

    def dual(s):
        return -s * t - sum(p[x] * float(logsumexp((1 - s) * lw + s * lp))
                            for x, lw, lp in zip(live, log_w, log_p))

    # the dual is concave: once it stops growing from s to 2s, the
    # maximizer lies in [0, 2s]
    top = 1.0
    while dual(2 * top) > dual(top):
        top *= 2
    found = minimize_scalar(lambda s: -dual(s), bounds=(0.0, 2 * top),
                            method="bounded", options={"xatol": 1e-13})
    return max(dual(float(found.x)), dual(0.0))


def fa_tilt_dual(rows, p_in, t):
    """sup_{s >= 0} s t - sum_x P(x) ln sum_y P_Y(y)^(1-s) W(y|x)^s, with
    the inner sums over the support of W(.|x), maximized by bounded Brent:
    the least D(V || P_Y | P) over conditionals V inside the support of W
    whose mean of i = ln W / P_Y is at least t. ``inf`` when
    t > sum_x P(x) max_y i(x, y), where no type reaches t. At t equal to
    that edge the supremum is only approached as s grows without bound, so
    callers check the edge against its limit instead."""
    from scipy.optimize import minimize_scalar
    from scipy.special import logsumexp

    w = np.asarray(rows, dtype=float)
    p = np.asarray(p_in, dtype=float)
    p_y = p @ w
    live = [x for x in range(len(p)) if p[x] > 0]
    supports = [w[x] > 0 for x in live]
    log_w = [np.log(w[x][supp]) for x, supp in zip(live, supports)]
    log_p = [np.log(p_y[supp]) for supp in supports]
    i_max = sum(p[x] * float(np.max(lw - lp))
                for x, lw, lp in zip(live, log_w, log_p))
    if t > i_max:
        return math.inf

    def dual(s):
        return s * t - sum(p[x] * float(logsumexp((1 - s) * lp + s * lw))
                           for x, lw, lp in zip(live, log_w, log_p))

    # the dual is concave: once it stops growing from s to 2s, the
    # maximizer lies in [s / 2, 2s] (in [0, 2] for s = 1). Near the edge the
    # maximizer is large and the dual flat, and a tight bracket keeps the
    # search accurate there
    top = 1.0
    while top < 2.0 ** 20 and dual(2 * top) > dual(top):
        top *= 2
    found = minimize_scalar(lambda s: -dual(s),
                            bounds=(0.0 if top == 1 else top / 2, 2 * top),
                            method="bounded", options={"xatol": 1e-13})
    return max(dual(float(found.x)), dual(0.0))


# ---------------------------------------------------------------------------
# interference ceiling of a two-input, two-output channel by a dense scan of
# the fiber segment {V : P V = q}
# ---------------------------------------------------------------------------

def _binary_kl(u, v):
    """d(u || v) elementwise over ``u`` for one reference ``v`` in [0, 1];
    ``inf`` where ``u`` puts mass where ``v`` has none."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(u > 0, u * (np.log(u) - np.log(v)), 0.0)
        b = np.where(u < 1, (1 - u) * (np.log1p(-u) - np.log1p(-v)), 0.0)
    return a + b


def fiber_ceiling_scan(rows, p_in, q0, rate, grid=200_001):
    """``D(q || P_Y) - min {D_c : P V = q, I <= rate}`` at the output
    marginal ``q = (q0, 1 - q0)`` of a channel with two inputs (both with
    mass) and two outputs, ``-inf`` when no scanned type has ``I <= rate``.

    The fiber is a segment: ``u0 = V(0|0)`` runs over ``grid`` points of
    the interval that keeps ``u1 = (q0 - P(0) u0) / P(1)`` in [0, 1], ends
    included. The scan takes the least ``D_c`` over a finite subset of the
    rate-feasible types, so it can only underestimate the ceiling."""
    w = np.asarray(rows, dtype=float)
    p = np.asarray(p_in, dtype=float)
    p_y0 = float(p @ w[:, 0])
    lo = max(0.0, (q0 - p[1]) / p[0])
    hi = min(1.0, q0 / p[0])
    u0 = np.linspace(lo, hi, grid)
    u1 = np.clip((q0 - p[0] * u0) / p[1], 0.0, 1.0)
    d_c = p[0] * _binary_kl(u0, w[0, 0]) + p[1] * _binary_kl(u1, w[1, 0])
    i_q = hb(q0) - p[0] * hb(u0) - p[1] * hb(u1)
    feasible = np.isfinite(d_c) & (i_q <= rate)
    if not feasible.any():
        return -math.inf
    return float(_binary_kl(q0, p_y0)) - float(d_c[feasible].min())
