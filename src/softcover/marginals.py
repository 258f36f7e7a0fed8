"""Both error exponents at ``R > 0`` and ``tau <= 0`` and the interference
ceiling on two-output channels, by searches over the output marginal.

On a channel with outputs {0, 1} a conditional type is one number per input
with mass, ``u_x = V(0|x)``, and its output marginal one number, ``q = sum_x
P(x) u_x``. With ``i(x, y) = ln W(y|x) / P_Y(y)`` the level is
``max(D_m - D_c, E_V[i] - R)``. At ``R > 0`` and ``tau <= 0`` the
missed-detection exponent also requires the interference ceiling

    ceiling(q) = D(q || P_Y) - min {D_c : P V = q, I <= R}

(``-inf`` where no type of the fiber ``{P V = q}`` has ``I <= R``) to be at
most ``tau``. Where it is, the level test reduces to ``E_V[i] <= t = tau +
R``: a bulk type has ``D_m - D_c <= ceiling(q)``, and a sparse one ``D_m -
D_c = E_V[i] - I < E_V[i] - R``. So

    E_MD(tau) = min {F_t(q) : ceiling(q) <= tau},
    F_t(q) = min {D_c : P V = q, E_V[i] <= t}.

``F_t`` is convex, and its minimum over all ``q`` is Hoeffding's tilt at
``t`` (Blahut, IEEE Trans. IT 1974), with marginal ``q_s``. When the ceiling
at ``q_s`` is at most ``tau`` the tilt is the answer. Otherwise the answer
is the smaller ``F_t`` at the two points of ``{ceiling <= tau}`` nearest
``q_s``, one on each side: ``search`` finds them on a fixed lattice of
marginals and refines the bracket of each.

The false-alarm exponent minimizes ``D(q || P_Y) + [I - R]_+`` over types
of level at least ``tau``: the bulk piece ``{D_m - D_c >= tau}``, which
holds ``W``, and the sparse piece ``{E_V[i] >= t}``. A sparse type with
``I <= R`` has ``D_m - D_c = E_V[i] - I >= tau`` and lies in the bulk
piece, and over the sparse types with ``I >= R`` the cost is ``D(V || P_Y |
P) - R``, least at the false-alarm tilt at ``t`` when its ``I`` is at least
``R`` and otherwise on ``I = R``, in the bulk piece again. So the exponent
is the smaller of that tilt and

    min over q of D(q || P_Y) + [J(q) - R]_+,
    J(q) = min {I : P V = q, D_c <= D(q || P_Y) - tau},

a convex function of ``q`` (the bulk piece is convex, since ``D_m - D_c``
is concave), which ``false_alarm`` minimizes; ``J`` is the least ``I`` on
the fiber under a ceiling on ``D_c``.

All inner problems are I-projections onto a fiber (Csiszár, Ann. Probab.
1975). Rows whose support is one output are forced to it; the free rows of
every minimizer lie on one family ``u_x = sigmoid(a l_x + b)``, ``l_x =
logit W(0|x)``, where ``b`` meets the marginal and is a monotone scalar root.
The ceiling's minimizer has ``a = 1 / (1 + s)`` in (0, 1], ``s >= 0`` the
multiplier of ``I <= R``, and ``I`` rises with ``a``; ``F_t``'s has ``a <=
1``, and ``E_V[i]`` rises with ``a``; ``J``'s has ``a`` in [0, 1], where
``D_c`` falls as ``a`` rises. With one free row, as on the Z-channel, the
fiber is a point and everything is closed form.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .measures import kl_vec

_LATTICE = 257  # marginals per bracketing lattice
_ROUNDS = 5  # lattice refinements of each bracket
_STEPS = 200  # bound on the steps of a root search
_TINY = 1e-300  # below every positive probability that matters


def _logs(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``ln u`` and ``ln(1 - u)``, finite at 0 and 1, where they only
    multiply 0."""
    return np.log(np.maximum(u, _TINY)), np.log(np.maximum(1.0 - u, _TINY))


def _entropy(u: np.ndarray) -> np.ndarray:
    """Binary entropy in nats."""
    log_u, log_u1 = _logs(u)
    return -(u * log_u + (1.0 - u) * log_u1)


def _h(u: float) -> float:
    """``_entropy`` of one number."""
    return -((u * math.log(u) if u > 0 else 0.0)
             + ((1.0 - u) * math.log1p(-u) if u < 1 else 0.0))


def _root(fn, x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Elementwise root of an increasing ``fn`` (which returns the value and
    the slope) in the bracket ``[lo, hi]``, starting at ``x``, by Newton
    steps that fall back to bisection when they leave the bracket."""
    for _ in range(_STEPS):
        g, slope = fn(x)
        lo = np.where(g < 0, x, lo)
        hi = np.where(g > 0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - g / slope
        tol = 4 * np.spacing(np.abs(x) + 1.0)
        done = ((g == 0) | (hi - lo <= tol)
                | (np.isfinite(slope) & (np.abs(step - x) <= tol)))
        if done.all():
            break
        step = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
        x = np.where(done, x, step)
    return x


def _logsumexp(v: np.ndarray) -> np.ndarray:
    top = v.max(axis=-1)
    return top + np.log(np.exp(v - top[..., None]).sum(axis=-1))


def _log_sigmoid(z: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -z)


class Fibers:
    """The fibers ``{V : P V = q}`` of a two-output channel on its inputs
    with mass: ``rows`` are their rows of ``W``, ``support`` the mask of
    the positive entries, ``p`` their masses and ``p_y`` the output law.
    Rows with one output in their support are forced to it; the others are
    free, and ``u`` below stands for the free rows' ``V(0|x)``."""

    def __init__(self, rows: np.ndarray, support: np.ndarray, p: np.ndarray,
                 p_y: np.ndarray):
        free = support.all(axis=1)
        self.rows, self.support, self.free = rows, support, free
        # the range of q: the rows forced to output 0, and then every free
        # row too
        self.lo = float(p[support[:, 0] & ~free].sum())
        self.p = p[free]
        self.mass = float(self.p.sum())
        self.hi = self.lo + self.mass
        w0 = rows[free, 0]
        self.log_w = np.log(w0)
        self.log_w1 = np.log1p(-w0)
        self.logit = self.log_w - self.log_w1
        self.p_y = p_y
        with np.errstate(divide="ignore"):
            self.log_p_y = np.log(p_y)
        # E_V[i] = e0 + sum over free rows of p u c
        info = np.where(support, np.log(np.where(support, rows, 1.0))
                        - self.log_p_y, 0.0)
        forced = np.where(support[:, 0], info[:, 0], info[:, 1])
        self.e0 = float(p[~free] @ forced[~free] + self.p @ info[free, 1])
        self.c = info[free, 0] - info[free, 1]

    def _share(self, q: np.ndarray) -> np.ndarray:
        """The mean of the free rows' ``u`` at marginal ``q``, in [0, 1]."""
        if not self.mass:
            return np.zeros(q.shape)
        return np.minimum(np.maximum((q - self.lo) / self.mass, 0.0), 1.0)

    def min_info(self, q: np.ndarray) -> np.ndarray:
        """The least ``I`` over the fiber: every free row at the mean."""
        return np.maximum(_entropy(q) - self.mass * _entropy(self._share(q)),
                          0.0)

    def measures(self, q: np.ndarray, u: np.ndarray):
        """``D_c``, ``I`` and ``E_V[i]`` of the free rows ``u`` (last axis)
        at marginal ``q``."""
        log_u, log_u1 = _logs(u)
        d = u * (log_u - self.log_w) + (1.0 - u) * (log_u1 - self.log_w1)
        h = u * log_u + (1.0 - u) * log_u1
        return (np.maximum(d @ self.p, 0.0),
                np.maximum(_entropy(q) + h @ self.p, 0.0),
                self.e0 + u @ (self.p * self.c))

    def _mean_rows(self, q: np.ndarray) -> np.ndarray:
        """Every free row at the mean: the only type of a fiber with one
        free row, or at an end of the range."""
        return np.broadcast_to(self._share(q)[..., None],
                               q.shape + self.p.shape)

    def _family(self, q: np.ndarray, a: np.ndarray, b: np.ndarray):
        """The family's free rows ``sigmoid(a l + b)`` at slope ``a``
        through marginal ``q`` (strictly inside the range), with the offset
        ``b`` that puts them there (the argument ``b`` starts its search),
        ``db/da`` and each row's ``p u (1 - u)``."""
        share = self._share(q)
        target = np.log(share) - np.log1p(-share)
        log_p = np.log(self.p)
        al = a[..., None] * self.logit

        def odds(b):
            z = al + b[..., None]
            return _log_sigmoid(z), _log_sigmoid(-z)

        def fn(b):
            # the log-odds of the free rows' mean, less the target; its
            # slope lies in (0, 1]
            ls, ls1 = odds(b)
            up, down = _logsumexp(log_p + ls), _logsumexp(log_p + ls1)
            var = np.exp(ls + ls1) @ self.p
            return up - down - target, var * self.mass / np.exp(up + down)

        # so the root lies within the limits of b + that log-odds
        top = _logsumexp(log_p + al) - math.log(self.mass)
        bottom = math.log(self.mass) - _logsumexp(log_p - al)
        b = _root(fn, np.clip(b, target - top, target - bottom),
                  target - top, target - bottom)
        ls, ls1 = odds(b)
        weight = np.exp(ls + ls1) * self.p
        db = -(weight @ self.logit) / weight.sum(axis=-1)
        return np.exp(ls), b, db, weight

    def ceiling(self, q: np.ndarray, rate: float) -> np.ndarray:
        """``D(q || P_Y) - min {D_c : P V = q, I <= rate}`` at every
        marginal of ``q`` in the range, ``-inf`` where the fiber has no type
        with ``I <= rate``."""
        if self.p.size == 1:
            # one free row: with s_u = -m h(u) and s_q = -h(q), I = s_u -
            # s_q and D_m - D_c = s_q - s_u - (q, 1 - q) . ln P_Y
            # + m (u, 1 - u) . ln W
            u = self._share(q)
            log_q, log_q1 = _logs(q)
            log_u, log_u1 = _logs(u)
            s_u = self.mass * (u * log_u + (1.0 - u) * log_u1)
            s_q = q * log_q + (1.0 - q) * log_q1
            level = (s_q - s_u + self.mass * (self.log_w1 + u * self.logit)
                     - self.log_p_y[1]
                     - q * (self.log_p_y[0] - self.log_p_y[1]))
            return np.where(s_u - s_q <= rate, level, -np.inf)
        out = np.full(q.shape, -np.inf)
        inside = self.min_info(q) <= rate
        q_in = q[inside]
        d_c = self.measures(q_in, self._mean_rows(q_in))[0]
        mid = (q_in > self.lo) & (q_in < self.hi)
        if mid.any():
            d_c[mid] = self._ceiling_divergence(q_in[mid], rate)
        out[inside] = self.divergence(q_in) - d_c
        return out

    def _ceiling_divergence(self, q: np.ndarray, rate: float) -> np.ndarray:
        """``min {D_c : P V = q, I <= rate}`` inside the range, where the
        fiber's least ``I`` is at most ``rate``: at ``a = 1`` when its
        ``I`` is at most ``rate``, otherwise at the root of ``I(a) =
        rate``."""
        one = np.ones(q.shape)
        u, b, _, _ = self._family(q, one, np.zeros(q.shape))
        d_c, i_q, _ = self.measures(q, u)
        bind = i_q > rate
        if bind.any():
            qb = q[bind]
            d_c[bind] = self.measures(qb, self._info_rows(qb, b[bind],
                                                          rate))[0]
        return d_c

    def _info_rows(self, q: np.ndarray, start: np.ndarray, rate: float
                   ) -> np.ndarray:
        """The family's free rows at the slope ``a`` in (0, 1) where ``I =
        rate``, inside the range where ``I`` exceeds ``rate`` at ``a = 1``;
        ``start`` holds the offsets ``b`` of ``a = 1``."""
        def fn(a):
            nonlocal start
            u, start, db, weight = self._family(q, a, start)
            # dI/da = sum_x p_x logit(u_x) du_x/da
            log_u, log_u1 = _logs(u)
            slope = (weight * (log_u - log_u1)
                     * (self.logit + db[..., None])).sum(axis=-1)
            return self.measures(q, u)[1] - rate, slope

        one = np.ones(q.shape)
        a = _root(fn, one, np.zeros(q.shape), one)
        return self._family(q, a, start)[0]

    def divergence(self, q: np.ndarray) -> np.ndarray:
        """``D(q || P_Y)``."""
        return kl_vec(np.stack([q, 1.0 - q], axis=-1), self.p_y)

    def conditional(self, u: np.ndarray) -> np.ndarray:
        """The rows of the type whose free rows are ``u``."""
        rows = np.where(self.support, 1.0, 0.0)
        rows[self.free] = np.column_stack([u, 1.0 - u])
        return rows

    def ceiling_conditional(self, q: float, rate: float) -> np.ndarray:
        """The rows of ``argmin {D_c : P V = q, I <= rate}``, at a marginal
        of the range whose fiber holds a type with ``I <= rate``: the type
        at the mean when the fiber is a point, otherwise the family at ``a
        = 1`` or at the root of ``I(a) = rate``."""
        qa = np.array([q])
        if self.p.size < 2 or not self.lo < q < self.hi:
            return self.conditional(self._mean_rows(qa)[0])
        u, b, _, _ = self._family(qa, np.ones(1), np.zeros(1))
        if self.measures(qa, u)[1][0] > rate:
            u = self._info_rows(qa, b, rate)
        return self.conditional(u[0])

    def least_info(self, q: np.ndarray, cap: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
        """``min {I : P V = q, D_c <= cap}`` at every marginal of ``q`` in
        the range, ``+inf`` where no type of the fiber has ``D_c <= cap``,
        and the free rows of the minimizers. Along the family ``D_c`` falls
        and ``I`` rises with ``a`` in [0, 1], so the minimizer is every free
        row at the mean (``a = 0``) when that type qualifies, and otherwise
        the family at the root of ``D_c(a) = cap``."""
        u = np.array(self._mean_rows(q))
        d_c, info, _ = self.measures(q, u)
        info = np.where(d_c <= cap, info, np.inf)
        bind = np.flatnonzero((d_c > cap) & (q > self.lo) & (q < self.hi))
        if self.p.size < 2 or not bind.size:
            return info, u
        qb, cb = q[bind], cap[bind]
        one = np.ones(qb.shape)
        top, start, _, _ = self._family(qb, one, np.zeros(qb.shape))
        ok = self.measures(qb, top)[0] <= cb
        if not ok.any():
            return info, u
        qb, cb, start, bind = qb[ok], cb[ok], start[ok], bind[ok]

        def fn(a):
            nonlocal start
            v, start, db, weight = self._family(qb, a, start)
            # dD_c/da = sum_x p_x (logit(v_x) - l_x) dv_x/da
            log_v, log_v1 = _logs(v)
            slope = (weight * (log_v - log_v1 - self.logit)
                     * (self.logit + db[..., None])).sum(axis=-1)
            return cb - self.measures(qb, v)[0], -slope

        one = np.ones(qb.shape)
        a = _root(fn, one, np.zeros(qb.shape), one)
        u[bind] = self._family(qb, a, start)[0]
        info[bind] = self.measures(qb, u[bind])[1]
        return info, u

    def least_divergence(self, q: float, t: float) -> Optional[np.ndarray]:
        """The free rows of ``argmin {D_c : P V = q, E_V[i] <= t}``, None
        when no type of the fiber has ``E_V[i] <= t``: at ``a = 1`` when
        its ``E_V[i]`` is at most ``t``, otherwise at the root of ``E(a) =
        t`` below 1."""
        qa = np.array([q])
        if self.p.size == 1 or not self.lo < q < self.hi:
            u = self._mean_rows(qa)
            return u[0] if self.measures(qa, u)[2][0] <= t else None
        u, start, _, _ = self._family(qa, np.ones(1), np.zeros(1))
        if self.measures(qa, u)[2][0] <= t:
            return u[0]
        # as a falls to -inf the rows fill the mass in order of rising
        # logit, which gives the least E_V[i] on the fiber
        order = np.argsort(self.logit, kind="stable")
        filled = (q - self.lo) - np.concatenate(
            [[0.0], np.cumsum(self.p[order])[:-1]])
        floor = np.empty(self.p.shape)
        floor[order] = np.clip(filled / self.p[order], 0.0, 1.0)
        if self.e0 + floor @ (self.p * self.c) > t:
            return None
        # E(a) tends to that floor as a falls, so a = 1 - 2^k reaches t
        # for a small k unless t is within rounding of the floor
        for k in range(64):
            low = np.array([1.0 - 2.0 ** k])
            u, start, _, _ = self._family(qa, low, start)
            if self.measures(qa, u)[2][0] <= t:
                break
        else:
            return floor

        def fn(a):
            nonlocal start
            u, start, db, weight = self._family(qa, a, start)
            # dE/da = sum_x p_x c_x du_x/da
            slope = (weight * self.c * (self.logit + db[..., None])).sum(-1)
            return self.measures(qa, u)[2] - t, slope

        a = _root(fn, low, low, np.ones(1))
        return self._family(qa, a, start)[0][0]

    def _info(self, q: float) -> float:
        """``min_info`` of one marginal, without the clip at 0: the ``I``
        of its type when the fiber is a point."""
        share = min(max((q - self.lo) / self.mass, 0.0), 1.0)
        return _h(q) - self.mass * _h(share)

    def _info_slope(self, q: float) -> float:
        """The derivative of ``_info``, NaN at the ends of the range."""
        share = min(max((q - self.lo) / self.mass, 0.0), 1.0)
        if not (0 < share < 1 and 0 < q < 1):
            return math.nan
        return (math.log(share) - math.log1p(-share)
                - math.log(q) + math.log1p(-q))

    def level_candidates(self, rate: float) -> np.ndarray:
        """The rows of the types at the ends of the range and at the roots
        of ``min_info(q) = rate``: with at most one free row, the types
        where the level can be least."""
        q = np.array([self.lo, self.hi] + self.jumps(rate))
        return np.array([self.conditional(u) for u in self._mean_rows(q)])

    def jumps(self, rate: float) -> list[float]:
        """The marginals where the ceiling jumps to ``-inf``: the roots of
        ``min_info(q) = rate``. ``min_info`` is convex, least where the
        free rows' mean equals ``q``, so there are at most two; each is
        found on its side of that point by ``_scalar_root``."""
        if not 0.0 < self.mass < 1.0:
            return []
        bottom = min(max(self.lo / (1.0 - self.mass), self.lo), self.hi)
        found = []
        for a, b in ((self.lo, bottom), (self.hi, bottom)):
            # the gap is monotone on each side, so a root there needs
            # gap(a) > 0 >= gap(b)
            if self._info(a) - rate > 0 >= self._info(b) - rate:
                found.append(_scalar_root(lambda q: self._info(q) - rate,
                                          self._info_slope, a, b))
        return found


def _scalar_root(gap, slope, a: float, b: float) -> float:
    """A root of ``gap`` between ``a`` and ``b``, where ``gap(a) > 0 >=
    gap(b)``, by Newton steps on ``slope``, its derivative, that fall back
    to bisection when they leave the bracket."""
    q = 0.5 * (a + b)
    for _ in range(_STEPS):
        g = gap(q)
        if g > 0:
            a = q
        else:
            b = q
        s = slope(q) if g else math.inf
        step = q - g / s if s else math.nan
        if abs(step - q) <= 4 * math.ulp(q):
            break
        q = step if min(a, b) < step < max(a, b) else 0.5 * (a + b)
    return q


def search(fibers: Fibers, tau: float, rate: float, t: float, q_s: float
           ) -> Optional[np.ndarray]:
    """The free rows of the least ``F_t`` over ``{ceiling <= tau}`` when
    the ceiling at the tilt's marginal ``q_s`` exceeds ``tau``; None when
    that set holds no type with ``E_V[i] <= t``.

    ``F_t`` is convex and least at ``q_s``, so only the point of the set
    nearest ``q_s`` on each side can be the minimizer. A lattice of
    ``_LATTICE`` marginals over the range, with ``q_s`` and the ceiling's
    jumps on it (so that a thin piece next to a jump cannot fall between
    lattice points), brackets both; each bracket is then laid with a lattice
    of its own ``_ROUNDS`` times, keeping the point of the set nearest
    ``q_s``."""
    if fibers.mass <= 0:
        return None
    lattice = np.sort(np.concatenate([
        np.linspace(fibers.lo, fibers.hi, _LATTICE), fibers.jumps(rate),
        [q_s]]))
    ok = fibers.ceiling(lattice, rate) <= tau
    s = int(np.searchsorted(lattice, q_s))
    # each bracket as (point of the set, the next point toward q_s)
    brackets = []
    below = np.flatnonzero(ok[:s])
    if below.size:
        brackets.append(lattice[[below[-1], below[-1] + 1]])
    above = np.flatnonzero(ok[s + 1:]) + s + 1
    if above.size:
        brackets.append(lattice[[above[0], above[0] - 1]])
    if not brackets:
        return None
    ends = np.array(brackets)
    steps = np.linspace(0.0, 1.0, _LATTICE)
    rows = np.arange(len(ends))
    for _ in range(_ROUNDS):
        points = ends[:, :1] + steps * (ends[:, 1:] - ends[:, :1])
        ok = (fibers.ceiling(points.ravel(), rate) <= tau).reshape(
            points.shape)
        ok[:, 0] = True
        last = _LATTICE - 1 - np.argmax(ok[:, ::-1], axis=1)
        ends = np.column_stack([points[rows, last],
                                points[rows, np.minimum(last + 1,
                                                        _LATTICE - 1)]])
    best, best_value = None, math.inf
    for q in ends[:, 0]:
        u = fibers.least_divergence(float(q), t)
        if u is not None:
            value = fibers.measures(np.array([q]), u[None])[0][0]
            if value < best_value:
                best, best_value = u, value
    return best


def false_alarm(fibers: Fibers, tau: float, rate: float) -> np.ndarray:
    """The rows of the least ``D(q || P_Y) + [I - rate]_+`` over the bulk
    piece ``{D_m - D_c >= tau}`` (``tau <= 0``), which holds ``W``.

    Per marginal the least cost comes from the least ``I`` over the fiber's
    types with ``D_c <= D(q || P_Y) - tau`` (``Fibers.least_info``). That
    cost is convex in ``q``, so ``_least`` finds its minimizer ``q*``, or it
    is ``P_Y`` when the cost there is 0. When the least ``I`` at ``q*`` is
    at most ``rate`` every type of the fiber with ``I <= rate`` and level at
    least ``tau`` costs the same, and the one reported is the ceiling's
    minimizer, the type of largest level. ``W`` itself is the answer when
    its ``I`` is at most ``rate`` (cost 0), when it is the only type, and
    when nothing found costs less (at ``tau = 0`` it may be all the
    piece)."""
    p_y = np.array([fibers.p_y[0]])
    w_cost = fibers.measures(p_y, fibers.rows[fibers.free, 0][None])[1][0]
    w_cost -= rate
    if fibers.mass <= 0 or w_cost <= 0:
        return np.array(fibers.rows)
    if fibers.p.size == 1:
        q = np.array([_point_false_alarm(fibers, tau, rate)])
        return fibers.conditional(fibers._mean_rows(q)[0])

    def cost(q):
        d = fibers.divergence(q)
        info, u = fibers.least_info(q, d - tau)
        return d + np.maximum(info - rate, 0.0), info, u

    value, info, u = cost(p_y)
    q = p_y[0]
    if value[0] > 0:
        q = _least(lambda q: cost(q)[0], fibers.lo, fibers.hi, q)
        value, info, u = cost(np.array([q]))
    if not value[0] < w_cost:
        return np.array(fibers.rows)
    if info[0] <= rate:
        return fibers.ceiling_conditional(q, rate)
    return fibers.conditional(u[0])


def _point_false_alarm(fibers: Fibers, tau: float, rate: float) -> float:
    """``false_alarm``'s ``q*`` when the fiber is a point and the cost at
    ``P_Y`` is positive. The cost ``D(q || P_Y) + [I - rate]_+`` is convex,
    least at ``q_s``, the marginal with the free row at ``P_Y`` (the least
    ``D(q || P_Y) + I``), when ``I`` there is at least ``rate``, and
    otherwise where ``I = rate`` between ``q_s`` and ``P_Y``. The level
    ``D_m - D_c`` is concave, 0 at ``P_Y``, so ``{level >= tau}`` is an
    interval around ``P_Y``, and ``q*`` is the point of it nearest that
    least point."""
    p_y, mass = float(fibers.p_y[0]), fibers.mass
    shift = float(fibers.log_p_y[0] - fibers.log_p_y[1])
    logit = float(fibers.logit[0])

    def level(q):
        share = min(max((q - fibers.lo) / mass, 0.0), 1.0)
        return (mass * (float(fibers.log_w1[0]) + share * logit)
                - fibers._info(q) - float(fibers.log_p_y[1]) - q * shift)

    q = fibers.lo + mass * p_y
    if fibers._info(q) < rate:
        q = _scalar_root(lambda q: fibers._info(q) - rate,
                         fibers._info_slope, p_y, q)
    if level(q) < tau:
        q = _scalar_root(lambda q: tau - level(q),
                         lambda q: fibers._info_slope(q) + shift - logit,
                         q, p_y)
    return q


def _least(cost, lo: float, hi: float, start: float) -> float:
    """The point of ``[lo, hi]`` where the convex ``cost`` (``+inf`` off
    its domain, an interval that holds ``start``) is least: the best point
    of a lattice of ``_LATTICE`` marginals and ``start``, then ``_ROUNDS``
    times the best of a lattice over the two intervals next to it, with the
    best point so far."""
    points, best = np.linspace(lo, hi, _LATTICE), start
    for _ in range(_ROUNDS + 1):
        points = np.union1d(points, [best])
        j = int(np.argmin(cost(points)))
        best = float(points[j])
        points = np.linspace(points[max(j - 1, 0)],
                             points[min(j + 1, points.size - 1)], _LATTICE)
    return best
