"""Variational error-exponent solvers over joint-type space.

The false-alarm exponent minimizes ``D_m(Q_Y) + [I_Q(X;Y) - R]_+`` over joint
types whose likelihood-ratio level stays above the decision threshold; the
missed-detection exponent minimizes the conditional divergence ``D_c`` over
types whose level falls below it, with an extra interference ceiling active
at non-positive thresholds.

With ``i(x, y) = ln W(y|x) / P_Y(y)`` the level is
``max(D_m - D_c, E_V[i] - R)``, and ``D_m <= D_c`` by data processing. So
at ``tau > 0``, and at every threshold when ``R = 0``, the missed-detection
feasible set is the half-space ``E_V[i] <= tau + R`` and the false-alarm
one the half-space ``E_V[i] >= tau + R``. The missed-detection minimum is
Hoeffding's tilt ``V_s(y|x) ∝ W(y|x) exp(-s i(x, y))`` at the ``s`` where
the mean of ``i`` meets ``tau + R`` (Blahut, IEEE Trans. IT 1974). Since
``E_V[i] = D_m - D_c + I_V``, ``I_V >= E_V[i]``: every false-alarm feasible
type at ``tau > 0`` has ``I_V > R``, so its cost is ``D(V || P_Y | P) - R``,
minimized by the tilt ``V_s(y|x) ∝ P_Y(y) exp(s i(x, y))``; the set is empty
beyond the edge ``sum_x P(x) max_y i(x, y)``, where the level maximum
``[edge - R]_+`` lies. Both tilts are found exactly by one 1-D root search
with no grid, so the solver configuration has no effect there. On a
channel with two outputs the output marginal is one number, and at ``R >
0`` and ``tau <= 0`` both exponents and the interference level are exact
too (``marginals``): the gated missed-detection exponent is the tilt at
``tau + R`` when the interference ceiling at its output marginal is at
most ``tau``, otherwise a search over the output marginal; the
false-alarm exponent is the smaller of the false-alarm tilt at ``tau +
R``, when its mutual information exceeds ``R``, and a convex search over
the output marginal of the bulk piece ``D_m - D_c >= tau``. The grid below
serves both exponents at ``R > 0`` and ``tau <= 0`` and the interference
level on channels with three or more outputs, and on every channel the
level minima (``lambda_extrema``, the phase layer and the infinite edge of
gated missed detection on three or more outputs) and the bulk branch's
level maximum.

The generic solver lays a dense grid over the free conditional coordinates
(one simplex per input symbol), splits the non-smooth clipped rate term into
the bulk branch (``I_Q <= R``) and the sparse branch (``I_Q >= R``), and
polishes each branch's incumbent with successively shrunken boxes. Every
solve runs several tasks in lockstep, each a (objective, branch) pair with
its own seeds and its own boxes: the two branches of an exponent, or the
four level extrema of a rate (the minimum over both branches and within
each, and the bulk branch's maximum). Every block of candidates (the seeds
of all tasks, each base-grid block, each polish round's boxes around all
incumbents) is measured, masked and gated once, and each task then takes
the argmin of its own objective on its own part under its own ``I_Q`` test.
A polish round builds its candidates in one pass: one grid call for all
boxes, one filter over all of them and one product per incumbent.
``Problem`` holds one (channel, input, rate, configuration) and solves both
exponents, the level extrema and the interference level with one masked
argmin (``_scan``) and one shrinking-box loop (``_polish``); the public
functions build one per call. The base-grid measure arrays do not depend on
the rate or the threshold; they are kept per channel, input and grid in
``_BUNDLES``, a ``_memo.Memo`` (the package's one locked, byte-bounded LRU)
of at most 256 MiB. The level extrema are kept per channel, input, rate and
configuration in ``_EXTREMA``, another ``Memo`` of at most 64 KiB, so that
the false-alarm and the missed-detection solve at one rate share them.
Joint types that violate the channel support carry an infinite conditional
divergence and a level of ``-inf``, so they are never feasible; that is what
produces the strictly positive false-alarm floor on singular channels such as
the Z-channel. The candidate lists drop them before any measure is computed.

Determinism: candidates are scanned in a fixed row-major order, the first
incumbent wins ties, and refinement only replaces an incumbent on a strict
improvement.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import marginals
from ._memo import Memo
from .measures import (
    SUPPORT_ATOL,
    Channel,
    Distribution,
    JointType,
    cond_kl_vec,
    kl_vec,
    mix_vec,
    mutual_information_vec,
    output_marginal,
)

_BRANCH_TOL = 1e-12
_CHUNK_ROWS = 1 << 18
_SIMPLEX_TOL = 1e-9
_DELTA_QUANT = 6  # decimal places used to memoize the interference ceiling
_TILT_STEPS = 200  # bound on the Newton and bisection steps of a tilt root
_POLISH_ROUNDS = 4  # shrinking-box passes after the base grid
_POLISH_SHRINK = 0.1  # box width ratio from one polish round to the next

BULK = "bulk"
SPARSE = "sparse"


@dataclass(frozen=True)
class SolverConfig:
    """Grid-and-polish solver settings: ``grid_points_per_dim`` samples per
    free conditional coordinate of the base grid. The polish schedule after
    it is fixed (``_POLISH_ROUNDS``, ``_POLISH_SHRINK``)."""

    grid_points_per_dim: int = 401

    def __post_init__(self):
        if self.grid_points_per_dim < 17:
            raise ValueError("grid_points_per_dim must be >= 17")


def default_config(w: Channel) -> SolverConfig:
    """Pick a grid density suited to the channel's free dimension count."""
    dims = w.num_inputs * (w.num_outputs - 1)
    if dims <= 2:
        pts = 401
    elif dims == 3:
        pts = 61
    elif dims == 4:
        pts = 25
    elif dims <= 6:
        pts = 17
    else:
        raise ValueError(
            f"default configuration supports at most 6 free dimensions, the "
            f"channel has {dims}; pass an explicit SolverConfig")
    return SolverConfig(grid_points_per_dim=pts)


@dataclass(frozen=True)
class ExponentResult:
    """Outcome of one exponent minimization.

    ``value`` is in nats and is ``+inf`` exactly when the feasible set is
    empty, in which case no minimizer or branch tag is reported.
    """

    value: float
    minimizer: Optional[JointType]
    branch: Optional[str]
    feasible: bool

    def __post_init__(self):
        infeasible = math.isinf(self.value) and self.value > 0
        if infeasible != (not self.feasible) or infeasible != (self.minimizer is None):
            raise ValueError("inconsistent ExponentResult: value/feasible/minimizer")


class _RatedBundle(NamedTuple):
    cond: np.ndarray
    q_y: np.ndarray
    d_m: np.ndarray
    d_c: np.ndarray
    i_q: np.ndarray
    lam: np.ndarray


class _Law(NamedTuple):
    """What ``_measures`` needs of a channel and an input law: the input
    law, the mask of the inputs with mass, and the reference rows of the
    divergences, the channel's rows and then ``P_Y``, with their logarithms
    (``-inf`` at zeros) and the mask of their zeros."""

    p_in: np.ndarray
    live: np.ndarray
    log_ref: np.ndarray
    null_ref: np.ndarray


def _law(w_rows: np.ndarray, p_in: np.ndarray, p_out: np.ndarray) -> _Law:
    ref = np.vstack([w_rows, p_out])
    with np.errstate(divide="ignore"):
        log_ref = np.log(ref)
    return _Law(p_in, p_in > SUPPORT_ATOL, log_ref, ref <= SUPPORT_ATOL)


# The kernels below give the floats of the ones in ``measures`` (``mix_vec``,
# ``kl_vec``, ``cond_kl_vec``, ``entropy_vec``, ``cond_entropy_vec``) with
# fewer numpy calls: numpy sums fewer than eight terms one by one onto 0.0,
# and slices do the same without the per-row cost of a reduction over a
# short axis.

def _sum_last(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1)``, the same floats."""
    if a.shape[-1] >= 8:
        return a.sum(axis=-1)
    total = 0.0 + a[..., 0]
    for j in range(1, a.shape[-1]):
        total = total + a[..., j]
    return total


def _any_last(a: np.ndarray) -> np.ndarray:
    """``a.any(axis=-1)`` of a boolean array."""
    return functools.reduce(np.logical_or, (a[..., j]
                                            for j in range(a.shape[-1])))


def _mix(cond: np.ndarray, p_in: np.ndarray) -> np.ndarray:
    """``mix_vec(cond, p_in)``, the same floats: its einsum too adds the
    inputs' terms one by one onto 0.0."""
    q_y = 0.0 + cond[..., 0, :] * p_in[0]
    for x in range(1, cond.shape[-2]):
        q_y = q_y + cond[..., x, :] * p_in[x]
    return q_y


def _measures(cond: np.ndarray, q_y: np.ndarray, law: _Law
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``D(q_y || P_Y)``, ``D_c`` and ``I_Q`` of the conditionals ``cond``
    with output marginal ``q_y`` (of the same leading shape), from one
    logarithm of the rows of both: the divergence and the entropy of every
    row come out of one pass."""
    rows = np.concatenate([cond, q_y[..., None, :]], axis=-2)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_r = np.log(rows)
        pos = rows > SUPPORT_ATOL
        kl = np.maximum(_sum_last(np.where(
            pos, rows * (log_r - law.log_ref), 0.0)), 0.0)
        kl = np.where(_any_last(pos & law.null_ref), np.inf, kl)
        ent = -_sum_last(np.where(pos, rows * log_r, 0.0))
        d_c = _sum_last(np.where(law.live, kl[..., :-1] * law.p_in, 0.0))
    i_q = np.maximum(
        ent[..., -1] - np.einsum("...x,x->...", ent[..., :-1], law.p_in), 0.0)
    return kl[..., -1], d_c, i_q


class _Bundle:
    """Measure arrays for a block of candidate conditionals. Everything here
    is threshold- and rate-independent, so grid bundles can be cached per
    channel and reused across solver calls; ``at_rate`` attaches the level."""

    __slots__ = ("cond", "q_y", "d_m", "d_c", "i_q")

    def __init__(self, cond: np.ndarray, law: _Law):
        self.cond = cond
        self.q_y = _mix(cond, law.p_in)
        self.d_m, self.d_c, self.i_q = _measures(cond, self.q_y, law)

    @property
    def nbytes(self) -> int:
        return sum(getattr(self, name).nbytes for name in self.__slots__)

    def at_rate(self, rate: float) -> _RatedBundle:
        with np.errstate(invalid="ignore"):
            raw = self.d_m - self.d_c + np.maximum(self.i_q - rate, 0.0)
        lam = np.where(np.isfinite(self.d_c), raw, -np.inf)
        return _RatedBundle(self.cond, self.q_y, self.d_m, self.d_c,
                            self.i_q, lam)


def _row_grid(ny: int, g: int, lo=None, hi=None
              ) -> tuple[np.ndarray, np.ndarray]:
    """Candidate stochastic rows of every box, shape ``(boxes, g ** (ny -
    1), ny)``, and the mask of those on the simplex: coordinates 1..ny-1
    are gridded over the box's per-coordinate bounds (rows of ``lo`` and
    ``hi``, by default the one unit box) with the first coordinate slowest,
    and coordinate 0 absorbs the remainder."""
    lo = np.zeros((1, ny - 1)) if lo is None else lo
    hi = np.ones((1, ny - 1)) if hi is None else hi
    # np.linspace(lo, hi, g) of each box and coordinate, in its arithmetic
    # but without its per-call overhead: (box, coord, g)
    axes = np.arange(g) * ((hi - lo) / (g - 1))[..., None] + lo[..., None]
    axes[..., -1] = hi
    idx = np.indices((g,) * (ny - 1)).reshape(ny - 1, -1)
    free = axes[:, np.arange(ny - 1)[:, None], idx].transpose(0, 2, 1)
    head = 1.0 - _sum_last(free)
    rows = np.concatenate([np.clip(head, 0.0, 1.0)[..., None], free], axis=-1)
    return rows, head >= -_SIMPLEX_TOL


def _kept(rows: np.ndarray, keep, outside: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray]:
    """One filter over the candidate rows of several products: ``rows``
    broadcasts to ``(products, inputs, n, ny)``, ``keep`` to its first three
    axes, and ``outside[x]`` marks the outputs input ``x`` may not put mass
    above ``SUPPORT_ATOL`` on. Returns the kept rows end to end in their
    order (product, then input, then row) and their counts per product and
    input, the arguments of ``_joint_chunks``."""
    keep = keep & ~_any_last((rows > SUPPORT_ATOL) & outside[:, None, :])
    rows = np.broadcast_to(rows, keep.shape + rows.shape[-1:])
    return rows[keep], keep.sum(axis=-1)


def _joint_chunks(rows: np.ndarray, counts: np.ndarray
                  ) -> Iterator[tuple[np.ndarray, list[tuple[int, int, int]]]]:
    """Cartesian products of per-input row candidates, each in row-major
    order (first input slowest), laid end to end and yielded in blocks of at
    most ``_CHUNK_ROWS`` rows. ``rows`` and ``counts`` are as ``_kept``
    returns them: product ``k`` takes ``counts[k, x]`` rows for input ``x``,
    and has no candidates when one of them is 0. Each block comes with its
    parts ``(k, lo, hi)``: rows ``lo:hi`` belong to product ``k``."""
    starts = (np.cumsum(counts) - counts.ravel()).reshape(counts.shape)
    # strides[k, x]: how many candidates of product k share one row of x
    strides = np.ones_like(counts)
    strides[:, :-1] = np.cumprod(counts[:, :0:-1], axis=1)[:, ::-1]
    sizes = [math.prod(c) for c in counts.tolist()]
    ends = list(itertools.accumulate(sizes))
    bounds = np.array(ends)
    begins = bounds - sizes
    for start in range(0, ends[-1], _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, ends[-1])
        parts = [(k, max(end - size, start) - start, min(end, stop) - start)
                 for k, (size, end) in enumerate(zip(sizes, ends))
                 if max(end - size, start) < min(end, stop)]
        at = np.arange(start, stop)
        # the product of each candidate; take() gathers far faster than
        # fancy indexing on arrays this small
        k = bounds.searchsorted(at, side="right")
        local = (at - begins.take(k))[:, None]
        index = (local // strides.take(k, axis=0) % counts.take(k, axis=0)
                 + starts.take(k, axis=0))
        yield rows.take(index, axis=0), parts


@dataclass
class _Incumbent:
    value: float
    cond: np.ndarray


_CACHE_CANDIDATE_LIMIT = 2_000_000
_BUNDLES = Memo(1 << 28)  # 256 MiB of cached base-grid measure arrays


def _refine_points(ny: int, g: int) -> int:
    """Per-dimension density inside the shrunken polish boxes; boxes are
    tiny, so far fewer points than the base grid are needed, and rows with
    several free coordinates get fewer points per coordinate."""
    per_row = {2: 51, 3: 13}.get(ny, 9)
    return min(g, per_row)


def _masked(values: np.ndarray, feasible: np.ndarray) -> np.ndarray:
    """``values`` on the ``feasible`` candidates; +inf elsewhere and for
    NaN."""
    masked = np.where(feasible, values, np.inf)
    return np.where(np.isnan(masked), np.inf, masked)


def _scan(blocks, objectives: Sequence, feasible,
          bests: list[Optional[_Incumbent]], narrow=None
          ) -> list[Optional[_Incumbent]]:
    """Masked argmin over candidate blocks for several incumbents at once.

    ``blocks`` yields ``(block, parts)``: the block is anything with a
    ``cond`` array, and a part ``(k, lo, hi)`` hands its candidates
    ``lo:hi`` to incumbent ``k``, which minimizes ``objectives[k]``.
    ``feasible`` and each objective with a part in the block are evaluated
    once per block; ``narrow(block, k, lo, hi)``, if given, returns a
    further mask for the part of incumbent ``k``, or None. Per incumbent,
    blocks are scanned in order: the first candidate wins a tie, and the
    incumbent is replaced only on a strict improvement."""
    bests = list(bests)
    for block, parts in blocks:
        with np.errstate(invalid="ignore"):
            mask = feasible(block)
            masked = {objective: _masked(objective(block), mask)
                      for objective in dict.fromkeys(
                          objectives[k] for k, _, _ in parts)}
        for k, lo, hi in parts:
            part = masked[objectives[k]][lo:hi]
            keep = None if narrow is None else narrow(block, k, lo, hi)
            if keep is not None:
                part = np.where(keep, part, np.inf)
            j = int(np.argmin(part))
            v = float(part[j])
            if math.isfinite(v) and (bests[k] is None or v < bests[k].value):
                bests[k] = _Incumbent(v, np.array(block.cond[lo + j]))
    return bests


def _polish(bests: list[Optional[_Incumbent]], free_rows: int, points: int,
            evaluate, outside: np.ndarray) -> list[Optional[_Incumbent]]:
    """Shrinking-box polish of several incumbents in lockstep; None entries
    are left as they are.

    Round ``level`` grids a box of width ``_POLISH_SHRINK ** level``,
    clipped to [0, 1], around each of the first ``free_rows`` rows of every
    incumbent, all boxes in one ``_row_grid`` call with ``points`` samples
    per free coordinate. Each box lists its incumbent's own row first and
    drops the grid rows equal to it, so that the incumbent wins ties; one
    ``_kept`` pass over all boxes drops the rows off the simplex and those
    with mass on ``outside``, and ``evaluate(rows, counts, bests)``, given
    the survivors with one product per incumbent (none for a None entry),
    returns the new incumbents.
    """
    live = [k for k, best in enumerate(bests) if best is not None]
    if not live:
        return bests
    counts = np.zeros((len(bests), free_rows), dtype=np.intp)
    for level in range(1, _POLISH_ROUNDS + 1):
        width = _POLISH_SHRINK ** level
        own = np.concatenate([bests[k].cond[:free_rows] for k in live])
        boxes, keep = _row_grid(own.shape[1], points,
                                np.clip(own[:, 1:] - width / 2, 0.0, 1.0),
                                np.clip(own[:, 1:] + width / 2, 0.0, 1.0))
        rows = np.concatenate([own[:, None], boxes], axis=1)
        keep = np.concatenate([np.ones((len(own), 1), dtype=bool),
                               keep & _any_last(boxes != own[:, None])],
                              axis=1)
        shape = (len(live), free_rows, -1)
        rows, counts[live] = _kept(rows.reshape(shape + own.shape[1:]),
                                   keep.reshape(shape), outside)
        bests = evaluate(rows, counts, bests)
    return bests


def _finite_level(b):
    return np.isfinite(b.lam)


def _d_c(b):
    return b.d_c


def _level(b):
    return b.lam


def _negated_level(b):
    return -b.lam


# the level extrema solved together per rate, as (objective, branch): the
# minimum over both branches and within each, and the bulk branch's maximum,
# the one maximum a solve reads (it seeds the false-alarm bulk branch)
_EXTREMA_KEYS = ((_level, None), (_level, BULK), (_level, SPARSE),
                 (_negated_level, BULK))


class _Extrema(NamedTuple):
    """The level extrema of one (channel, input, rate, configuration) in the
    order of ``_EXTREMA_KEYS``, read-only: the values, NaN where no type has
    a finite level, and the extremal conditionals (the channel's there)."""

    values: np.ndarray
    conds: np.ndarray


_EXTREMA = Memo(1 << 16)  # 64 KiB of level extrema, a few hundred rates


def _tilted(log_base: np.ndarray, info: np.ndarray, s: float):
    """Rows of the tilt ``V_s ∝ base exp(-s info)`` by log-sum-exp
    (``log_base`` is ``-inf`` off the support, where ``info`` is 0), with
    the mean and the variance of ``info`` under each row. The
    missed-detection tilt takes ``W`` and ``i`` here, the false-alarm tilt
    ``P_Y`` and ``-i``."""
    logits = log_base - s * info
    rows = np.exp(logits - logits.max(axis=1, keepdims=True))
    rows /= rows.sum(axis=1, keepdims=True)
    mean = (rows * info).sum(axis=1)
    var = (rows * (info - mean[:, None]) ** 2).sum(axis=1)
    return rows, mean, var


def _tilt_root(p: np.ndarray, log_base: np.ndarray, info: np.ndarray,
               t: float) -> tuple[float, np.ndarray]:
    """The least ``s >= 0`` at which the ``p``-weighted mean of ``info``
    under ``_tilted`` rows is at most ``t``, and those rows. The mean falls
    as ``s`` grows, with slope minus the weighted variance; safeguarded
    Newton keeps a bracket ``(lo, hi)`` and bisects it (or doubles ``s``
    while ``hi`` is infinite) when a step leaves it. ``t`` must exceed the
    mean's infimum."""
    lo, hi, s = 0.0, math.inf, 0.0
    for _ in range(_TILT_STEPS):
        rows, mean, var = _tilted(log_base, info, s)
        gap = float(p @ mean) - t
        if gap <= 0:
            hi = s
            if gap == 0 or s == 0:
                break
        else:
            lo = s
        slope = float(p @ var)
        step = s + gap / slope if slope > 0 else math.inf
        if not lo < step < hi:
            step = 0.5 * (lo + hi) if hi < math.inf else 2.0 * max(s, 1.0)
        if abs(step - s) <= 4 * math.ulp(s):
            break
        s = step
    return s, rows


class _Info(NamedTuple):
    """The information density ``i = ln W / P_Y`` on the inputs with mass
    (mask ``live``, masses ``p``), which both tilts start from: ``log_w``
    and ``log_p_y`` are ``ln W`` and ``ln P_Y`` on the ``support`` of each
    row and ``-inf`` off it, and ``info`` is ``i`` on the support and 0 off
    it."""

    live: np.ndarray
    p: np.ndarray
    support: np.ndarray
    log_w: np.ndarray
    log_p_y: np.ndarray
    info: np.ndarray

    def row_edges(self, top: bool) -> np.ndarray:
        """Per row, the largest (``top``) or least ``i`` over the
        support."""
        if top:
            return np.where(self.support, self.info, -np.inf).max(axis=1)
        return np.where(self.support, self.info, np.inf).min(axis=1)

    def edge(self, top: bool) -> float:
        """``sum_x P(x) max_y i(x, y)`` (``top``) or ``min_y``, over the
        support: the largest or the least mean of ``i``."""
        return float(self.p @ self.row_edges(top))


class _Fiber(NamedTuple):
    cond: np.ndarray
    d_c: np.ndarray
    feasible: np.ndarray


def _fiber_order(p_in: np.ndarray) -> np.ndarray:
    """The inputs in fiber order: those with free rows, then the input whose
    row the output-marginal constraint determines, the last one with
    positive mass."""
    pivot = int(np.flatnonzero(p_in > 0)[-1])
    return np.append(np.delete(np.arange(p_in.size), pivot), pivot)


def _fiber(first_rows: np.ndarray, q_out: np.ndarray, law: _Law,
           rate: float) -> _Fiber:
    """Fiber candidates with the row of the last input with positive mass
    derived from the output-marginal constraint; feasible where that row is
    stochastic, the conditional divergence finite and the mutual
    information at most ``rate``. ``first_rows`` are the rows of the other
    inputs; the rows of ``cond`` and of ``law`` are in ``_fiber_order``.
    ``q_out`` may carry leading axes (``(..., 1, ny)`` against ``(rows, X -
    1, ny)`` free rows) to evaluate several fibers at once."""
    last = (q_out - _mix(first_rows, law.p_in[:-1])) / law.p_in[-1]
    valid = ~_any_last(last < -_SIMPLEX_TOL)
    last = np.clip(last, 0.0, 1.0)
    first_rows = np.broadcast_to(first_rows,
                                 last.shape[:-1] + first_rows.shape[-2:])
    cond = np.concatenate([first_rows, last[..., None, :]], axis=-2)
    _, d_c, i_q = _measures(cond, np.broadcast_to(q_out, last.shape), law)
    return _Fiber(cond, d_c,
                  valid & np.isfinite(d_c) & (i_q <= rate + _BRANCH_TOL))


def _fiber_rows(rows: np.ndarray, counts: np.ndarray) -> Iterator[np.ndarray]:
    """Blocks of free fiber rows: the product of the row candidates of every
    input but the one whose row the output marginal determines (see
    ``_fiber``), in ``_fiber_order``."""
    return (cond for cond, _ in _joint_chunks(rows, counts))


class Problem:
    """Both exponent problems for one channel, input distribution, rate and
    solver configuration.

    On a channel with two outputs no exponent and no interference level
    runs the grid; there only ``level_min`` and ``_bulk_max`` do. The
    output marginal is derived once. The level extrema (the minima and
    the bulk maximum), which seed the exponent solves, do not depend on the
    threshold: the first request solves all of them at once and keeps them
    in ``_EXTREMA`` per channel, input, rate and configuration, which every
    instance shares, so ``fa_exponent`` and ``md_exponent`` at one rate
    solve them once between them. The memo of the interference-ceiling
    gate is the instance's own, so a threshold sweep should still build one
    instance per rate.
    """

    def __init__(self, w: Channel, p_in: Distribution, rate: float,
                 cfg: Optional[SolverConfig] = None):
        if not rate >= 0.0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        self.w = w
        self.p_in = p_in
        self.rate = rate
        self._cfg = cfg
        self.p_out = output_marginal(p_in, w)

    @cached_property
    def cfg(self) -> SolverConfig:
        """The grid configuration, resolved on first use: the tilts use
        none, so they never ask ``default_config`` for one."""
        return self._cfg or default_config(self.w)

    @cached_property
    def _gate(self) -> _CeilingGate:
        return _CeilingGate(self)

    @cached_property
    def _info(self) -> _Info:
        p, w = self.p_in.probs, self.w
        live = p > SUPPORT_ATOL
        support = w.support_mask[live]
        # P_Y > 0 on the support of every input with mass
        with np.errstate(divide="ignore", invalid="ignore"):
            log_w = np.where(support, np.log(w.rows[live]), -np.inf)
            log_p_y = np.where(support, np.log(self.p_out.probs), -np.inf)
            info = np.where(support, log_w - log_p_y, 0.0)
        return _Info(live, p[live], support, log_w, log_p_y, info)

    @cached_property
    def _fibers(self) -> marginals.Fibers:
        """The fibers of a two-output channel (see ``marginals``)."""
        info = self._info
        return marginals.Fibers(self.w.rows[info.live], info.support,
                                info.p, self.p_out.probs)

    @cached_property
    def _law(self) -> _Law:
        return _law(self.w.rows, self.p_in.probs, self.p_out.probs)

    @cached_property
    def _fiber_law(self) -> _Law:
        """``_law`` with the inputs in ``_fiber_order``."""
        order = _fiber_order(self.p_in.probs)
        return _law(self.w.rows[order], self.p_in.probs[order],
                    self.p_out.probs)

    def _rated(self, cond: np.ndarray) -> _RatedBundle:
        return _Bundle(cond, self._law).at_rate(self.rate)

    def _outside(self, inputs: np.ndarray) -> np.ndarray:
        """Per input of ``inputs``, the outputs off the support of
        ``W(.|x)`` when ``x`` has positive probability, none otherwise: a
        candidate row with mass there makes ``D_c`` infinite. Every scan
        rejects those candidates, and ``_kept`` keeps the order of the
        others, so each scan picks the same candidate as on the full
        lists."""
        return (~self.w.support_mask[inputs]
                & (self.p_in.probs[inputs] > SUPPORT_ATOL)[:, None])

    def _grid_rows(self, inputs: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
        """The base-grid rows of every input in ``inputs``, one product, as
        ``_kept`` returns them."""
        rows, keep = _row_grid(self.w.num_outputs,
                               self.cfg.grid_points_per_dim)
        return _kept(rows[:, None], keep[:, None], self._outside(inputs))

    def _base(self):
        """Measure bundles of the base grid, kept in ``_BUNDLES`` per
        channel, input and grid when at most ``_CACHE_CANDIDATE_LIMIT``
        candidates survive pruning, otherwise streamed."""
        w, g = self.w, self.cfg.grid_points_per_dim
        key = (w.rows.tobytes(), self.p_in.probs.tobytes(), g)
        cached = _BUNDLES.find(key)
        if cached is not None:
            return cached
        rows, counts = self._grid_rows(np.arange(w.num_inputs))
        bundles = (_Bundle(cond, self._law)
                   for cond, _ in _joint_chunks(rows, counts))
        if math.prod(counts[0].tolist()) > _CACHE_CANDIDATE_LIMIT:
            return bundles
        return _BUNDLES.get(key, lambda: tuple(bundles))

    def _solve(self, feasible, tasks: Sequence[tuple]
               ) -> list[Optional[_Incumbent]]:
        """Solve every task ``(objective, branch, seeds)`` in lockstep: the
        minimum of ``objective`` over the ``feasible`` candidates of
        ``branch`` (``BULK``, ``SPARSE``, or None for no mutual-information
        test), seeded with the conditionals ``seeds``.

        The seeds of all tasks form one bundle, scanned first so that a
        seed wins all ties; then come the base grid and the polish rounds,
        one box per task and input row. Each block's ``feasible`` and each
        distinct objective are evaluated once for every task, and each task
        applies only its own ``I_Q`` test to its own part. Returns one
        incumbent per task, None where nothing is feasible; such a task is
        not polished.
        """
        objectives = [objective for objective, _, _ in tasks]
        branches = [branch for _, branch, _ in tasks]
        rate = self.rate

        def in_branch(block, k, lo, hi):
            if branches[k] == BULK:
                return block.i_q[lo:hi] <= rate + _BRANCH_TOL
            if branches[k] == SPARSE:
                return block.i_q[lo:hi] >= rate - _BRANCH_TOL
            return None

        sizes = [len(seeds) for _, _, seeds in tasks]
        seeded = [(self._rated(np.stack([s for _, _, seeds in tasks
                                         for s in seeds])),
                   [(k, end - size, end) for k, (size, end) in
                    enumerate(zip(sizes, itertools.accumulate(sizes)))])]
        base = (bundle.at_rate(rate) for bundle in self._base())
        blocks = itertools.chain(
            seeded, ((b, [(k, 0, len(b.cond)) for k in range(len(tasks))])
                     for b in base))
        bests = _scan(blocks, objectives, feasible, [None] * len(tasks),
                      in_branch)

        def evaluate(rows, counts, bests):
            return _scan(((self._rated(cond), parts)
                          for cond, parts in _joint_chunks(rows, counts)),
                         objectives, feasible, bests, in_branch)

        inputs = np.arange(self.w.num_inputs)
        points = _refine_points(self.w.num_outputs,
                                self.cfg.grid_points_per_dim)
        return _polish(bests, inputs.size, points, evaluate,
                       self._outside(inputs))

    def _extrema(self) -> _Extrema:
        """Every level extremum of ``_EXTREMA_KEYS``, from one lockstep
        solve seeded with the channel, kept in ``_EXTREMA``."""
        def solve():
            found = self._solve(_finite_level, [
                (objective, branch, [self.w.rows])
                for objective, branch in _EXTREMA_KEYS])
            values = np.array([
                math.nan if res is None else
                res.value if objective is _level else -res.value
                for (objective, _), res in zip(_EXTREMA_KEYS, found)])
            conds = np.array([self.w.rows if res is None else res.cond
                              for res in found])
            values.setflags(write=False)
            conds.setflags(write=False)
            return _Extrema(values, conds)

        key = (self.w.rows.tobytes(), self.p_in.probs.tobytes(), self.rate,
               self.cfg)
        return _EXTREMA.get(key, solve)

    def _extremum(self, objective, branch: Optional[str]
                  ) -> Optional[_Incumbent]:
        """The stored extremum of ``_EXTREMA_KEYS`` entry ``(objective,
        branch)``; None when no type has a finite level. The first request
        solves every extremum of the rate at once (``_extrema``). The
        returned conditional is read-only."""
        extrema = self._extrema()
        i = _EXTREMA_KEYS.index((objective, branch))
        value = float(extrema.values[i])
        return None if math.isnan(value) else _Incumbent(value,
                                                         extrema.conds[i])

    def level_min(self, branch: Optional[str] = None
                  ) -> Optional[_Incumbent]:
        """Polished minimum of the level within one branch, None when no
        type of it has a finite level, or over both when ``branch`` is
        None: ``lambda_min``, never None, as the channel's own level is
        finite. Thin feasible slivers near these minima fall between base
        grid points, so they seed the missed-detection solve."""
        return self._extremum(_level, branch)

    def _bulk_max(self) -> Optional[_Incumbent]:
        """Polished maximum of the level within the bulk branch: just below
        it the false-alarm feasible bulk types form a sliver that the base
        grid can miss, so it seeds that branch."""
        return self._extremum(_negated_level, BULK)

    def _seeds(self, *extrema: Optional[_Incumbent]) -> list[np.ndarray]:
        return [self.w.rows] + [e.cond for e in extrema if e is not None]

    def _result(self, bulk: Optional[_Incumbent],
                sparse: Optional[_Incumbent]) -> ExponentResult:
        """The smaller branch minimum; ties resolve to the bulk branch."""
        if bulk is None and sparse is None:
            return ExponentResult(math.inf, None, None, False)
        if sparse is None or (bulk is not None and bulk.value <= sparse.value):
            best, branch = bulk, BULK
        else:
            best, branch = sparse, SPARSE
        cond = np.clip(best.cond, 0.0, 1.0)
        cond = cond / cond.sum(axis=1, keepdims=True)
        return ExponentResult(best.value, JointType(self.p_in, cond), branch,
                              True)

    def _fa_cost(self, b: _RatedBundle) -> np.ndarray:
        return b.d_m + np.maximum(b.i_q - self.rate, 0.0)

    def level_max(self) -> float:
        """Largest level over channel-compatible types, in closed form:
        ``[sum_x P(x) max_y i(x, y) - R]_+``. The level is the larger of
        ``D_m - D_c``, which is at most 0 and is 0 at ``W``, and
        ``E_V[i] - R``, which peaks at the false-alarm tilt's edge."""
        return max(self._info.edge(top=True) - self.rate, 0.0)

    def fa(self, tau: float) -> ExponentResult:
        """False-alarm exponent at threshold ``tau`` (see ``fa_exponent``).

        When ``tau > 0`` or the rate is zero the feasible set is the
        half-space ``E_V[i] >= tau + R``, and ``_fa_tilt`` returns its exact
        minimum to root-finding tolerance; the grid and ``cfg`` are not
        used. Otherwise (``R > 0``, ``tau <= 0``) ``_fa_marginals``
        answers exactly on a two-output channel, and on three or more
        outputs the grid solver runs, its bulk branch seeded with the bulk
        level maximum."""
        if tau > 0 or self.rate == 0:
            return self._fa_tilt(tau + self.rate)
        if self.w.num_outputs == 2:
            return self._fa_marginals(tau)

        def base(b):
            return np.isfinite(b.lam) & (b.lam >= tau)

        return self._result(*self._solve(
            base, [(self._fa_cost, BULK, self._seeds(self._bulk_max())),
                   (self._fa_cost, SPARSE, [self.w.rows])]))

    def md(self, tau: float) -> ExponentResult:
        """Missed-detection exponent at threshold ``tau`` (see
        ``md_exponent``).

        When ``tau > 0`` or the rate is zero the feasible set is the
        half-space ``E_V[i] <= tau + R``, and ``_md_tilt`` returns its exact
        minimum, Hoeffding's tilt of ``W``, to root-finding tolerance; the
        grid and ``cfg`` are not used. Otherwise (``R > 0``, ``tau <= 0``)
        ``_md_marginals`` answers exactly on a two-output channel. On three
        or more outputs it is infinite at or below ``level_min()``, and
        above it the grid solver runs with the interference-ceiling
        gate."""
        if tau > 0 or self.rate == 0:
            return self._md_tilt(tau + self.rate)
        if self.w.num_outputs == 2:
            return self._md_marginals(tau)
        bottom = self.level_min()
        if not bottom.value < tau:
            return ExponentResult(math.inf, None, None, False)

        def base(b):
            mask = np.isfinite(b.d_c) & (b.lam <= tau)
            if mask.any():
                idx = np.flatnonzero(mask)
                q_y = b.q_y.take(idx, axis=0)
                mask[idx] = self._gate.values(q_y) <= tau
            return mask

        return self._result(*self._solve(
            base, [(_d_c, branch, self._seeds(self.level_min(branch), bottom))
                   for branch in (BULK, SPARSE)]))

    def _md_marginals(self, tau: float) -> ExponentResult:
        """Gated missed-detection exponent on a two-output channel, exactly
        (see ``marginals``): Hoeffding's tilt at ``tau + R`` when the
        interference ceiling at its output marginal is at most ``tau``,
        otherwise the search over the output marginal. The ceiling bounds
        the mutual information by ``R + _BRANCH_TOL``, the branch test's
        rate, so that a reported minimizer clears the exact ceiling. It is
        infinite where no type qualifies, and, when the fiber of every
        marginal is a point, at or below the level minimum
        (``_point_level_min``), where no type has a level below ``tau``."""
        t = tau + self.rate
        rows = self._md_tilt_rows(t)
        fibers = self._fibers
        if rows is None or (fibers.p.size < 2
                            and not self._point_level_min() < tau):
            return ExponentResult(math.inf, None, None, False)
        rate = self.rate + _BRANCH_TOL
        q_s = float(self._info.p @ rows[:, 0])
        if fibers.ceiling(np.array([q_s]), rate)[0] > tau:
            u = marginals.search(fibers, tau, rate, t, q_s)
            if u is None:
                return ExponentResult(math.inf, None, None, False)
            rows = fibers.conditional(u)
        return self._md_result(rows)

    def _point_level_min(self) -> float:
        """The level minimum of a two-output channel whose fiber is a point
        at every marginal (at most one free row). Along that segment of
        types the level is ``D_m - D_c``, concave, where ``I <= R`` and
        ``E_V[i] - R``, linear, elsewhere, so it is least at an end of the
        range or where ``I = R`` (``marginals.Fibers.level_candidates``)."""
        rows = self._fibers.level_candidates(self.rate)
        cond = np.repeat(self.w.rows[None], len(rows), axis=0)
        cond[:, self._info.live] = rows
        p = self.p_in.probs
        level = (kl_vec(mix_vec(cond, p), self.p_out.probs)
                 - cond_kl_vec(cond, self.w.rows, p)
                 + np.maximum(mutual_information_vec(cond, p) - self.rate,
                              0.0))
        return float(level.min())

    def _fa_marginals(self, tau: float) -> ExponentResult:
        """False-alarm exponent on a two-output channel at ``R > 0`` and
        ``tau <= 0``, exactly (see ``marginals``).

        The feasible set is the bulk piece ``{D_m - D_c >= tau}``, which
        holds ``W``, joined with the sparse piece ``{E_V[i] >= tau + R}``.
        A sparse type with ``I <= R`` has ``D_m - D_c = E_V[i] - I >= tau``,
        so it is in the bulk piece too; over the sparse types with ``I >=
        R`` the cost is ``D(V || P_Y | P) - R``, least at the tilt
        ``_fa_tilt(tau + R)`` when its ``I`` is at least ``R``, and
        otherwise on ``I = R``, in the bulk piece again. So the answer is
        the smaller of that tilt, when its ``I`` exceeds ``R``, and
        ``marginals.false_alarm`` over the bulk piece; a tie goes to the
        tilt. A tilt at ``s = 0`` minimizes ``D(V || P_Y | P)`` over every
        type, so then it is the answer outright."""
        tilt = self._fa_tilt_rows(tau + self.rate)
        sparse = None
        if tilt is not None:
            sparse = self._fa_result(tilt[1])
            if sparse.branch != SPARSE:
                sparse = None
            elif tilt[0] == 0:
                return sparse
        bulk = self._fa_result(marginals.false_alarm(self._fibers, tau,
                                                     self.rate))
        if sparse is not None and sparse.value <= bulk.value:
            return sparse
        return bulk

    def _md_tilt(self, t: float) -> ExponentResult:
        """Minimum of ``D_c`` over the half-space ``E_V[i] <= t``.

        Infeasible exactly when ``t`` is at most ``sum_x P(x) min_y i(x, y)``
        over the support, the level minimum; the minimizer is ``W`` when
        ``I(X;Y) <= t``, otherwise the tilt ``V_s`` whose mean meets ``t``.
        Inputs with no mass keep their row of ``W``."""
        rows = self._md_tilt_rows(t)
        if rows is None:
            return ExponentResult(math.inf, None, None, False)
        return self._md_result(rows)

    def _md_tilt_rows(self, t: float) -> Optional[np.ndarray]:
        """The rows of ``_md_tilt``'s minimizer on the inputs with mass,
        None where it is infeasible."""
        info = self._info
        if not t > info.edge(top=False):
            return None
        s, rows = _tilt_root(info.p, info.log_w, info.info, t)
        return rows if s > 0 else self.w.rows[info.live]

    def _md_result(self, rows: np.ndarray) -> ExponentResult:
        """The missed-detection result with ``rows`` on the inputs with
        mass, valued by ``D_c``."""
        w, p = self.w.rows, self.p_in.probs
        return self._tilt_result(
            rows, lambda cond, i_q: float(cond_kl_vec(cond, w, p)))

    def _fa_tilt(self, t: float) -> ExponentResult:
        """Minimum of the false-alarm cost over the half-space
        ``E_V[i] >= t``.

        Since ``E_V[i] = D_m - D_c + I`` and ``D_c >= D_m``, ``I >= E_V[i]``:
        at ``tau > 0`` every feasible type has ``I >= t > R``, so the cost
        ``D_m + [I - R]_+`` is ``D(V || P_Y | P) - R``, and at rate 0 it is
        ``D(V || P_Y | P)``. Feasible exactly when ``t`` is at most the edge
        ``sum_x P(x) max_y i(x, y)`` over the support. The minimizer is the
        tilt ``V_s ∝ P_Y exp(s i)`` on the support of each input with mass
        at the least ``s >= 0`` whose mean of ``i`` reaches ``t``, and at
        the edge its limit, ``P_Y`` on each row's argmax set of ``i``.
        Inputs with no mass keep their row of ``W``. The value is the cost
        of the minimizer."""
        tilt = self._fa_tilt_rows(t)
        if tilt is None:
            return ExponentResult(math.inf, None, None, False)
        return self._fa_result(tilt[1])

    def _fa_tilt_rows(self, t: float
                      ) -> Optional[tuple[float, np.ndarray]]:
        """The tilt ``s`` (``inf`` at the edge) and the rows of
        ``_fa_tilt``'s minimizer on the inputs with mass, None where it is
        infeasible."""
        info = self._info
        top = info.edge(top=True)
        if not t <= top:
            return None
        if t == top:
            peak = info.support & (info.info == info.row_edges(True)[:, None])
            rows = np.where(peak, self.p_out.probs, 0.0)
            return math.inf, rows / rows.sum(axis=1, keepdims=True)
        return _tilt_root(info.p, info.log_p_y, -info.info, -t)

    def _fa_result(self, rows: np.ndarray) -> ExponentResult:
        """The false-alarm result with ``rows`` on the inputs with mass,
        valued by ``D_m + [I - R]_+``."""
        p, p_y = self.p_in.probs, self.p_out.probs
        return self._tilt_result(
            rows, lambda cond, i_q: float(kl_vec(mix_vec(cond, p), p_y))
            + max(i_q - self.rate, 0.0))

    def _tilt_result(self, rows: np.ndarray, cost) -> ExponentResult:
        """The joint type with ``rows`` on the inputs with mass and the
        channel's rows elsewhere, valued by ``cost(conditional, I)``. The
        branch tag follows ``_result``: bulk when the mutual information is
        at most the rate, up to ``_BRANCH_TOL``."""
        cond = np.array(self.w.rows)
        cond[self._info.live] = rows
        minimizer = JointType(self.p_in, cond)
        i_q = float(mutual_information_vec(minimizer.conditional,
                                           self.p_in.probs))
        return ExponentResult(
            cost(minimizer.conditional, i_q), minimizer,
            BULK if i_q <= self.rate + _BRANCH_TOL else SPARSE, True)

    def _fiber_min(self, q_out: np.ndarray, first_rows, best=None
                   ) -> Optional[_Incumbent]:
        """Scan the fiber of ``q_out`` over blocks of free rows for the
        smallest feasible ``D_c``."""
        fibers = (_fiber(fr, q_out, self._fiber_law, self.rate)
                  for fr in first_rows)
        return _scan(((f, [(0, 0, len(f.cond))]) for f in fibers),
                     [_d_c], lambda f: f.feasible, [best])[0]

    def interference_level(self, q_out: np.ndarray) -> float:
        """Interference level of the output marginal ``q_out`` (see the
        module function ``interference_level``): exact on two outputs, a
        polished fiber grid on more."""
        d_m = float(kl_vec(q_out, self.p_out.probs))
        if not math.isfinite(d_m):
            return -math.inf
        if self.w.num_outputs == 2:
            fibers = self._fibers
            q = float(q_out[0])
            if not fibers.lo - _SIMPLEX_TOL <= q <= fibers.hi + _SIMPLEX_TOL:
                return -math.inf
            q = min(max(q, fibers.lo), fibers.hi)
            return float(fibers.ceiling(np.array([q]), self.rate)[0])
        inputs = _fiber_order(self.p_in.probs)[:-1]

        def evaluate(rows, counts, bests):
            return [self._fiber_min(q_out, _fiber_rows(rows, counts),
                                    bests[0])]

        best = self._fiber_min(q_out, _fiber_rows(*self._grid_rows(inputs)))
        if best is None:
            return -math.inf
        best, = _polish([best], inputs.size, self.cfg.grid_points_per_dim,
                        evaluate, self._outside(inputs))
        return d_m - best.value


def fa_exponent(w: Channel, p_in: Distribution, tau: float, rate: float,
                cfg: Optional[SolverConfig] = None) -> ExponentResult:
    """False-alarm exponent at threshold ``tau`` and codebook rate ``rate``.

    Minimizes ``D_m + [I_Q - R]_+`` over joint types whose level is at least
    ``tau``; returns an infeasible result (value ``+inf``) when no type
    reaches the threshold. ``tau = -inf`` is accepted and yields the
    unconstrained minimum over channel-compatible types. For ``tau > 0``
    the feasible set is the half-space ``E_V[i] >= tau + rate``, on which
    ``I_Q >= E_V[i] > rate``; the minimum is the tilt ``P_Y exp(s i)``,
    found by a 1-D root search: exact to root-finding tolerance, and
    ``cfg`` has no effect on it. It is infeasible exactly when
    ``tau + rate > sum_x P(x) max_y i(x, y)``. For ``tau <= 0`` it is
    finite, since ``W`` has level 0. On a channel with two outputs the
    answer is exact there too (``softcover.marginals``) and ``cfg`` has no
    effect; when the least cost has ``I_Q <= rate`` the reported minimizer
    is the type of largest level among those that attain it. On three or
    more outputs the grid solver with ``cfg`` runs.
    """
    return Problem(w, p_in, rate, cfg).fa(tau)


def md_exponent(w: Channel, p_in: Distribution, tau: float, rate: float,
                cfg: Optional[SolverConfig] = None) -> ExponentResult:
    """Missed-detection exponent at threshold ``tau`` and rate ``rate > 0``.

    Minimizes ``D_c`` over the closure of the strict sublevel set of the
    likelihood-ratio level; feasibility requires the level minimum, the
    ``lambda_min`` of ``lambda_extrema``, to lie strictly below ``tau``.
    For ``tau > 0`` that set is the half-space ``E_V[i] <= tau + rate`` and
    the minimum is Hoeffding's tilt of ``W``, found by a 1-D root search:
    exact to root-finding tolerance, not limited by grid resolution, and
    ``cfg`` has no effect on it. For ``tau <= 0`` candidates must keep the
    interference ceiling of their output marginal below ``tau`` too. On a
    channel with two outputs the answer is exact and ``cfg`` has no
    effect: the tilt at ``tau + rate`` when the ceiling at its output
    marginal is at most ``tau``, otherwise a search over the output
    marginal (``softcover.marginals``), infinite where no type qualifies.
    On three or more outputs the value is infinite at or below the grid's
    level minimum, and above it the grid solver with ``cfg`` runs.
    """
    if rate == 0:
        raise ValueError(
            "rate = 0 reduces to a single-codeword test; use r0_exponents")
    if not rate > 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    return Problem(w, p_in, rate, cfg).md(tau)


def r0_exponents(w: Channel, p_in: Distribution, tau: float
                 ) -> tuple[ExponentResult, ExponentResult]:
    """Both exponents for a single-codeword codebook (rate zero).

    The two variational problems are solved with the rate pinned at zero and
    the interference ceiling disabled, since a lone codeword has nothing to
    interfere with it. At rate zero the level is ``E_V[i]`` (``I_V >=
    E_V[i]`` absorbs the other term), so at every threshold both exponents
    are exact 1-D tilts with no grid: the false-alarm one over the
    half-space ``E_V[i] >= tau``, of cost ``D(V || P_Y | P)``, feasible up
    to ``tau = sum_x P(x) max_y i(x, y)``, and the missed-detection one over
    ``E_V[i] <= tau``. No solver configuration is involved.
    """
    problem = Problem(w, p_in, 0.0)
    return problem.fa(tau), problem.md(tau)


# ---------------------------------------------------------------------------
# interference ceiling: the largest level reachable by rate-feasible types
# sharing a prescribed output marginal
# ---------------------------------------------------------------------------

class _CeilingGate:
    """Memoized batch evaluator for the interference ceiling on the base
    fiber grid, without polish, keyed by the bytes of the output marginal
    rounded to ``_DELTA_QUANT`` decimals.

    The distinct keys missing from the memo are evaluated together: one
    broadcast of ``_fiber`` over a leading marginal axis, in chunks of at
    most ``_CHUNK_ROWS`` (marginal, fiber row) pairs, then the masked
    minimum of ``D_c`` along the fiber-row axis. Only that minimum enters
    the ceiling, so no argmin is taken.
    """

    def __init__(self, problem: Problem):
        self.problem = problem
        self.memo: dict[bytes, float] = {}
        self.first_rows = np.concatenate(list(_fiber_rows(
            *problem._grid_rows(_fiber_order(problem.p_in.probs)[:-1]))))

    def values(self, q_y_block: np.ndarray) -> np.ndarray:
        rounded = np.round(q_y_block, _DELTA_QUANT)
        # one bytes key per rounded row
        keys = rounded.view(np.dtype((np.void, rounded.itemsize
                                      * rounded.shape[1]))).ravel().tolist()
        # a row of each key missing from the memo
        unseen = {key: i for i, key in enumerate(keys)
                  if key not in self.memo}
        if unseen:
            problem = self.problem
            fresh = rounded.take(list(unseen.values()), axis=0)
            level = kl_vec(fresh, problem.p_out.probs)
            finite = np.flatnonzero(np.isfinite(level))
            level[~np.isfinite(level)] = -np.inf
            step = max(1, _CHUNK_ROWS // len(self.first_rows))
            for start in range(0, finite.size, step):
                idx = finite[start:start + step]
                fib = _fiber(self.first_rows, fresh.take(idx, axis=0)[:, None],
                             problem._fiber_law, problem.rate)
                d_c = _masked(fib.d_c, fib.feasible)
                level[idx] -= d_c.min(axis=1)
            self.memo.update(zip(unseen, level.tolist()))
        return np.fromiter(map(self.memo.__getitem__, keys), float,
                           len(keys))


def interference_level(q_out: Distribution, w: Channel, p_in: Distribution,
                       rate: float, cfg: Optional[SolverConfig] = None) -> float:
    """Largest level achievable by joint types with output marginal ``q_out``
    and mutual information at most ``rate``.

    Returns ``-inf`` when no channel-compatible type meets both constraints;
    the data-processing inequality caps the value at zero otherwise. On a
    channel with two outputs it is exact (``softcover.marginals.Fibers``).
    On three or more it uses the fiber parameterization (all conditional
    rows free except the last, which is solved from the marginal
    constraint) with the same shrinking-box polish as the exponent solvers.
    """
    if not rate > 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    return Problem(w, p_in, rate, cfg).interference_level(q_out.probs)
