"""Variational error-exponent solvers over joint-type space.

The false-alarm exponent minimizes ``D_m(Q_Y) + [I_Q(X;Y) - R]_+`` over joint
types whose likelihood-ratio level stays above the decision threshold; the
missed-detection exponent minimizes the conditional divergence ``D_c`` over
types whose level falls below it, with an extra interference ceiling active
at non-positive thresholds.

The generic solver lays a dense grid over the free conditional coordinates
(one simplex per input symbol), splits the non-smooth clipped rate term into
the bulk branch (``I_Q <= R``) and the sparse branch (``I_Q >= R``), and
polishes each branch's incumbent with successively shrunken boxes. The two
branches are solved in lockstep: every block of candidates (the seeds of
both, each base-grid block, each polish round's boxes around both
incumbents) is measured, masked and gated once, and each branch then takes
the argmin of its own part under its own ``I_Q`` test.
``Problem`` holds one (channel, input, rate, configuration) and solves both
exponents, the level extrema and the interference level with one masked
argmin (``_scan``) and one shrinking-box loop (``_polish``); the public
functions build one per call. The base-grid measure arrays do not depend on
the rate or the threshold; they are kept per channel, input and grid in
``_BUNDLES``, a ``_memo.Memo`` (the package's one locked, byte-bounded LRU)
of at most 256 MiB.
Joint types that violate the channel support carry an infinite conditional
divergence and a level of ``-inf``, so they are never feasible; that is what
produces the strictly positive false-alarm floor on singular channels such as
the Z-channel. The candidate lists drop them before any measure is computed.

Determinism: candidates are scanned in a fixed row-major order, the first
incumbent wins ties, and refinement only replaces an incumbent on a strict
improvement.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from ._memo import Memo
from .measures import (
    SUPPORT_ATOL,
    Channel,
    Distribution,
    JointType,
    cond_entropy_vec,
    cond_kl_vec,
    entropy_vec,
    kl_vec,
    mix_vec,
    output_marginal,
)

_BRANCH_TOL = 1e-12
_CHUNK_ROWS = 1 << 18
_SIMPLEX_TOL = 1e-9
_DELTA_QUANT = 6  # decimal places used to memoize the interference ceiling

BULK = "bulk"
SPARSE = "sparse"


@dataclass(frozen=True)
class SolverConfig:
    """Grid-and-polish solver settings.

    ``grid_points_per_dim`` is the number of samples per free conditional
    coordinate, ``refinement_rounds`` local polish passes shrink the search
    box by ``refinement_shrink`` around the incumbent each round.
    """

    grid_points_per_dim: int = 401
    refinement_rounds: int = 4
    refinement_shrink: float = 0.1

    def __post_init__(self):
        if self.grid_points_per_dim < 17:
            raise ValueError("grid_points_per_dim must be >= 17")
        if self.refinement_rounds < 0:
            raise ValueError("refinement_rounds must be >= 0")
        if not (0.0 < self.refinement_shrink < 1.0):
            raise ValueError("refinement_shrink must lie in (0, 1)")


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


class _Bundle:
    """Measure arrays for a block of candidate conditionals. Everything here
    is threshold- and rate-independent, so grid bundles can be cached per
    channel and reused across solver calls; ``at_rate`` attaches the level."""

    __slots__ = ("cond", "q_y", "d_m", "d_c", "i_q")

    def __init__(self, cond, w_rows, p_in, p_out_probs):
        self.cond = cond
        self.q_y = mix_vec(cond, p_in)
        self.d_m = kl_vec(self.q_y, p_out_probs)
        self.d_c = cond_kl_vec(cond, w_rows, p_in)
        self.i_q = np.maximum(
            entropy_vec(self.q_y) - cond_entropy_vec(cond, p_in), 0.0)

    @property
    def nbytes(self) -> int:
        return sum(getattr(self, name).nbytes for name in self.__slots__)

    def at_rate(self, rate: float) -> _RatedBundle:
        with np.errstate(invalid="ignore"):
            raw = self.d_m - self.d_c + np.maximum(self.i_q - rate, 0.0)
        lam = np.where(np.isfinite(self.d_c), raw, -np.inf)
        return _RatedBundle(self.cond, self.q_y, self.d_m, self.d_c,
                            self.i_q, lam)


def _row_grid(ny: int, g: int, lo=None, hi=None) -> list[np.ndarray]:
    """Candidate stochastic rows, one array per box: coordinates 1..ny-1 are
    gridded over the box's per-coordinate bounds (rows of ``lo`` and
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
    head = 1.0 - free.sum(axis=-1)
    rows = np.concatenate([np.clip(head, 0.0, 1.0)[..., None], free], axis=-1)
    return [box[keep] for box, keep in zip(rows, head >= -_SIMPLEX_TOL)]


def _in_support(rows: np.ndarray, support: np.ndarray) -> np.ndarray:
    """The candidate rows with no mass above ``SUPPORT_ATOL`` outside
    ``support``, in their original order."""
    return rows[~(rows[:, ~support] > SUPPORT_ATOL).any(axis=1)]


def _joint_chunks(products: Sequence[Optional[Sequence[np.ndarray]]]
                  ) -> Iterator[tuple[np.ndarray, list[tuple[int, int, int]]]]:
    """Cartesian products of per-input row candidates, each in row-major
    order (first input slowest), laid end to end and yielded in blocks of at
    most ``_CHUNK_ROWS`` rows. ``products`` holds one list of per-input rows
    per incumbent, or None for an incumbent with no candidates; each block
    comes with its parts ``(k, lo, hi)``: rows ``lo:hi`` belong to product
    ``k``."""
    sizes = [0 if rows is None else math.prod(len(r) for r in rows)
             for rows in products]
    ends = list(itertools.accumulate(sizes))
    for start in range(0, ends[-1], _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, ends[-1])
        parts, pieces = [], []
        for k, (rows, size, end) in enumerate(zip(products, sizes, ends)):
            begin = end - size
            lo, hi = max(begin, start), min(end, stop)
            if lo >= hi:
                continue
            parts.append((k, lo - start, hi - start))
            rem = np.arange(lo - begin, hi - begin)
            cond = np.empty((rem.size, len(rows), rows[0].shape[1]))
            for x in range(len(rows) - 1, -1, -1):
                cond[:, x, :] = rows[x][rem % len(rows[x])]
                rem = rem // len(rows[x])
            pieces.append(cond)
        yield np.concatenate(pieces) if len(pieces) > 1 else pieces[0], parts


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


def _masked(block, objective, feasible) -> np.ndarray:
    """The objective on feasible candidates; +inf elsewhere and for NaN."""
    with np.errstate(invalid="ignore"):
        masked = np.where(feasible(block), objective(block), np.inf)
    return np.where(np.isnan(masked), np.inf, masked)


def _scan(blocks, objective, feasible, bests: list[Optional[_Incumbent]],
          narrow=None) -> list[Optional[_Incumbent]]:
    """Masked argmin over candidate blocks for several incumbents at once.

    ``blocks`` yields ``(block, parts)``: the block is anything with a
    ``cond`` array, and a part ``(k, lo, hi)`` hands its candidates
    ``lo:hi`` to incumbent ``k``. The objective and ``feasible`` are
    evaluated once per block; ``narrow(block, k, lo, hi)``, if given,
    returns a further mask for the part of incumbent ``k``, or None. Per
    incumbent, blocks are scanned in order: the first candidate wins a tie,
    and the incumbent is replaced only on a strict improvement."""
    bests = list(bests)
    for block, parts in blocks:
        masked = _masked(block, objective, feasible)
        for k, lo, hi in parts:
            part = masked[lo:hi]
            mask = None if narrow is None else narrow(block, k, lo, hi)
            if mask is not None:
                part = np.where(mask, part, np.inf)
            j = int(np.argmin(part))
            v = float(part[j])
            if math.isfinite(v) and (bests[k] is None or v < bests[k].value):
                bests[k] = _Incumbent(v, np.array(block.cond[lo + j]))
    return bests


def _polish(bests: list[Optional[_Incumbent]], free_rows: int, points: int,
            evaluate, cfg: SolverConfig) -> list[Optional[_Incumbent]]:
    """Shrinking-box polish of several incumbents in lockstep; None entries
    are left as they are.

    Round ``level`` grids a box of width ``refinement_shrink ** level``,
    clipped to [0, 1], around each of the first ``free_rows`` rows of every
    incumbent, all boxes in one ``_row_grid`` call with ``points`` samples
    per free coordinate. It lists each incumbent's own row first, so that it
    wins ties, and passes the row lists (per incumbent one list per input,
    or None) to ``evaluate(row_lists, bests)``, which returns the new
    incumbents.
    """
    live = [k for k, best in enumerate(bests) if best is not None]
    if not live:
        return bests
    for level in range(1, cfg.refinement_rounds + 1):
        width = cfg.refinement_shrink ** level
        rows = np.concatenate([bests[k].cond[:free_rows] for k in live])
        boxes = _row_grid(rows.shape[1], points,
                          np.clip(rows[:, 1:] - width / 2, 0.0, 1.0),
                          np.clip(rows[:, 1:] + width / 2, 0.0, 1.0))
        lists = iter([np.vstack([row[None, :], box])
                      for row, box in zip(rows, boxes)])
        bests = evaluate([None if best is None
                          else list(itertools.islice(lists, free_rows))
                          for best in bests], bests)
    return bests


def _finite_level(b):
    return np.isfinite(b.lam)


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


def _fiber(first_rows: np.ndarray, q_out: np.ndarray, w: Channel,
           p_in: np.ndarray, rate: float) -> _Fiber:
    """Fiber candidates with the row of the last input with positive mass
    derived from the output-marginal constraint; feasible where that row is
    stochastic, the conditional divergence finite and the mutual
    information at most ``rate``. ``first_rows`` are the rows of the other
    inputs, and the rows of ``cond`` are in ``_fiber_order``. ``q_out`` may
    carry leading axes (``(..., 1, ny)`` against ``(rows, X - 1, ny)`` free
    rows) to evaluate several fibers at once."""
    order = _fiber_order(p_in)
    p_in, w_rows = p_in[order], w.rows[order]
    partial = np.einsum("...xy,x->...y", first_rows, p_in[:-1])
    last = (q_out - partial) / p_in[-1]
    valid = (last >= -_SIMPLEX_TOL).all(axis=-1)
    last = np.clip(last, 0.0, 1.0)
    first_rows = np.broadcast_to(first_rows,
                                 last.shape[:-1] + first_rows.shape[-2:])
    cond = np.concatenate([first_rows, last[..., None, :]], axis=-2)
    d_c = cond_kl_vec(cond, w_rows, p_in)
    i_q = np.maximum(entropy_vec(q_out) - cond_entropy_vec(cond, p_in), 0.0)
    return _Fiber(cond, d_c,
                  valid & np.isfinite(d_c) & (i_q <= rate + _BRANCH_TOL))


class Problem:
    """Both exponent problems for one channel, input distribution, rate and
    solver configuration.

    The output marginal is derived once. The per-branch level extrema, which
    seed the exponent solves, and the memo of the interference-ceiling gate
    do not depend on the threshold; they are computed on first use and
    kept, so a threshold sweep should build one instance per rate.
    """

    def __init__(self, w: Channel, p_in: Distribution, rate: float,
                 cfg: Optional[SolverConfig] = None):
        if not rate >= 0.0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        self.w = w
        self.p_in = p_in
        self.rate = rate
        self.cfg = cfg or default_config(w)
        self.p_out = output_marginal(p_in, w)
        self._extrema: dict[tuple, Optional[_Incumbent]] = {}

    @cached_property
    def _gate(self) -> _CeilingGate:
        return _CeilingGate(self)

    def _rated(self, cond: np.ndarray) -> _RatedBundle:
        return _Bundle(cond, self.w.rows, self.p_in.probs,
                       self.p_out.probs).at_rate(self.rate)

    def _pruned(self, row_lists: Sequence[np.ndarray],
                inputs: Optional[Sequence[int]] = None) -> list[np.ndarray]:
        """Row lists for ``inputs`` (by default the first ``len(row_lists)``
        inputs) without the rows that make ``D_c`` infinite: rows with mass
        outside the support of ``W(.|x)`` for an input with positive
        probability. Every scan already rejects those candidates, and the
        survivors keep their order, so each scan picks the same candidate
        as on the full lists."""
        if inputs is None:
            inputs = range(len(row_lists))
        return [rows if self.p_in.probs[x] <= SUPPORT_ATOL
                else _in_support(rows, self.w.support_mask[x])
                for rows, x in zip(row_lists, inputs)]

    def _fiber_rows(self, row_lists: Sequence[np.ndarray]
                    ) -> Iterator[np.ndarray]:
        """Free fiber rows from row lists for every input but the one whose
        row the output marginal determines (see ``_fiber``)."""
        chunks = _joint_chunks(
            [self._pruned(row_lists, _fiber_order(self.p_in.probs)[:-1])])
        return (cond for cond, _ in chunks)

    def _base(self):
        """Measure bundles of the base grid, kept in ``_BUNDLES`` per
        channel, input and grid when at most ``_CACHE_CANDIDATE_LIMIT``
        candidates survive pruning, otherwise streamed."""
        w, g = self.w, self.cfg.grid_points_per_dim
        row_lists = self._pruned([_row_grid(w.num_outputs, g)[0]]
                                 * w.num_inputs)
        bundles = (_Bundle(cond, w.rows, self.p_in.probs, self.p_out.probs)
                   for cond, _ in _joint_chunks([row_lists]))
        if math.prod(len(r) for r in row_lists) > _CACHE_CANDIDATE_LIMIT:
            return bundles
        key = (w.rows.tobytes(), self.p_in.probs.tobytes(), g)
        return _BUNDLES.get(key, lambda: tuple(bundles))

    def _solve(self, objective, feasible, seeds: dict
               ) -> list[Optional[_Incumbent]]:
        """Minimize ``objective`` over the ``feasible`` candidates of every
        branch that ``seeds`` maps to its seed conditionals (``BULK``,
        ``SPARSE``, or None for no mutual-information test), in lockstep.

        The seeds of all branches form one bundle, scanned first so that a
        seed wins all ties; then come the base grid and the polish rounds.
        Each block's objective and ``feasible`` are evaluated once for every
        branch, and each branch applies only its own ``I_Q`` test to its own
        part. Returns one incumbent per branch, None where nothing is
        feasible; such a branch is not polished.
        """
        branches = list(seeds)
        rate = self.rate

        def in_branch(block, k, lo, hi):
            if branches[k] == BULK:
                return block.i_q[lo:hi] <= rate + _BRANCH_TOL
            if branches[k] == SPARSE:
                return block.i_q[lo:hi] >= rate - _BRANCH_TOL
            return None

        sizes = [len(s) for s in seeds.values()]
        seeded = [(self._rated(np.stack(sum(seeds.values(), []))),
                   [(k, end - size, end) for k, (size, end) in
                    enumerate(zip(sizes, itertools.accumulate(sizes)))])]
        base = (bundle.at_rate(rate) for bundle in self._base())
        blocks = itertools.chain(
            seeded, ((b, [(k, 0, len(b.cond)) for k in range(len(sizes))])
                     for b in base))
        bests = _scan(blocks, objective, feasible, [None] * len(sizes),
                      in_branch)

        def evaluate(row_lists, bests):
            chunks = _joint_chunks([None if rows is None else self._pruned(rows)
                                    for rows in row_lists])
            return _scan(((self._rated(cond), parts) for cond, parts in chunks),
                         objective, feasible, bests, in_branch)

        points = _refine_points(self.w.num_outputs,
                                self.cfg.grid_points_per_dim)
        return _polish(bests, self.w.num_inputs, points, evaluate, self.cfg)

    def level_extremum(self, minimize: bool, branch: Optional[str] = None
                       ) -> Optional[_Incumbent]:
        """Polished extremum of the level within one branch, or over both
        when ``branch`` is None. Thin feasible slivers near a branch's level
        extremum fall between base grid points, so each branch's exponent
        solve is seeded with this point. Asking for one branch solves both
        in lockstep and keeps both."""
        key = (minimize, branch)
        if key not in self._extrema:
            sign = 1.0 if minimize else -1.0
            group = (None,) if branch is None else (BULK, SPARSE)
            found = self._solve(lambda b: sign * b.lam, _finite_level,
                                {br: [self.w.rows] for br in group})
            for br, res in zip(group, found):
                if res is not None:
                    res.value = sign * res.value
                self._extrema[minimize, br] = res
        return self._extrema[key]

    def _seeds(self, minimize: bool, branch: str) -> list[np.ndarray]:
        extremum = self.level_extremum(minimize, branch)
        return [self.w.rows] + ([] if extremum is None else [extremum.cond])

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

    def fa(self, tau: float) -> ExponentResult:
        """False-alarm exponent at threshold ``tau`` (see ``fa_exponent``)."""
        def base(b):
            return np.isfinite(b.lam) & (b.lam >= tau)

        return self._result(*self._solve(
            self._fa_cost, base,
            {branch: self._seeds(False, branch) for branch in (BULK, SPARSE)}))

    def md(self, tau: float) -> ExponentResult:
        """Missed-detection exponent at threshold ``tau`` (see
        ``md_exponent``); the interference ceiling binds when the rate is
        positive and ``tau <= 0``."""
        bottoms = [self.level_extremum(True, branch)
                   for branch in (BULK, SPARSE)]
        lam_min = min((b.value for b in bottoms if b is not None),
                      default=math.inf)
        if not lam_min < tau:
            return ExponentResult(math.inf, None, None, False)
        gate = self._gate if self.rate > 0 and tau <= 0 else None

        def base(b):
            mask = np.isfinite(b.d_c) & (b.lam <= tau)
            if gate is not None and mask.any():
                idx = np.flatnonzero(mask)
                mask[idx] = gate.values(b.q_y[idx]) <= tau
            return mask

        return self._result(*self._solve(
            lambda b: b.d_c, base,
            {branch: self._seeds(True, branch) for branch in (BULK, SPARSE)}))

    def count_near_minimum(self, value: float, atol: float = 1e-9) -> int:
        """Number of base-grid candidates with a finite level whose
        false-alarm cost is within ``atol`` of ``value`` (multiplicity of a
        tie-broken unconstrained minimum)."""
        return sum(
            int(np.count_nonzero(_masked(bundle.at_rate(self.rate),
                                         self._fa_cost, _finite_level)
                                 <= value + atol))
            for bundle in self._base())

    def _fiber_min(self, q_out: np.ndarray, first_rows, best=None
                   ) -> Optional[_Incumbent]:
        """Scan the fiber of ``q_out`` over blocks of free rows for the
        smallest feasible ``D_c``."""
        fibers = (_fiber(fr, q_out, self.w, self.p_in.probs, self.rate)
                  for fr in first_rows)
        return _scan(((f, [(0, 0, len(f.cond))]) for f in fibers),
                     lambda f: f.d_c, lambda f: f.feasible, [best])[0]

    def interference_level(self, q_out: np.ndarray) -> float:
        """Polished interference level of the output marginal ``q_out`` (see
        the module function ``interference_level``)."""
        d_m = float(kl_vec(q_out, self.p_out.probs))
        if not math.isfinite(d_m):
            return -math.inf
        ny, g = self.w.num_outputs, self.cfg.grid_points_per_dim

        def evaluate(row_lists, bests):
            return [self._fiber_min(q_out, self._fiber_rows(row_lists[0]),
                                    bests[0])]

        best = self._fiber_min(q_out, self._fiber_rows(
            [_row_grid(ny, g)[0]] * (self.w.num_inputs - 1)))
        if best is None:
            return -math.inf
        best, = _polish([best], self.w.num_inputs - 1, g, evaluate, self.cfg)
        return d_m - best.value


def fa_exponent(w: Channel, p_in: Distribution, tau: float, rate: float,
                cfg: Optional[SolverConfig] = None) -> ExponentResult:
    """False-alarm exponent at threshold ``tau`` and codebook rate ``rate``.

    Minimizes ``D_m + [I_Q - R]_+`` over joint types whose level is at least
    ``tau``; returns an infeasible result (value ``+inf``) when no type
    reaches the threshold. ``tau = -inf`` is accepted and yields the
    unconstrained minimum over channel-compatible types.
    """
    return Problem(w, p_in, rate, cfg).fa(tau)


def md_exponent(w: Channel, p_in: Distribution, tau: float, rate: float,
                cfg: Optional[SolverConfig] = None) -> ExponentResult:
    """Missed-detection exponent at threshold ``tau`` and rate ``rate > 0``.

    Minimizes ``D_c`` over the closure of the strict sublevel set of the
    likelihood-ratio level; feasibility requires the level minimum to lie
    strictly below ``tau``. For ``tau <= 0`` candidates must additionally
    keep the interference ceiling of their output marginal below ``tau``.
    """
    if rate == 0:
        raise ValueError(
            "rate = 0 reduces to a single-codeword test; use r0_exponents")
    if not rate > 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    return Problem(w, p_in, rate, cfg).md(tau)


def r0_exponents(w: Channel, p_in: Distribution, tau: float,
                 cfg: Optional[SolverConfig] = None
                 ) -> tuple[ExponentResult, ExponentResult]:
    """Both exponents for a single-codeword codebook (rate zero).

    The two variational problems are solved with the rate pinned at zero and
    the interference ceiling disabled, since a lone codeword has nothing to
    interfere with it.
    """
    problem = Problem(w, p_in, 0.0, cfg)
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
        w = problem.w
        lists = [_row_grid(w.num_outputs, problem.cfg.grid_points_per_dim)[0]
                 ] * (w.num_inputs - 1)
        self.first_rows = np.concatenate(list(problem._fiber_rows(lists)),
                                         axis=0)

    def values(self, q_y_block: np.ndarray) -> np.ndarray:
        rounded = np.round(q_y_block, _DELTA_QUANT)
        # one bytes key per rounded row
        keys = rounded.view(np.dtype((np.void, rounded.itemsize
                                      * rounded.shape[1]))).ravel().tolist()
        unseen = {key: q for key, q in zip(keys, rounded)
                  if key not in self.memo}
        if unseen:
            problem = self.problem
            fresh = np.array(list(unseen.values()))
            level = kl_vec(fresh, problem.p_out.probs)
            finite = np.flatnonzero(np.isfinite(level))
            level[~np.isfinite(level)] = -np.inf
            step = max(1, _CHUNK_ROWS // len(self.first_rows))
            for start in range(0, finite.size, step):
                idx = finite[start:start + step]
                fib = _fiber(self.first_rows, fresh[idx, None, :], problem.w,
                             problem.p_in.probs, problem.rate)
                d_c = _masked(fib, lambda f: f.d_c, lambda f: f.feasible)
                level[idx] -= d_c.min(axis=1)
            self.memo.update(zip(unseen, map(float, level)))
        return np.array([self.memo[key] for key in keys])


def interference_level(q_out: Distribution, w: Channel, p_in: Distribution,
                       rate: float, cfg: Optional[SolverConfig] = None) -> float:
    """Largest level achievable by joint types with output marginal ``q_out``
    and mutual information at most ``rate``.

    Returns ``-inf`` when no channel-compatible type meets both constraints;
    the data-processing inequality caps the value at zero otherwise. Uses the
    fiber parameterization (all conditional rows free except the last, which
    is solved from the marginal constraint) with the same shrinking-box
    polish as the exponent solvers.
    """
    if not rate > 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    return Problem(w, p_in, rate, cfg).interference_level(q_out.probs)
