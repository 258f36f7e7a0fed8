"""Finite-blocklength validation: fixed-composition codebooks, the induced
output mixture, likelihood-ratio statistics, type-class codeword counts, and
exact or Monte Carlo error probabilities of the threshold test.

Randomness. Codebooks use numpy's PCG64 bit generator. A run is keyed by a
user seed; trial ``t`` of a Monte Carlo run draws from
``PCG64(SeedSequence((seed, t)))``, so trials are independent streams and
results do not depend on scheduling or worker count. Consecutive trials are
drawn and summed in groups of at most ``_GROUP_ELEMENTS`` array elements
(but one trial), which bounds a group's memory. Groups run in the calling
thread, because their small numpy calls hold the GIL, unless one trial
exceeds ``_GROUP_ELEMENTS``: then each trial is a group of its own, and
they run on the worker pool, capped by ``SOFTCOVER_THREADS``. The pairs
are byte-identical for any grouping and any thread count.

Exact sums for a fixed codebook run over the whole output space, which is
capped at ``EXHAUSTIVE_BUDGET`` sequences; per-trial error probabilities are
exact and only the codebook average is sampled. Each codeword adds its
likelihood only to the outputs it can reach, so the work per codeword scales
with those: 2^k outputs for a Z-channel codeword with k ones; logs and
statistics are formed only at outputs that some codeword reaches. A
likelihood sums its ``n`` log transition probabilities in numpy's pairwise
order for a row of ``n`` terms, reproduced by adding whole columns of the
gathered logs (``_column_sums``). The
tables that do not depend on the codebook are kept across trials in
``_TABLES``, a ``_memo.Memo`` (the same locked, byte-bounded LRU as the
solver's bundle cache) of at most 64 MiB.

At rate 0 the statistic depends on the output only through its joint type
with the codeword, so the exact rate-0 sums run over joint type classes
instead (method of types), capped at ``TYPE_CLASS_BUDGET`` classes; for a
binary channel with uniform input that reaches n = 2894.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .measures import (
    Channel,
    Distribution,
    JointType,
    channel_surprisal,
    entropy_vec,
    kl_vec,
)
from ._memo import Memo
from ._pool import map_indexed

EXHAUSTIVE_BUDGET = 20_000_000
TYPE_CLASS_BUDGET = 1 << 21
_ENUM_CHUNK = 1 << 16
_GATHER_ELEMENTS = 1 << 20
_GROUP_ELEMENTS = 1 << 17  # also the crossover of one thread and two
_TABLE_ROWS = 1 << 13


class CompositionError(ValueError):
    """The requested blocklength cannot carry the input distribution."""


class BudgetError(ValueError):
    """Exhaustive output enumeration would exceed the sequence budget."""


def quantized_composition(n: int, p_in: Distribution) -> np.ndarray:
    """Integer symbol counts approximating ``n * p_in``.

    Counts are rounded to the nearest integers with a largest-remainder fix
    so they sum to ``n``. Blocklengths that would distort some symbol's mass
    by half a slot or more (rounding ties included, e.g. odd ``n`` for a
    uniform binary input) are rejected along with a suggestion of a nearby
    valid blocklength.
    """
    if n < 1:
        raise CompositionError(f"blocklength must be >= 1, got {n}")
    raw = n * p_in.probs
    counts = np.floor(raw).astype(np.int64)
    deficit = n - int(counts.sum())
    if deficit:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:deficit]] += 1
    err = np.abs(counts - raw)
    worst = int(np.argmax(err))
    if err[worst] >= 0.5 - 1e-9:
        suggestion = _suggest_blocklength(n, p_in)
        hint = f"; try n = {suggestion}" if suggestion else ""
        raise CompositionError(
            f"blocklength {n} distorts the mass of symbol {worst} by "
            f"{err[worst] / n:.3g} (more than half a slot){hint}")
    return counts


def _suggest_blocklength(n: int, p_in: Distribution) -> Optional[int]:
    for cand in range(n + 1, n + 8 * p_in.size + 1):
        raw = cand * p_in.probs
        if np.all(np.abs(raw - np.round(raw)) < 0.5 - 1e-9):
            return cand
    return None


@dataclass(frozen=True, eq=False)
class Codebook:
    """Fixed-composition codebook: ``M`` rows of length ``n`` over the input
    alphabet, every row a permutation of the same symbol counts."""

    codewords: np.ndarray
    n: int
    rate_nominal: float
    composition: np.ndarray

    def __init__(self, codewords, n: int, rate_nominal: float, composition):
        mat = np.array(codewords, dtype=np.int64)
        comp = np.array(composition, dtype=np.int64)
        if mat.ndim != 2 or mat.shape[1] != n:
            raise ValueError("codewords must be an (M, n) integer matrix")
        if mat.shape[0] < 1:
            raise ValueError("a codebook holds at least one codeword")
        _check_type_class(mat, comp)
        mat.setflags(write=False)
        comp.setflags(write=False)
        object.__setattr__(self, "codewords", mat)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rate_nominal", rate_nominal)
        object.__setattr__(self, "composition", comp)

    @property
    def size(self) -> int:
        return self.codewords.shape[0]

    @property
    def realized_rate(self) -> float:
        return math.log(self.size) / self.n


def codebook_size(n: int, rate: float) -> int:
    return max(1, round(math.exp(n * rate)))


def _check_type_class(mat: np.ndarray, comp: np.ndarray):
    """Raise unless every row of ``mat`` is in the type class of ``comp``."""
    # a row is in the type class iff, sorted, it is the base word of the
    # composition; a symbol outside the alphabet never is
    base = np.repeat(np.arange(comp.size), np.maximum(comp, 0))
    if base.size == mat.shape[1] and (comp >= 0).all():
        wrong = (np.sort(mat, axis=1) != base).any(axis=1)
    else:
        wrong = np.ones(mat.shape[0], dtype=bool)
    if wrong.any():
        raise ValueError(f"codeword {int(np.argmax(wrong))} is not in the "
                         f"type class")


def _base_words(m: int, counts: np.ndarray) -> np.ndarray:
    """``m`` copies of the base word of ``counts``, the symbols in order."""
    return np.tile(np.repeat(np.arange(counts.size, dtype=np.int64), counts),
                   (m, 1))


def _check_seed(seed) -> None:
    """Reject a negative seed, or a tuple of seeds with a negative entry,
    before numpy does with a message that names no argument."""
    parts = seed if isinstance(seed, tuple) else (seed,)
    if any(part < 0 for part in parts):
        raise ValueError(f"seed must be >= 0, got {seed}")


def _draw(words: np.ndarray, seed) -> np.ndarray:
    """A copy of ``words`` with each row shuffled on the PCG64 stream of
    ``seed``: codewords drawn uniformly from their type class."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return rng.permuted(words, axis=1)


def sample_codebook(n: int, rate: float, p_in: Distribution, seed) -> Codebook:
    """Draw ``round(e^{n rate})`` codewords uniformly from the quantized type
    class; ``seed`` may be an integer or a tuple of integers."""
    if rate < 0:
        raise ValueError(f"rate must be >= 0, got {rate}")
    _check_seed(seed)
    counts = quantized_composition(n, p_in)
    return Codebook(_draw(_base_words(codebook_size(n, rate), counts), seed),
                    n, rate, counts)


def sample_codebooks(n: int, rate: float, counts: np.ndarray, seed: int,
                     trials: range) -> np.ndarray:
    """The codebooks of Monte Carlo ``trials``, as a (trials, M, n) array:
    trial ``t`` is ``sample_codebook``'s draw from ``(seed, t)``. Every
    codeword is checked against the type class of ``counts`` in one
    sort."""
    words = _base_words(codebook_size(n, rate), counts)
    books = np.stack([_draw(words, (seed, t)) for t in trials])
    _check_type_class(books.reshape(-1, n), counts)
    return books


def mixture_prob(cb: Codebook, w: Channel, y) -> float:
    """Probability of ``y`` under the codebook-averaged channel output."""
    y = _as_sequence(y, cb.n, w.num_outputs)
    per = w.rows[cb.codewords, np.broadcast_to(y, cb.codewords.shape)]
    return float(per.prod(axis=1).mean())


def _as_sequence(y, n: int, ny: int) -> np.ndarray:
    arr = np.asarray(y, dtype=np.int64)
    if arr.shape != (n,):
        raise ValueError(f"sequence must have length {n}")
    if arr.min() < 0 or arr.max() >= ny:
        raise ValueError("sequence contains symbols outside the alphabet")
    return arr


def llr(cb: Codebook, w: Channel, p_out: Distribution, y) -> float:
    """Normalized log-likelihood ratio of the mixture against the product
    distribution; ``-inf`` when the mixture assigns zero to ``y``."""
    y = _as_sequence(y, cb.n, w.num_outputs)
    p_null = float(np.prod(p_out.probs[y]))
    if p_null <= 0.0:
        raise ValueError("y has zero probability under the null product law")
    mix = mixture_prob(cb, w, y)
    if mix == 0.0:
        return -math.inf
    return (math.log(mix) - math.log(p_null)) / cb.n


def joint_type_counts(x: np.ndarray, y: np.ndarray, nx: int, ny: int
                      ) -> np.ndarray:
    """Occurrence counts of each (input, output) symbol pair."""
    codes = np.asarray(x) * ny + np.asarray(y)
    return np.bincount(codes, minlength=nx * ny).reshape(nx, ny)


def _counts_to_joint_type(counts: np.ndarray, n: int) -> JointType:
    row_sums = counts.sum(axis=1)
    cond = np.empty(counts.shape, dtype=float)
    for a in range(counts.shape[0]):
        if row_sums[a] > 0:
            cond[a] = counts[a] / row_sums[a]
        else:
            cond[a] = 1.0 / counts.shape[1]  # unused input symbol
    return JointType(Distribution(row_sums / n), cond)


def llr_from_types(cb: Codebook, w: Channel, p_out: Distribution, y) -> float:
    """Likelihood-ratio statistic recomputed through the type decomposition
    of the unnormalized mixture: codewords are grouped by their joint type
    with ``y``, each group contributes its count times the per-type channel
    likelihood, and the null probability enters through the entropy and
    divergence of the empirical output type. Independent of
    :func:`mixture_prob`, which multiplies raw transition probabilities."""
    y = _as_sequence(y, cb.n, w.num_outputs)
    n = cb.n
    groups: dict[bytes, list] = {}
    for m in range(cb.size):
        counts = joint_type_counts(cb.codewords[m], y, w.num_inputs,
                                   w.num_outputs)
        key = counts.tobytes()
        if key in groups:
            groups[key][0] += 1
        else:
            groups[key] = [1, counts]
    s_total = 0.0
    for count, counts in groups.values():
        surprisal = channel_surprisal(_counts_to_joint_type(counts, n), w)
        s_total += count * math.exp(-n * surprisal)
    if s_total == 0.0:
        return -math.inf
    y_type = np.bincount(y, minlength=w.num_outputs) / n
    h_y = float(entropy_vec(y_type))
    d_m = float(kl_vec(y_type, p_out.probs))
    return math.log(s_total) / n - cb.realized_rate + h_y + d_m


def tce(cb: Codebook, y, counts) -> int:
    """Number of codewords whose joint type with ``y`` equals ``counts``."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 2:
        raise ValueError("counts must be a 2-D integer matrix")
    y = _as_sequence(y, cb.n, counts.shape[1])
    if counts.sum() != cb.n:
        raise ValueError("joint counts must sum to the blocklength")
    if not np.array_equal(counts.sum(axis=1), cb.composition):
        raise ValueError("input marginal of counts must match the codebook "
                         "composition")
    y_marg = np.bincount(y, minlength=counts.shape[1])
    if not np.array_equal(counts.sum(axis=0), y_marg):
        raise ValueError("output marginal of counts must match the type of y")
    nx, ny = counts.shape
    codes = cb.codewords * ny + y[None, :]
    hist = np.zeros((cb.size, nx * ny), dtype=np.int64)
    np.add.at(hist, (np.arange(cb.size)[:, None], codes), 1)
    return int((hist == counts.ravel()).all(axis=1).sum())


def s_threshold(tau: float, rate: float, y, p_out: Distribution) -> float:
    """Exponent of the acceptance threshold on the unnormalized mixture: the
    test accepts the codeword hypothesis iff the unnormalized mixture is at
    least ``e^{n * s_threshold}``. Pass the realized rate of the codebook."""
    y = np.asarray(y, dtype=np.int64)
    y_type = np.bincount(y, minlength=p_out.size) / y.size
    h_y = float(entropy_vec(y_type))
    d_m = float(kl_vec(y_type, p_out.probs))
    return tau + rate - h_y - d_m


# ---------------------------------------------------------------------------
# exact error probabilities by exhaustive output enumeration
# ---------------------------------------------------------------------------

# tables shared by every trial on the same channel, input composition and
# output law: the reachable outputs of the base word (``_Reach``) and the
# null probabilities of each output block; at most 64 MiB
_TABLES = Memo(1 << 26)


def _null_block(n: int, log_p: np.ndarray, start: int, stop: int) -> tuple:
    """Log and plain null probabilities of outputs ``start`` to ``stop - 1``
    (in base ``ny``, the first position most significant)."""
    ny = log_p.size
    # the budget keeps every output index below 2**31
    powers = ny ** np.arange(n - 1, -1, -1, dtype=np.int32)
    digits = (np.arange(start, stop, dtype=np.int32)[:, None] // powers) % ny
    lp_null = log_p[digits].sum(axis=1)
    return lp_null, np.exp(lp_null)


class _Reach:
    """The outputs a codeword of one composition can produce: at position
    ``i`` exactly the outputs ``b`` with ``W(b | x_i) > 0``.

    Input symbols with the same support form a class, and positions whose
    symbols share a class are interchangeable. The base word lists the
    classes in order, each repeated by its count in the composition. Its
    reachable outputs, in lexicographic order, are the rows of the base
    table: row ``r`` is ``r`` written in the mixed radix of the support
    sizes. A codeword whose positions, stably sorted by class, are
    ``order`` reads base column ``j`` at position ``order[j]``. With a
    single class that is the identity for every codeword, and the rows are
    in output order.

    The table is cut into chunks of at most ``_TABLE_ROWS / nx`` rows that
    share their first ``cut`` digits: a chunk is its prefix in front of the
    digits of the last ``n - cut`` columns, which all chunks share, so no
    chunk needs a division per digit. Chunks are kept in ``_TABLES`` when
    the whole table fits in half of it."""

    def __init__(self, w: Channel, composition: np.ndarray, key: tuple):
        used = np.flatnonzero(composition)
        supports, which = np.unique(w.rows[used] > 0, axis=0,
                                    return_inverse=True)
        self.classes = np.zeros(w.num_inputs, dtype=np.int64)
        self.classes[used] = which.reshape(-1)
        self.base = np.repeat(
            np.arange(len(supports)),
            np.bincount(self.classes[used], weights=composition[used]
                        ).astype(np.int64))
        self.shared = len(supports) == 1
        # symbols[c, d] is the d-th output in the support of class c
        self.symbols = np.argsort(~supports, axis=1, kind="stable")
        self.radix = supports.sum(axis=1)[self.base]
        # rows from column j on: tail[j] = prod(radix[j:]), tail[n] = 1
        tail = np.append(np.cumprod(self.radix[::-1])[::-1], 1)
        self.place = tail[1:]
        self.rows = int(tail[0])
        self.cut = int(np.argmax(tail <= max(1, _TABLE_ROWS // w.num_inputs)))
        self.chunk = int(tail[self.cut])
        self.suffix = self._digits(np.arange(self.chunk)[:, None],
                                   slice(self.cut, None))
        self.ny = w.num_outputs
        self.key = key
        with np.errstate(divide="ignore"):
            self.log_w = np.log(w.rows)
        self.keep = (self.rows * self.base.size * (w.num_inputs + 2) * 8
                     <= _TABLES.max_bytes // 2)
        self.nbytes = sum(a.nbytes for a in vars(self).values()
                          if isinstance(a, np.ndarray))

    @classmethod
    def of(cls, w: Channel, composition: np.ndarray) -> _Reach:
        key = (w.rows.tobytes(), w.rows.shape, composition.tobytes())
        return _TABLES.get(("reach",) + key,
                           lambda: (cls(w, composition, key),))[0]

    def _digits(self, r: np.ndarray, cols: slice) -> np.ndarray:
        """Output digits of the table rows ``r`` in the base columns
        ``cols``."""
        return self.symbols[self.base[cols],
                            (r // self.place[cols]) % self.radix[cols]]

    def table(self, c: int) -> tuple:
        """Chunk ``c``, column-major: per base column ``j`` and input ``a``
        (at ``j * nx + a``), ``log W(y_j | a)`` of every row; the output
        digits of every row, as floats, per column; and the index of each
        row's output when column ``j`` is position ``j``."""
        def build():
            prefix = self._digits(np.array([[c * self.chunk]]),
                                  slice(0, self.cut))
            digits = np.concatenate(
                [np.broadcast_to(prefix, (self.chunk, self.cut)),
                 self.suffix], axis=1).T
            n = digits.shape[0]
            index = self.ny ** np.arange(n - 1, -1, -1, dtype=np.int64
                                         ) @ digits
            return (np.take(self.log_w, digits, axis=1
                            ).transpose(1, 0, 2).reshape(-1, self.chunk),
                    digits.astype(float), index)
        return _TABLES.get(("rows",) + self.key + (c,), build, self.keep)

    def rank(self, t: int) -> int:
        """Number of table rows whose output precedes output ``t``; for a
        single class, whose rows are in output order."""
        n, ny = self.base.size, self.ny
        if t >= ny ** n:
            return self.rows
        digits = (t // ny ** np.arange(n - 1, -1, -1, dtype=np.int64)) % ny
        k = int(self.radix[0])
        sym = self.symbols[0, :k]
        less = np.searchsorted(sym, digits)
        hit = sym[np.minimum(less, k - 1)] == digits
        alive = np.concatenate([[True], np.logical_and.accumulate(hit)[:-1]])
        return int((alive * less * self.place).sum())

    def columns(self, codewords: np.ndarray) -> tuple:
        """Per position and codeword, the row of a chunk's log table that the
        position reads (``j * nx + x_i``); and per base column ``j`` and
        codeword, the output-index weight ``ny ** (n - 1 - order[j])``, as a
        float."""
        n = codewords.shape[1]
        order = np.argsort(self.classes[codewords], axis=1, kind="stable")
        inv = np.empty_like(order)
        np.put_along_axis(inv, order, np.arange(n), axis=1)
        codes = inv.T * self.log_w.shape[0] + codewords.T
        return codes, np.power(float(self.ny), n - 1 - order.T)


def _check_budget(ny: int, n: int):
    total = ny ** n
    if total > EXHAUSTIVE_BUDGET:
        raise BudgetError(
            f"{ny}^{n} = {total} output sequences exceed the exhaustive "
            f"budget of {EXHAUSTIVE_BUDGET}; reduce the blocklength or rely "
            f"on the Monte Carlo codebook average at a smaller n")


def exact_error_probs(cb: Codebook, w: Channel, p_out: Distribution,
                      tau: float) -> tuple[float, float]:
    """Exact false-alarm and missed-detection probabilities of the threshold
    test for one fixed codebook, by summing over every output sequence: the
    one-codebook call of ``group_error_probs``."""
    return group_error_probs(cb.codewords[None], cb.composition, w, p_out,
                             tau)[0]


def _column_sums(terms: np.ndarray) -> np.ndarray:
    """``terms.sum(axis=0)`` as numpy forms ``x.sum(axis=-1)`` of a row of at
    most 128 contiguous terms, bit for bit, but by elementwise adds of whole
    slices ``terms[k]``, in place: the sums overwrite ``terms`` and come out
    as the view ``terms[0]``. Fewer than 8 terms are added one by one onto
    ``0.0``. Otherwise eight running sums ``r0`` to ``r7`` add up the blocks
    of eight, ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))`` combines
    them, the terms after the last whole block are added one by one, and
    the result is added onto ``0.0``."""
    n = terms.shape[0]
    total = terms[0]
    if n < 8:
        total += 0.0
        for k in range(1, n):
            total += terms[k]
        return total
    whole = n - n % 8
    for k in range(8, whole, 8):
        terms[:8] += terms[k:k + 8]
    terms[0:8:2] += terms[1:8:2]
    terms[0:8:4] += terms[2:8:4]
    total += terms[4]
    for k in range(whole, n):
        total += terms[k]
    total += 0.0
    return total


def group_error_probs(books: np.ndarray, composition: np.ndarray, w: Channel,
                      p_out: Distribution, tau: float
                      ) -> list[tuple[float, float]]:
    """Exact (alpha, beta) of each codebook in ``books``, a (trials, M, n)
    array of codewords of one composition, summed in one pass.

    Each codeword adds its likelihood only to the outputs it can reach (see
    ``_Reach``) in its own codebook's row of a (trials, outputs) mixture; to
    any other output it would add exactly ``+0.0``. A likelihood is the sum
    of the ``n`` log transition probabilities in numpy's pairwise order for
    a row of ``n`` terms, formed by ``_column_sums`` from whole columns of
    the gathered logs; each output's mixture adds its codebook's codewords
    in index order from ``+0.0``. So no pair depends on how the work is
    split or on which other codebooks share the call. The log mixture and
    the statistic are formed only at outputs of nonzero mixture; every other
    output has statistic ``-inf`` (NaN where the null law is zero too), so
    it is accepted only at ``tau = -inf``. Each codebook's sums of a
    65,536-output block are the arrays of a plain sweep of the output space:
    the accepted null masses and the rejected mixture masses, zeros
    included, in output order.

    The output space is swept in passes of whole blocks, at most
    ``_GATHER_ELEMENTS`` outputs (but one block) each. Codewords are
    gathered in groups of at most ``_GATHER_ELEMENTS`` log-probabilities
    per chunk of reachable outputs (but one codeword). Tables that do not
    depend on the codebooks are kept across calls in ``_TABLES``, a memo of
    at most 64 MiB."""
    trials, m, n = books.shape
    _check_budget(w.num_outputs, n)
    total = w.num_outputs ** n
    reach = _Reach.of(w, composition)
    codes, weights = reach.columns(books.reshape(-1, n))
    # the codebook, and so the mixture row, of each codeword
    owner = np.repeat(np.arange(trials), m)
    with np.errstate(divide="ignore"):
        log_p = np.log(p_out.probs)
    span = max(_ENUM_CHUNK, _GATHER_ELEMENTS // _ENUM_CHUNK * _ENUM_CHUNK)
    # Where every codeword maps a table row to the same output (a single
    # class), a pass visits only its own chunks, each one shared by all
    # groups. Otherwise each group finishes its rows before the next group
    # starts, so a table of several chunks needs groups of one codeword, and
    # rows outside the pass are dropped.
    chunks = reach.rows // reach.chunk
    groups = range(0, trials * m,
                   max(1, _GATHER_ELEMENTS // (reach.chunk * n)))
    if not reach.shared and chunks > 1:
        groups = range(trials * m)
    alpha_parts = [[] for _ in range(trials)]
    beta_parts = [[] for _ in range(trials)]
    for start in range(0, total, span):
        stop = min(start + span, total)
        width = stop - start
        s_mix = np.zeros((trials, width))
        if reach.shared:
            first = reach.rank(start) // reach.chunk
            last = (reach.rank(stop) + reach.chunk - 1) // reach.chunk
            work = ((c, g) for c in range(first, last) for g in groups)
        else:
            work = ((c, g) for g in groups for c in range(chunks))
        for c, g in work:
            logs, digits, index = reach.table(c)
            group = slice(g, g + groups.step)
            lik = np.exp(_column_sums(np.take(logs, codes[:, group], axis=0)))
            if not reach.shared:
                # exact: every index and partial sum is an integer < 2**31.
                # einsum's own loop, not a matmul: BLAS spreads a product
                # this large over threads of its own, outside the pool
                index = np.einsum("jg,jr->gr", weights[:, group],
                                  digits).astype(np.int64)
            local = np.broadcast_to(index - start, lik.shape)
            out = local + owner[group, None] * width
            if width < total:
                keep = (local >= 0) & (local < width)
                out, lik = out[keep], lik[keep]
            # unbuffered and in index order, which is codeword-major: each
            # output adds its codewords in index order
            np.add.at(s_mix.reshape(-1), out.ravel(), lik.ravel())
        for a in range(0, width, _ENUM_CHUNK):
            b = min(a + _ENUM_CHUNK, width)
            lp_null, p_null = _TABLES.get(
                ("null", n, log_p.tobytes(), start + a, start + b),
                lambda: _null_block(n, log_p, start + a, start + b),
                keep=total * 16 <= _TABLES.max_bytes // 2)
            block = s_mix[:, a:b].ravel()
            outputs = b - a
            if tau == -math.inf:
                # outputs of zero mixture are accepted too where P_Y > 0
                at = np.arange(block.size)
            else:
                at = np.flatnonzero(block != 0)
            # the null tables are indexed by ``at % outputs``, by wrapping
            mix = block.take(at) / m
            with np.errstate(divide="ignore", invalid="ignore"):
                lam = (np.log(mix) - lp_null.take(at, mode="wrap")) / n
            accept = lam >= tau  # NaN (both laws zero) compares False
            taken = np.cumsum(accept)
            # per codebook, the accepted and the rejected outputs of the
            # codebooks before it
            before = np.concatenate(([0], taken))[
                np.searchsorted(at, np.arange(trials + 1) * outputs)]
            after = np.arange(trials + 1) * outputs - before
            alpha = p_null.take(at.compress(accept), mode="wrap")
            # the rejected outputs, zeros included, in output order: each
            # goes to its place less the accepted outputs before it
            beta = np.zeros(after[-1])
            reject = ~accept
            beta.put((at - taken).compress(reject), mix.compress(reject))
            for t in range(trials):
                alpha_parts[t].append(
                    float(alpha[before[t]:before[t + 1]].sum()))
                beta_parts[t].append(float(beta[after[t]:after[t + 1]].sum()))
    return [(math.fsum(a), math.fsum(b))
            for a, b in zip(alpha_parts, beta_parts)]


# ---------------------------------------------------------------------------
# codebook-averaged estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimEstimate:
    mean: float
    std_error: float
    trials: int
    seed: int


def _compositions(total: int, parts: int) -> np.ndarray:
    """Every row of ``parts`` non-negative integers summing to ``total``, in
    lexicographic order."""
    rows = np.zeros((1, 0), dtype=np.int64)
    rest = np.array([total], dtype=np.int64)
    for _ in range(parts - 1):
        reps = rest + 1
        first = (np.arange(int(reps.sum()), dtype=np.int64)
                 - np.repeat(np.cumsum(reps) - reps, reps))
        rows = np.column_stack([np.repeat(rows, reps, axis=0), first])
        rest = np.repeat(rest, reps) - first
    return np.column_stack([rows, rest])


def _r0_class_logs(n: int, w: Channel, p_in: Distribution, tau: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Per joint type class of the rate-0 test: the log null mass of each
    accepted class and the log channel mass of each rejected one (see
    ``exact_r0_error_probs``)."""
    counts = quantized_composition(n, p_in)
    support = w.rows > 0
    classes = math.prod(math.comb(int(c) + int(s) - 1, int(s) - 1)
                        for c, s in zip(counts, support.sum(axis=1)))
    if classes > TYPE_CLASS_BUDGET:
        raise BudgetError(
            f"{classes} joint type classes exceed the budget of "
            f"{TYPE_CLASS_BUDGET}; reduce the blocklength")
    with np.errstate(divide="ignore"):
        log_w = np.log(w.rows)
        log_p = np.log(p_in.probs @ w.rows)
    log_fact = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    # per class: log of its size times its null or its channel probability
    log_null = log_chan = np.zeros(1)
    for a in np.flatnonzero(counts):  # an unused symbol adds no factor
        c, sup = counts[a], support[a]
        k = _compositions(int(c), int(sup.sum()))
        log_size = log_fact[c] - log_fact[k].sum(axis=1)
        # outer sums: one entry per combination of the rows chosen so far
        log_null = np.add.outer(log_null, log_size + k @ log_p[sup]).ravel()
        log_chan = np.add.outer(log_chan,
                                log_size + k @ log_w[a, sup]).ravel()
    accept = (log_chan - log_null) / n >= tau
    return log_null[accept], log_chan[~accept]


def exact_r0_error_probs(n: int, w: Channel, p_in: Distribution, tau: float
                         ) -> tuple[float, float]:
    """Exact single-codeword error probabilities averaged over a uniformly
    drawn codeword from the type class.

    Relabeling positions permutes the output space without changing either
    the product law or the per-codeword channel law, so every codeword in the
    class yields the same sums. Given the codeword, the statistic depends on
    the output only through the joint counts N(a, b), and
    ``prod_a c_a! / prod_ab N(a, b)!`` outputs share them, so the sums run
    over joint type classes: polynomially many in ``n``. Classes that use a
    zero-probability transition have zero mixture mass, so they would be
    rejected and add nothing; only classes within the channel's support are
    formed, and their number is capped at ``TYPE_CLASS_BUDGET``. A
    probability below the smallest double (about 1e-308) comes out as 0;
    ``exact_r0_log_error_probs`` gives its logarithm instead.
    """
    accepted, rejected = _r0_class_logs(n, w, p_in, tau)
    return (math.fsum(np.exp(accepted).tolist()),
            math.fsum(np.exp(rejected).tolist()))


def exact_r0_log_error_probs(n: int, w: Channel, p_in: Distribution,
                             tau: float) -> tuple[float, float]:
    """``(ln alpha, ln beta)`` of ``exact_r0_error_probs``, summed over the
    same classes in the log domain, so they stay finite where the
    probabilities underflow; ``-inf`` for an empty sum."""
    return tuple(_log_sum_exp(terms)
                 for terms in _r0_class_logs(n, w, p_in, tau))


def _log_sum_exp(terms: np.ndarray) -> float:
    top = float(terms.max(initial=-math.inf))
    if top == -math.inf:
        return top
    return top + math.log(math.fsum(np.exp(terms - top).tolist()))


def estimate_error_probs(n: int, rate: float, w: Channel, p_in: Distribution,
                         tau: float, codebook_trials: int, seed: int
                         ) -> tuple[SimEstimate, SimEstimate]:
    """Monte Carlo codebook-averaged error probabilities: draws
    ``codebook_trials`` codebooks (trial ``t`` on its own stream from
    ``(seed, t)``) and averages the exact per-codebook sums. The exact
    rate-0 ensemble average is ``exact_r0_error_probs``."""
    results = per_trial_error_probs(n, rate, w, p_in, tau, codebook_trials,
                                    seed)
    return (estimate_from_values([r[0] for r in results], seed),
            estimate_from_values([r[1] for r in results], seed))


def per_trial_error_probs(n: int, rate: float, w: Channel,
                          p_in: Distribution, tau: float, trials: int,
                          seed: int) -> list[tuple[float, float]]:
    """Exact per-codebook (alpha, beta) pairs for each Monte Carlo trial.

    Consecutive trials are drawn and summed in groups (``sample_codebooks``
    and ``group_error_probs``) of as many trials as fit in
    ``_GROUP_ELEMENTS`` array elements, but at least one. The groups run
    in the calling thread, where a second thread would gain nothing,
    unless one trial exceeds ``_GROUP_ELEMENTS``; then on the worker pool
    (see ``_pool``). The pairs are the same either way, and the same as
    one ``exact_error_probs`` call per trial."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if rate < 0:
        raise ValueError(f"rate must be >= 0, got {rate}")
    _check_seed(seed)
    # the errors every trial would raise, before any table is built
    counts = quantized_composition(n, p_in)
    _check_budget(w.num_outputs, n)
    # elements one trial touches: its gathered log-probabilities and the
    # outputs whose sums it forms
    work = (codebook_size(n, rate) * _Reach.of(w, counts).rows * n
            + w.num_outputs ** n)
    size = max(1, _GROUP_ELEMENTS // work)
    p_out = Distribution(p_in.probs @ w.rows)

    def one_group(group: range) -> list[tuple[float, float]]:
        books = sample_codebooks(n, rate, counts, seed, group)
        return group_error_probs(books, counts, w, p_out, tau)

    groups = [range(t, min(t + size, trials)) for t in range(0, trials, size)]
    run = map if work <= _GROUP_ELEMENTS else map_indexed
    return [pair for pairs in run(one_group, groups) for pair in pairs]


def estimate_from_values(values: list[float], seed: int) -> SimEstimate:
    """Aggregate per-trial values with compensated summation; order-free."""
    trials = len(values)
    mean = math.fsum(values) / trials
    if trials > 1:
        var = math.fsum((v - mean) ** 2 for v in values) / (trials - 1)
        se = math.sqrt(var / trials)
    else:
        se = 0.0
    return SimEstimate(mean, se, trials, seed)
