"""Internal invariants of the exponent solver that the public API hides.

(a) The batched interference-ceiling gate gives, for every output marginal,
    the very float a single fiber scan over the full (unpruned) base fiber
    grid gives.
(b) The base-bundle cache returns bit-identical results under concurrent
    first solves, stays within its byte bound and is used whenever few
    enough candidates survive pruning.
(c) The gate derives the fiber row of the last input with positive mass.
"""

import concurrent.futures
import sys

import numpy as np
import pytest

from softcover import (
    Channel,
    Distribution,
    SolverConfig,
    fa_exponent,
    md_exponent,
)
from softcover import exponents
from softcover._memo import Memo, _nbytes
from softcover.exponents import Problem, _CeilingGate, _row_grid
from softcover.measures import kl_vec

CFG17 = SolverConfig(grid_points_per_dim=17)


def _reference_ceiling(problem, q):
    """Ceiling of the rounded marginal ``q`` from one fiber scan over every
    base-grid row of the first input."""
    q = np.round(q, exponents._DELTA_QUANT)
    d_m = float(kl_vec(q, problem.p_out.probs))
    if not np.isfinite(d_m):
        return -np.inf
    rows = _row_grid(problem.w.num_outputs, problem.cfg.grid_points_per_dim)
    best = problem._fiber_min(q, [rows[:, None, :]])
    return -np.inf if best is None else d_m - best.value


@pytest.mark.parametrize("chunk_rows", [None, 500])
@pytest.mark.parametrize("which", ["zchannel", "2x3"])
def test_batched_gate_equals_single_fiber_scans(
        zchannel, random_2x3_channels, uniform2, monkeypatch, which,
        chunk_rows):
    if chunk_rows is not None:
        monkeypatch.setattr(exponents, "_CHUNK_ROWS", chunk_rows)
    if which == "zchannel":
        problem = Problem(zchannel, uniform2, 0.1)
    else:
        problem = Problem(random_2x3_channels[1], uniform2, 0.1, CFG17)
    ny = problem.w.num_outputs
    rng = np.random.default_rng(7)
    # marginals near the null output law have finite ceilings, on the
    # Z-channel most others have an empty fiber (-inf); the last row repeats
    # the first
    near = problem.p_out.probs + 0.05 * (rng.dirichlet(np.ones(ny), 50)
                                         - 1 / ny)
    q_block = np.vstack([near, rng.dirichlet(np.ones(ny), 50), near[:1]])
    got = _CeilingGate(problem).values(q_block)
    want = [_reference_ceiling(problem, q) for q in q_block]
    assert np.isfinite(got).sum() >= 5
    for g, w in zip(got, want):
        assert g == w or (np.isneginf(g) and np.isneginf(w))


@pytest.mark.filterwarnings("error")
def test_gate_derives_the_row_of_the_last_input_with_mass(bsc, uniform2):
    # with the derived row on a massless last input every fiber point
    # divided by zero and the gate read -inf; a massless input adds nothing
    # to the marginal or to D_c, so the gate of the other two is expected
    w3 = Channel(np.vstack([bsc.rows, [[0.5, 0.5]]]))
    q_block = np.array([[0.3, 0.7], [0.5, 0.5], [0.6, 0.4], [0.45, 0.55]])
    got = _CeilingGate(Problem(w3, Distribution([0.5, 0.5, 0.0]), 0.1,
                               CFG17)).values(q_block)
    want = _CeilingGate(Problem(bsc, uniform2, 0.1, CFG17)).values(q_block)
    assert np.isfinite(want).all()
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.fixture
def bundles(monkeypatch):
    """A fresh, empty base-bundle memo in place of the package's."""
    memo = Memo(exponents._BUNDLES.max_bytes)
    monkeypatch.setattr(exponents, "_BUNDLES", memo)
    return memo


def _cached_sizes(memo):
    with memo._lock:
        return [_nbytes(v) for v in memo._items.values()]


def test_bundle_cache_is_thread_safe_and_byte_bounded(
        bsc, random_2x3_channels, uniform2, bundles, monkeypatch):
    tasks = [(bsc, 0.1, None), (random_2x3_channels[2], -0.03, CFG17)]

    def solve(task):
        w, tau, cfg = task
        fa = fa_exponent(w, uniform2, abs(tau), 0.1, cfg)
        md = md_exponent(w, uniform2, tau, 0.1, cfg)
        return [(r.value.hex(), r.branch,
                 tuple(map(float.hex, r.minimizer.conditional.ravel())))
                for r in (fa, md)]

    want = [solve(task) for task in tasks]
    sizes = _cached_sizes(bundles)
    assert len(sizes) == 2
    # room for the larger entry only, so the two channels evict each other
    memo = Memo(max(sizes))
    monkeypatch.setattr(exponents, "_BUNDLES", memo)
    order = [0, 1, 0, 1, 1, 0, 1, 0]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(solve, [tasks[i] for i in order],
                                timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert got == [want[i] for i in order]
    assert 0 < sum(_cached_sizes(memo)) == memo.bytes <= max(sizes)


def test_bundle_cache_skips_a_list_above_the_bound(
        zchannel, bsc, uniform2, bundles, monkeypatch):
    fa_exponent(zchannel, uniform2, 0.1, 0.1)
    small = sum(_cached_sizes(bundles))
    # the BSC grid is far larger than the pruned Z-channel grid
    monkeypatch.setattr(bundles, "max_bytes", small)
    want = fa_exponent(bsc, uniform2, 0.1, 0.1).value
    assert fa_exponent(bsc, uniform2, 0.1, 0.1).value == want
    assert sum(_cached_sizes(bundles)) == small


def test_bundle_cache_is_shared_across_rates(zchannel):
    # the key is the channel, the input law and the grid, not the rate
    a = Problem(zchannel, Distribution([0.5, 0.5]), 0.1)
    b = Problem(zchannel, Distribution([0.5, 0.5]), 0.2)
    assert a._base() is b._base()


def test_bundle_cache_counts_the_candidates_left_after_pruning(
        zchannel, uniform2, bundles):
    # 1,500^2 = 2.25 M grid candidates, above the cache limit, but the
    # noiseless input keeps one row of 1,500, so 1,500 candidates survive
    # and the grid is cached rather than rebuilt on every solve
    cfg = SolverConfig(grid_points_per_dim=1500)
    assert 1500 ** 2 > exponents._CACHE_CANDIDATE_LIMIT
    a = Problem(zchannel, uniform2, 0.1, cfg)._base()
    assert a is Problem(zchannel, uniform2, 0.2, cfg)._base()
    assert sum(len(b.cond) for b in a) == 1500
