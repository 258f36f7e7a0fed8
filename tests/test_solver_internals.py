"""Internal invariants of the exponent solver that the public API hides.

(a) The batched interference-ceiling gate gives, for every output marginal,
    the very float a single fiber scan over the full (unpruned) base fiber
    grid gives, and keeps one memo entry per distinct rounded marginal.
(b) The base-bundle cache returns bit-identical results under concurrent
    first solves, stays within its byte bound and is used whenever few
    enough candidates survive pruning.
(c) The gate derives the fiber row of the last input with positive mass.
(d) The bulk and sparse branches are solved in lockstep: one bundle and one
    gate lookup per block for both, and the block size changes no output.
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
    rows = _row_grid(problem.w.num_outputs,
                     problem.cfg.grid_points_per_dim)[0]
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
    # rows that round to the same key: exact repeats and rows that differ
    # only beyond the 6th decimal; and a signed zero, whose key differs
    # from the one of its unsigned twin
    rounded = np.round(near[:3], exponents._DELTA_QUANT)
    shift = np.zeros(ny)
    shift[[0, -1]] = 1e-8, -1e-8
    corner = np.eye(ny)[:1]
    signed = corner.copy()
    signed[0, 1:] = -0.0
    q_block = np.vstack([near, rng.dirichlet(np.ones(ny), 50), near[:1],
                         rounded, rounded + shift, near[2:6], near[2:6],
                         corner, signed, signed])
    gate = _CeilingGate(problem)
    got = gate.values(q_block)
    want = [_reference_ceiling(problem, q) for q in q_block]
    assert np.isfinite(got).sum() >= 5
    for g, w in zip(got, want):
        assert g == w or (np.isneginf(g) and np.isneginf(w))
    keys = {q.tobytes()
            for q in np.round(q_block, exponents._DELTA_QUANT)}
    assert len(keys) == 100 + 2  # the corner and its signed twin
    assert set(gate.memo) == keys
    again = gate.values(q_block[::-1])
    assert np.array_equal(again, got[::-1])
    assert set(gate.memo) == keys


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


def _count_calls(monkeypatch, owner, name, calls):
    method = getattr(owner, name)

    def counted(self, *args):
        calls[name] += 1
        return method(self, *args)
    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("tau", [-0.06, 0.1])
def test_fa_builds_one_bundle_per_stage_for_both_branches(zchannel, uniform2,
                                                          monkeypatch, tau):
    # both branches are feasible at tau = -0.06, only the sparse one at 0.1;
    # either way the seeds of both form one bundle and each polish round
    # one more, once the level extrema and the base grid are cached
    problem = Problem(zchannel, uniform2, 0.05)
    want = problem.fa(tau)
    calls = {"__init__": 0}
    _count_calls(monkeypatch, exponents._Bundle, "__init__", calls)
    got = problem.fa(tau)
    assert calls["__init__"] == 1 + problem.cfg.refinement_rounds
    assert (got.value, got.branch) == (want.value, want.branch)


def test_gated_md_looks_up_the_ceiling_once_per_block(zchannel, uniform2,
                                                      monkeypatch):
    # both branches are feasible here; every block, seeds, base grid and
    # polish rounds alike, is rated once and gated once for both
    problem = Problem(zchannel, uniform2, 0.05)
    problem.md(-0.02)
    calls = {"values": 0, "at_rate": 0}
    _count_calls(monkeypatch, _CeilingGate, "values", calls)
    _count_calls(monkeypatch, exponents._Bundle, "at_rate", calls)
    problem.md(-0.03)
    blocks = 1 + len(problem._base()) + problem.cfg.refinement_rounds
    assert calls == {"values": blocks, "at_rate": blocks}


def test_blocks_that_straddle_the_branches_change_nothing(
        zchannel, random_2x3_channels, uniform2, bundles, monkeypatch):
    # 37-row blocks cut every seed bundle, base grid and polish round, and
    # most blocks hold the end of one branch's candidates and the start of
    # the other's
    def solve(w, cfg, taus):
        out = []
        for tau in taus:
            problem = Problem(w, uniform2, 0.1, cfg)
            for res in (problem.fa(tau), problem.md(tau)):
                out.append((res.value.hex(), res.branch, None
                            if res.minimizer is None else tuple(map(
                                float.hex, res.minimizer.conditional.ravel()))))
        return out

    # the 2x3 case stays ungated: with 37-row blocks the gate would take
    # one marginal per block
    cases = [(zchannel, None, (-0.03, 0.05)),
             (random_2x3_channels[3], CFG17, (0.05,))]
    want = [solve(*case) for case in cases]
    monkeypatch.setattr(exponents, "_CHUNK_ROWS", 37)
    monkeypatch.setattr(exponents, "_BUNDLES",
                        Memo(exponents._BUNDLES.max_bytes))
    assert [solve(*case) for case in cases] == want


def test_row_grid_boxes_equal_per_box_linspace_grids():
    # the reference is the one-box construction: np.linspace per coordinate
    # and a row-major meshgrid; the batched grid must give the same floats
    rng = np.random.default_rng(11)
    for ny, g in [(2, 51), (2, 401), (3, 13), (3, 17), (4, 9)]:
        rows = rng.dirichlet(np.ones(ny), 6)
        rows[0] = np.eye(ny)[0]
        width = 0.1 ** rng.integers(1, 5, size=(6, 1))
        lo = np.clip(rows[:, 1:] - width / 2, 0.0, 1.0)
        hi = np.clip(rows[:, 1:] + width / 2, 0.0, 1.0)
        bounds = [(lo[b], hi[b]) for b in range(6)]
        got = _row_grid(ny, g, lo, hi) + _row_grid(ny, g)
        bounds.append((np.zeros(ny - 1), np.ones(ny - 1)))
        for box, (box_lo, box_hi) in zip(got, bounds):
            axes = [np.linspace(a, b, g) for a, b in zip(box_lo, box_hi)]
            mesh = np.meshgrid(*axes, indexing="ij")
            free = np.stack([m.ravel() for m in mesh], axis=1)
            head = 1.0 - free.sum(axis=1)
            keep = head >= -exponents._SIMPLEX_TOL
            want = np.column_stack([np.clip(head[keep], 0.0, 1.0),
                                    free[keep]])
            assert box.shape == want.shape
            assert (box.view(np.int64) == want.view(np.int64)).all()
