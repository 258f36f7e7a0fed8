"""The false-alarm exponent at ``tau > 0`` and at rate 0.

With ``i = ln W / P_Y`` the level is ``max(D_m - D_c, E_V[i] - R)`` and
``E_V[i] = D_m - D_c + I``, so ``I >= E_V[i]``. At ``tau > 0`` the feasible
set is the half-space ``E_V[i] >= tau + R``, on which ``I > R`` and the cost
``D_m + [I - R]_+`` is ``D(V || P_Y | P) - R``; at rate 0 the level is
``E_V[i]`` and the cost ``D(V || P_Y | P)`` at every threshold. The solver
returns the tilt ``V_s ∝ P_Y exp(s i)``. These tests check it against the
independent dual of ``_oracles.fa_tilt_dual``, against an independent
feasibility check, and against the brute-force grid, which can only do
worse.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from softcover import (
    Channel,
    Distribution,
    SolverConfig,
    fa_exponent,
    lambda_extrema,
    llr_level,
    md_exponent,
    mutual_information,
    output_marginal,
    r0_exponents,
)
from softcover.exponents import Problem

from _oracles import fa_tilt_dual, md_tilt_dual

SPARSE_2X3 = [[0.6, 0.4, 0.0], [0.0, 0.3, 0.7]]


def _fa(w, p_in, tau, rate):
    if rate == 0:
        return r0_exponents(w, p_in, tau)[0]
    return fa_exponent(w, p_in, tau, rate)


def _grid_fa(w, p_in, tau, rate, cfg):
    """Brute-force grid solve of the same problem: the masked argmin and
    polish over ``level >= tau`` seeded with the channel, no extrema
    seeds."""
    problem = Problem(w, p_in, rate, cfg)
    found = problem._solve(
        lambda b: np.isfinite(b.lam) & (b.lam >= tau), problem._fa_cost,
        [(None, [w.rows])])[0]
    return math.inf if found is None else found.value


def _i_max(rows, p_in):
    """sum_x P(x) max over the support of ln W(y|x) / P_Y(y)."""
    rows, p_in = np.asarray(rows, dtype=float), np.asarray(p_in, dtype=float)
    p_y = p_in @ rows
    return sum(p * max(math.log(w / q) for w, q in zip(row, p_y) if w > 0)
               for p, row in zip(p_in, rows) if p > 0)


def _i_floor(rows, p_in):
    """The mean of ln W(y|x) / P_Y(y) under P_Y restricted to the support
    of each row, the least s = 0 of the tilt."""
    rows, p_in = np.asarray(rows, dtype=float), np.asarray(p_in, dtype=float)
    p_y = p_in @ rows
    total = 0.0
    for p, row in zip(p_in, rows):
        if p > 0:
            mass = sum(q for w, q in zip(row, p_y) if w > 0)
            total += p * sum(q / mass * math.log(w / q)
                             for w, q in zip(row, p_y) if w > 0)
    return total


CFG17 = SolverConfig(grid_points_per_dim=17)

# the four entries of test_frozen_outputs.py whose grid values the tilt
# replaced: (channel rows, input, tau, rate, solver configuration)
REPLACED = {
    "Z_FA[0.1]": ([[1.0, 0.0], [0.45, 0.55]], [0.5, 0.5], 0.1, 0.05, None),
    "FA_SPARSE_2X3[0.05]": (SPARSE_2X3, [0.5, 0.5], 0.05, 0.1, CFG17),
    "FA_SPARSE_2X3[0.3]": (SPARSE_2X3, [0.5, 0.5], 0.3, 0.1, CFG17),
    "skewed Z, tau = 0.1": ([[1.0, 0.0], [0.45, 0.55]], [0.3, 0.7], 0.1, 0.05,
                            None),
}


@pytest.mark.parametrize("name", sorted(REPLACED))
def test_replaced_frozen_entries_meet_the_dual(name):
    rows, p_in, tau, rate, cfg = REPLACED[name]
    res = fa_exponent(Channel(rows), Distribution(p_in), tau, rate, cfg)
    assert abs(res.value - (fa_tilt_dual(rows, p_in, tau + rate) - rate)) \
        <= 1e-9


def test_rate_zero_entry_is_the_floor_of_the_tilt(zchannel, uniform2):
    # the frozen rate-0 E_FA at tau = 0.05 lies below the floor's mean of
    # i, so its minimizer is P_Y on each row's support
    rows = zchannel.rows.tolist()
    assert 0.05 < _i_floor(rows, [0.5, 0.5])
    fa = r0_exponents(zchannel, uniform2, 0.05)[0]
    assert abs(fa.value - fa_tilt_dual(rows, [0.5, 0.5], 0.05)) <= 1e-9
    assert abs(fa.value + 0.5 * math.log(0.725)) <= 1e-12


@st.composite
def fa_cases(draw):
    """A 2x2 or 2x3 channel, possibly with structural zeros and a third
    input with no mass, and (tau, rate) with either rate 0 or tau > 0. The
    half-space bound t = tau + rate is drawn across the window
    (floor, top) where the exponent grows, from the mean of i at s = 0 to
    sum_x P(x) max_y i, and a little beyond it on both sides."""
    nx = draw(st.sampled_from([2, 3]))
    ny = draw(st.sampled_from([2, 3]))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=nx * ny,
                            max_size=nx * ny))
    zeros = draw(st.lists(st.booleans(), min_size=nx * ny,
                          max_size=nx * ny))
    rows = (np.array(weights).reshape(nx, ny)
            * ~np.array(zeros).reshape(nx, ny))
    assume((rows.sum(axis=1) > 0).all() and (rows.sum(axis=0) > 0).all())
    rows = rows / rows.sum(axis=1, keepdims=True)
    p0 = draw(st.floats(0.1, 0.9))
    p_in = [p0, 1.0 - p0] + [0.0] * (nx - 2)
    positive = draw(st.sampled_from([True, False]))  # R > 0 needs t > 0
    lo, hi = _i_floor(rows, p_in), _i_max(rows, p_in)
    floor = max(lo, 0.0) if positive else lo
    # an empty window (i constant on every row's support) is all or nothing
    assume(hi - floor > 1e-6)
    t = floor + draw(st.floats(-0.2, 1.2)) * (hi - floor)
    # at t = top itself rounding decides feasibility; the edge has its own
    # test below
    assume(abs(t - hi) > 1e-12)
    rate = draw(st.floats(0.05, 0.95)) * t if positive and t > 0 else 0.0
    return rows, p_in, t - rate, rate


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(fa_cases())
def test_tilt_matches_the_dual_and_beats_the_grid(case):
    rows, p_in, tau, rate = case
    w, p = Channel(rows), Distribution(p_in)
    res = _fa(w, p, tau, rate)
    dual = fa_tilt_dual(rows, p_in, tau + rate)
    if math.isinf(dual):
        assert not res.feasible and res.value == math.inf
        return
    assert res.feasible
    assert abs(res.value - (dual - rate)) <= 1e-9
    jt = res.minimizer
    assert llr_level(jt, w, output_marginal(p, w), rate) >= tau - 1e-9
    i_q = mutual_information(jt)
    if rate > 0:
        assert i_q >= rate
    if res.branch == "bulk":
        assert i_q <= rate + 1e-12
    else:
        assert i_q > rate
    dims = w.num_inputs * (w.num_outputs - 1)
    if dims <= 4:
        cfg = SolverConfig(grid_points_per_dim=101 if dims == 2 else 17)
        assert res.value <= _grid_fa(w, p, tau, rate, cfg) + 1e-12


@pytest.mark.parametrize("rows", [[[1.0, 0.0], [0.45, 0.55]], SPARSE_2X3],
                         ids=["Z", "SPARSE_2X3"])
def test_feasibility_ends_at_the_edge_with_the_limit_rows(uniform2, rows):
    # at rate 0 the edge is the level maximum sum_x P(x) max_y i(x, y); it
    # is reached only by P_Y on each row's argmax set of i, the limit of
    # the tilt as s grows without bound
    w = Channel(rows)
    edge = lambda_extrema(w, uniform2, 0.0)[1]
    assert edge == pytest.approx(_i_max(rows, uniform2.probs), abs=1e-12)
    at = r0_exponents(w, uniform2, edge)[0]
    assert at.feasible
    p_y = uniform2.probs @ np.asarray(rows)
    info = np.log(np.where(w.support_mask, w.rows, 1.0) / p_y)
    peak = w.support_mask & np.isclose(
        info, np.where(w.support_mask, info, -np.inf).max(axis=1,
                                                          keepdims=True))
    limit = np.where(peak, p_y, 0.0)
    limit /= limit.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(at.minimizer.conditional, limit,
                               rtol=0.0, atol=1e-15)
    want = -sum(0.5 * math.log(p_y[row].sum()) for row in peak)
    assert abs(at.value - want) <= 1e-12
    # the tilt approaches the limit continuously from below the edge
    below = r0_exponents(w, uniform2, edge - 1e-9)[0]
    assert below.feasible and want - 1e-6 < below.value <= want + 1e-12
    assert not r0_exponents(w, uniform2, edge + 1e-9)[0].feasible
    # at R > 0 the edge shifts by the rate
    rate = 0.05
    assert lambda_extrema(w, uniform2, rate)[1] == max(edge - rate, 0.0)
    assert fa_exponent(w, uniform2, edge - rate - 1e-9, rate).feasible
    assert not fa_exponent(w, uniform2, edge - rate + 1e-9, rate).feasible


def test_closed_form_level_maximum_meets_the_grid(zchannel, bsc, uniform2):
    # the grid's polished level maximum over both branches meets the closed
    # form that lambda_extrema reports
    for w in (zchannel, bsc, Channel(SPARSE_2X3)):
        cfg = CFG17 if w.num_outputs == 3 else None
        for rate in (0.0, 0.05, 0.3):
            problem = Problem(w, uniform2, rate, cfg)
            top = problem._solve(lambda b: np.isfinite(b.lam),
                                 lambda b: -b.lam, [(None, [w.rows])])[0]
            grid = -top.value
            closed = max(_i_max(w.rows, uniform2.probs) - rate, 0.0)
            assert grid == pytest.approx(closed, abs=1e-12)
            assert lambda_extrema(w, uniform2, rate, cfg)[1] == \
                pytest.approx(closed, abs=1e-12)


def test_floor_at_minus_infinity_at_rate_zero(zchannel, uniform2):
    # the unconstrained minimum at rate 0 is P_Y on each row's support
    fa = r0_exponents(zchannel, uniform2, -math.inf)[0]
    np.testing.assert_array_equal(fa.minimizer.conditional,
                                  [[1.0, 0.0], [0.725, 0.275]])
    assert fa.value == r0_exponents(zchannel, uniform2, 0.0)[0].value


def test_no_grid_at_positive_tau_or_rate_zero(monkeypatch, zchannel, bsc,
                                              uniform2):
    def refuse(*args, **kwargs):
        raise AssertionError("the grid solver was reached")

    monkeypatch.setattr(Problem, "_base", refuse)
    monkeypatch.setattr(Problem, "_solve", refuse)
    for w in (zchannel, bsc, Channel(SPARSE_2X3)):
        for tau in (1e-3, 0.1, 0.3):
            assert fa_exponent(w, uniform2, tau, 0.1).value > 0
        for tau in (-math.inf, -0.5, 0.0, 0.05):
            fa, md = r0_exponents(w, uniform2, tau)
            assert fa.feasible and md.value >= 0
    # the patch does stop the grid: E_FA at R > 0 and tau <= 0 on three
    # outputs still runs it (on two it is the search over marginals)
    with pytest.raises(AssertionError, match="grid solver"):
        fa_exponent(Channel(SPARSE_2X3), uniform2, -0.02, 0.05, CFG17)
    with pytest.raises(AssertionError, match="grid solver"):
        fa_exponent(Channel(SPARSE_2X3), uniform2, 0.0, 0.05, CFG17)


W3X4 = [[0.5, 0.2, 0.2, 0.1], [0.1, 0.4, 0.3, 0.2], [0.2, 0.2, 0.1, 0.5]]


def test_tilts_need_no_solver_configuration_on_a_large_channel():
    # nine free dimensions: beyond the default grid, but neither tilt
    # uses one
    w, p = Channel(W3X4), Distribution([0.3, 0.3, 0.4])
    fa = fa_exponent(w, p, 0.1, 0.1)
    md = md_exponent(w, p, 0.1, 0.1)
    assert abs(fa.value - (fa_tilt_dual(W3X4, p.probs, 0.2) - 0.1)) <= 1e-9
    assert abs(md.value - md_tilt_dual(W3X4, p.probs, 0.2)) <= 1e-9
    for tau in (-0.1, 0.1):
        fa0, md0 = r0_exponents(w, p, tau)
        assert abs(fa0.value - fa_tilt_dual(W3X4, p.probs, tau)) <= 1e-9
        assert abs(md0.value - md_tilt_dual(W3X4, p.probs, tau)) <= 1e-9
    for solve in (fa_exponent, md_exponent):
        with pytest.raises(ValueError, match="at most 6 free dimensions"):
            solve(w, p, -0.1, 0.1)
