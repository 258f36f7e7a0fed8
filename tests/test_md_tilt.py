"""The missed-detection exponent at ``tau > 0`` and at rate 0.

There the feasible set is the half-space ``E_V[i] <= tau + R`` with
``i = ln W / P_Y``, and the solver returns Hoeffding's tilt of ``W``. These
tests check it against the independent dual of ``_oracles.md_tilt_dual``,
against an independent feasibility check, and against the brute-force grid,
which can only do worse.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from softcover import (
    Channel,
    Distribution,
    JointType,
    SolverConfig,
    conditional_kl,
    llr_level,
    md_exponent,
    mutual_information,
    output_marginal,
    r0_exponents,
)
from softcover.exponents import Problem

from _oracles import md_tilt_dual

SPARSE_2X3 = [[0.6, 0.4, 0.0], [0.0, 0.3, 0.7]]


def _md(w, p_in, tau, rate):
    if rate == 0:
        return Problem(w, p_in, 0.0).md(tau)
    return md_exponent(w, p_in, tau, rate)


def _grid_md(w, p_in, tau, rate, cfg):
    """Brute-force grid solve of the same problem: the masked argmin and
    polish over ``level <= tau`` seeded with the channel, no extrema seeds."""
    problem = Problem(w, p_in, rate, cfg)
    found = problem._solve(
        lambda b: np.isfinite(b.d_c) & (b.lam <= tau), lambda b: b.d_c,
        [(None, [w.rows])])[0]
    return math.inf if found is None else found.value


def _i_min(rows, p_in):
    """sum_x P(x) min over the support of ln W(y|x) / P_Y(y)."""
    rows, p_in = np.asarray(rows, dtype=float), np.asarray(p_in, dtype=float)
    p_y = p_in @ rows
    return sum(p * min(math.log(w / q) for w, q in zip(row, p_y) if w > 0)
               for p, row in zip(p_in, rows) if p > 0)


def _i_mean(rows, p_in):
    """I(X;Y): the mean of ln W(y|x) / P_Y(y) under the channel."""
    rows, p_in = np.asarray(rows, dtype=float), np.asarray(p_in, dtype=float)
    p_y = p_in @ rows
    return sum(p * w * math.log(w / q) for p, row in zip(p_in, rows)
               for w, q in zip(row, p_y) if p > 0 and w > 0)


# the three entries of test_frozen_outputs.py whose grid values the tilt
# replaced: (channel rows, input, tau, rate)
REPLACED = {
    "Z_MD[0.1]": ([[1.0, 0.0], [0.45, 0.55]], [0.5, 0.5], 0.1, 0.05),
    "skewed Z, tau = 0.1": ([[1.0, 0.0], [0.45, 0.55]], [0.3, 0.7], 0.1, 0.05),
    "Z at rate 0": ([[1.0, 0.0], [0.45, 0.55]], [0.5, 0.5], 0.05, 0.0),
}


@pytest.mark.parametrize("name", sorted(REPLACED))
def test_replaced_frozen_entries_meet_the_dual(name):
    rows, p_in, tau, rate = REPLACED[name]
    w, p = Channel(rows), Distribution(p_in)
    res = (r0_exponents(w, p, tau)[1] if rate == 0
           else md_exponent(w, p, tau, rate))
    assert abs(res.value - md_tilt_dual(rows, p_in, tau + rate)) <= 1e-9


@st.composite
def md_cases(draw):
    """A 2x2 or 2x3 channel, possibly with structural zeros and a third
    input with no mass, and (tau, rate) with either rate 0 or tau > 0. The
    half-space bound t = tau + rate is drawn across the window
    (i_min, I(X;Y)) where the exponent is positive, and a little beyond it
    on both sides."""
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
    lo, hi = _i_min(rows, p_in), _i_mean(rows, p_in)
    # an empty window (i constant on every row's support) is all or nothing
    assume(hi - lo > 1e-6)
    positive = draw(st.sampled_from([True, False]))  # R > 0 needs t > 0
    floor = max(lo, 0.0) if positive else lo
    t = floor + draw(st.floats(-0.2, 1.2)) * (hi - floor)
    # at t = i_min itself rounding decides feasibility; the edge has its
    # own test below
    assume(abs(t - lo) > 1e-12)
    rate = draw(st.floats(0.05, 0.95)) * t if positive and t > 0 else 0.0
    return rows, p_in, t - rate, rate


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(md_cases())
def test_tilt_matches_the_dual_and_beats_the_grid(case):
    rows, p_in, tau, rate = case
    w, p = Channel(rows), Distribution(p_in)
    res = _md(w, p, tau, rate)
    dual = md_tilt_dual(rows, p_in, tau + rate)
    if math.isinf(dual):
        assert not res.feasible and res.value == math.inf
        return
    assert res.feasible
    assert abs(res.value - dual) <= 1e-9
    jt = res.minimizer
    assert llr_level(jt, w, output_marginal(p, w), rate) <= tau + 1e-9
    assert abs(conditional_kl(jt, w) - res.value) <= 1e-12
    if res.branch == "bulk":
        assert mutual_information(jt) <= rate + 1e-12
    else:
        assert mutual_information(jt) > rate
    dims = w.num_inputs * (w.num_outputs - 1)
    if dims <= 4:
        cfg = SolverConfig(grid_points_per_dim=101 if dims == 2 else 17)
        assert res.value <= _grid_md(w, p, tau, rate, cfg) + 1e-12


@pytest.mark.parametrize("rows", [[[1.0, 0.0], [0.45, 0.55]], SPARSE_2X3],
                         ids=["Z", "SPARSE_2X3"])
def test_feasibility_flips_at_the_level_minimum(uniform2, rows):
    # at rate 0 the level minimum is sum_x P(x) min_y i(x, y), which the
    # grid's level extremum finds too
    w = Channel(rows)
    edge = _i_min(rows, uniform2.probs)
    assert Problem(w, uniform2, 0.0).level_min().value == \
        pytest.approx(edge, abs=1e-12)
    for delta in (1e-3, 1e-6):
        below = r0_exponents(w, uniform2, edge - delta)[1]
        above = r0_exponents(w, uniform2, edge + delta)[1]
        assert below.value == math.inf and not below.feasible
        assert above.feasible and math.isfinite(above.value)
    assert _md(w, uniform2, edge - 1e-9, 0.0).value == math.inf


def test_zero_above_tau_star_with_the_channel_as_minimizer(zchannel,
                                                           uniform2):
    i_xy = mutual_information(JointType(uniform2, zchannel.rows))
    for rate in (0.0, 0.05, 0.2):
        tau_star = i_xy - rate
        for tau in (tau_star + 1e-12, tau_star + 0.01, 1.0):
            res = _md(zchannel, uniform2, tau, rate)
            assert res.value == 0.0
            assert np.array_equal(res.minimizer.conditional, zchannel.rows)
            assert res.branch == ("bulk" if i_xy <= rate else "sparse")
        below = _md(zchannel, uniform2, tau_star - 1e-3, rate)
        assert below.value > 0


def test_no_grid_at_positive_tau_or_rate_zero(monkeypatch, zchannel, bsc,
                                              uniform2):
    def refuse(*args, **kwargs):
        raise AssertionError("the grid solver was reached")

    monkeypatch.setattr(Problem, "_base", refuse)
    monkeypatch.setattr(Problem, "_solve", refuse)
    w2x3 = Channel(SPARSE_2X3)
    for w in (zchannel, bsc, w2x3):
        for tau in (1e-3, 0.1, 0.5):
            assert md_exponent(w, uniform2, tau, 0.1).feasible
        for tau in (-0.005, 0.05):
            assert Problem(w, uniform2, 0.0).md(tau).feasible
    sentinel = object()
    monkeypatch.setattr(Problem, "fa", lambda self, tau: sentinel)
    fa, md = r0_exponents(zchannel, uniform2, 0.05)
    assert fa is sentinel and md.feasible
    # gated E_MD on three outputs still runs the grid
    with pytest.raises(AssertionError, match="grid solver"):
        md_exponent(w2x3, uniform2, -0.02, 0.05)
