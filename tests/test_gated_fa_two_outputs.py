"""False-alarm exponent on two-output channels at R > 0 and tau <= 0, solved
by the search over output marginals of ``softcover.marginals``.

(a) Z-channel: on the cells of ``test_shared_extrema._cells()`` and a
    threshold x rate band every value is at most ``zchannel_oracle_fa``
    (a scan of feasible points, so an upper bound) plus 1e-12 and within
    1e-6 below it, at a minimizer whose level reaches tau.
(b) BSC, uniform and skewed input: every value is at most the grid's value
    (recorded before E_FA left the grid there) plus 1e-9, at a minimizer
    whose level reaches tau.
(c) Relabelling the inputs (with P) or the outputs of Z and the BSC moves
    E_FA by at most 1e-9, and E_FA is non-decreasing in tau.
(d) On Z and the BSC, E_FA and E_MD at tau <= 0 (-inf included) and the
    interference level never reach the grid: ``Problem._solve``,
    ``Problem._base`` and the ceiling gate are patched to raise.
"""

import math

import numpy as np
import pytest

from _oracles import zchannel_oracle_fa
from test_shared_extrema import _cells
from softcover import (
    Channel,
    Distribution,
    fa_exponent,
    interference_level,
    lambda_extrema,
    llr_level,
    md_exponent,
    output_marginal,
)
from softcover import exponents
from softcover.exponents import Problem

Z_ROWS = [[1.0, 0.0], [0.45, 0.55]]
BSC_ROWS = [[0.9, 0.1], [0.1, 0.9]]
CHANNELS = {"Z": Z_ROWS, "BSC": BSC_ROWS}
UNIFORM = [0.5, 0.5]
SKEWED = [0.3, 0.7]


def _solve_and_check_level(rows, p_in, tau, rate):
    w, p = Channel(rows), Distribution(p_in)
    res = fa_exponent(w, p, tau, rate)
    assert res.feasible
    assert llr_level(res.minimizer, w, output_marginal(p, w),
                     rate) >= tau - 1e-12
    return res.value


# ------------------------------------------------------------- Z oracle
# tau = 0 exactly is left out: there the channel's own type is the only
# bulk one, and the oracle's lattice does not hold it
Z_CASES = _cells() + [(float(tau), float(rate))
                      for rate in np.linspace(0.02, 0.40, 8)
                      for tau in np.linspace(-0.12, -0.0025, 12)]


@pytest.mark.parametrize("chunk", range(4))
def test_zchannel_matches_the_oracle(chunk):
    for tau, rate in Z_CASES[chunk::4]:
        got = _solve_and_check_level(Z_ROWS, UNIFORM, tau, rate)
        want = zchannel_oracle_fa(0.45, rate, tau).value
        assert want - 1e-6 <= got <= want + 1e-12, (tau, rate, got, want)


# ------------------------------------------------------------- BSC grid
BSC_TAUS = (-0.6, -0.3, -0.2, -0.1, -0.03, -0.005)
# fa_exponent at BSC_TAUS on the joint-type grid (default configuration),
# before E_FA on two outputs left it
BSC_GRID = {
    (tuple(UNIFORM), 0.02): (
        0.0, 0.002238024428992586, 0.026051621971791134, 0.05899630988881345,
        0.08784622910475583, 0.09937395126566796),
    (tuple(UNIFORM), 0.05): (
        0.0, 0.0, 0.004949882524030077, 0.04075481534770944,
        0.07175993205646584, 0.08409627035046245),
    (tuple(UNIFORM), 0.2): (
        0.0, 0.0, 0.0, 0.0, 0.0067183799508158115, 0.023633083647596143),
    (tuple(SKEWED), 0.02): (
        0.0, 0.0, 0.011354785828419579, 0.04266759523944481,
        0.07132515439735929, 0.08297782876339888),
    (tuple(SKEWED), 0.05): (
        0.0, 0.0, 0.0, 0.02424791650441614, 0.05540103662661003,
        0.06799231419142339),
    (tuple(SKEWED), 0.2): (
        0.0, 0.0, 0.0, 0.0, 0.0, 0.01177743593348593),
}


@pytest.mark.parametrize("case", sorted(BSC_GRID))
def test_bsc_is_never_above_the_grid(case):
    p_in, rate = case
    for tau, grid in zip(BSC_TAUS, BSC_GRID[case]):
        got = _solve_and_check_level(BSC_ROWS, list(p_in), tau, rate)
        assert got <= grid + 1e-9, (tau, got, grid)


# ------------------------------------------- relabelling and monotonicity
def _taus(rows, p_in, rate):
    """Thresholds from below lambda_min up to just below 0."""
    low = lambda_extrema(Channel(rows), Distribution(p_in), rate)[0]
    return [low - 0.1, low, 0.5 * low, 0.25 * low, 0.1 * low, 0.03 * low,
            -1e-3]


@pytest.mark.parametrize("which", ["inputs", "outputs"])
@pytest.mark.parametrize("rate", [0.05, 0.2])
@pytest.mark.parametrize("p_in", [UNIFORM, SKEWED], ids=["uniform", "skewed"])
@pytest.mark.parametrize("name", sorted(CHANNELS))
def test_relabelling_leaves_fa_unchanged(name, p_in, rate, which):
    rows = CHANNELS[name]
    if which == "inputs":
        other_rows, other_p = np.array(rows)[::-1], np.array(p_in)[::-1]
    else:
        other_rows, other_p = np.array(rows)[:, ::-1], p_in
    for tau in _taus(rows, p_in, rate):
        want = fa_exponent(Channel(rows), Distribution(p_in), tau, rate)
        got = fa_exponent(Channel(other_rows), Distribution(other_p), tau,
                          rate)
        assert abs(got.value - want.value) <= 1e-9, tau


@pytest.mark.parametrize("rate", [0.05, 0.2, 0.33072])
@pytest.mark.parametrize("p_in", [UNIFORM, SKEWED], ids=["uniform", "skewed"])
@pytest.mark.parametrize("name", sorted(CHANNELS))
def test_fa_is_non_decreasing_in_tau(name, p_in, rate):
    w, p = Channel(CHANNELS[name]), Distribution(p_in)
    values = [fa_exponent(w, p, tau, rate).value
              for tau in np.linspace(-0.8, 0.0, 17).tolist()]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:])), values


# ---------------------------------------------------------- no grid at all
def test_two_outputs_at_tau_at_most_zero_never_reach_the_grid(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the grid was reached")

    monkeypatch.setattr(Problem, "_solve", refuse)
    monkeypatch.setattr(Problem, "_base", refuse)
    monkeypatch.setattr(exponents, "_CeilingGate", refuse)
    finite = 0
    for rows in CHANNELS.values():
        w = Channel(rows)
        for p_in in (UNIFORM, SKEWED):
            p = Distribution(p_in)
            for rate in (0.02, 0.05, 0.2, 0.5):
                for tau in (-math.inf, -1.0, -0.3, -0.05, -0.01, 0.0):
                    assert fa_exponent(w, p, tau, rate).feasible
                    finite += md_exponent(w, p, tau, rate).feasible
                for q0 in (0.2, 0.55, 0.8, 0.95):
                    interference_level(Distribution([q0, 1.0 - q0]), w, p,
                                       rate)
    assert finite >= 40  # of the 96 gated E_MD calls
