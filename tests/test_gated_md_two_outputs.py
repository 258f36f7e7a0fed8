"""Gated missed-detection exponent on two-output channels (R > 0, tau <= 0),
solved by the search over output marginals of ``softcover.marginals``.

(a) The Z-channel's thin second piece: across the band R in [0.328, 0.334],
    tau in [-0.010, -0.006], where the feasible set has a thin piece next
    to the jump of the interference ceiling, every cell is within 1e-4 of
    ``zchannel_oracle_md``, and the cell the grid missed by 3.7e-4 is
    within 1e-7 of it.
(b) Relabelling the inputs (with P) or the outputs of Z and the BSC leaves
    every value unchanged to 1e-9.
(c) Certification: every gated E_MD on Z and the BSC in the frozen and
    acceptance sets, and on a panel of rates and thresholds, reports a
    minimizer whose level and whose interference ceiling (by a dense scan
    of its fiber, which can only underestimate it) are at most tau, and a
    value no smaller than Hoeffding's tilt at tau + R, a lower bound.
(d) No such call reaches the grid's interference-ceiling gate.
"""

import math

import numpy as np
import pytest

from _oracles import fiber_ceiling_scan, zchannel_oracle_md
from softcover import (
    Channel,
    Distribution,
    lambda_extrema,
    llr_level,
    md_exponent,
    mutual_information,
    output_marginal,
)
from softcover import exponents
from softcover.measures import JointType
from softcover.exponents import Problem

Z_ROWS = [[1.0, 0.0], [0.45, 0.55]]
BSC_ROWS = [[0.9, 0.1], [0.1, 0.9]]
CHANNELS = {"Z": Z_ROWS, "BSC": BSC_ROWS}
UNIFORM = [0.5, 0.5]
SKEWED = [0.3, 0.7]


# --------------------------------------------------------------- thin piece
THIN_RATES = np.linspace(0.328, 0.334, 13)
THIN_TAUS = np.linspace(-0.010, -0.006, 9)


@pytest.mark.parametrize("rate", THIN_RATES.tolist())
def test_thin_piece_band_matches_the_oracle(rate):
    w, p = Channel(Z_ROWS), Distribution(UNIFORM)
    for tau in THIN_TAUS.tolist():
        got = md_exponent(w, p, tau, rate).value
        want = zchannel_oracle_md(0.45, rate, tau).value
        assert abs(got - want) <= 1e-4, (tau, rate, got, want)


def test_thin_piece_cell():
    got = md_exponent(Channel(Z_ROWS), Distribution(UNIFORM), -0.0078327,
                      0.33072)
    want = zchannel_oracle_md(0.45, 0.33072, -0.0078327)
    assert abs(want.value - 0.0184537) <= 1e-7
    assert abs(got.value - want.value) <= 1e-7
    assert got.branch == want.branch == "bulk"


# --------------------------------------------------------------- relabelling
def _taus(rows, p_in, rate):
    """Three thresholds in (lambda_min, 0]."""
    low = lambda_extrema(Channel(rows), Distribution(p_in), rate)[0]
    return [0.25 * low, 0.1 * low, 0.03 * low]


def _relabelled(rows, p_in, which):
    rows, p_in = np.array(rows), np.array(p_in)
    if which == "inputs":
        return rows[::-1], p_in[::-1]
    return rows[:, ::-1], p_in


@pytest.mark.parametrize("which", ["inputs", "outputs"])
@pytest.mark.parametrize("rate", [0.05, 0.2])
@pytest.mark.parametrize("p_in", [UNIFORM, SKEWED], ids=["uniform", "skewed"])
@pytest.mark.parametrize("name", sorted(CHANNELS))
def test_relabelling_leaves_gated_md_unchanged(name, p_in, rate, which):
    rows = CHANNELS[name]
    other_rows, other_p = _relabelled(rows, p_in, which)
    for tau in _taus(rows, p_in, rate):
        want = md_exponent(Channel(rows), Distribution(p_in), tau, rate)
        got = md_exponent(Channel(other_rows), Distribution(other_p), tau,
                          rate)
        assert want.feasible == got.feasible, tau
        if want.feasible:
            assert abs(got.value - want.value) <= 1e-9, tau


# ------------------------------------------------------------- certification
def _cases():
    """(channel, input, tau, rate) of every gated E_MD on Z and the BSC in
    the frozen outputs, acceptance criteria 2 and 3, and a panel."""
    cases = [("Z", UNIFORM, -0.06, 0.05), ("Z", SKEWED, -0.05, 0.05),
             ("Z", UNIFORM, -0.01, 0.3), ("Z", UNIFORM, -0.02, 0.05)]
    # criterion 2
    for rate in np.linspace(0.01, 0.40, 20).tolist():
        for tau in np.linspace(-0.11, 0.52, 25).tolist():
            if tau <= 0:
                cases.append(("Z", UNIFORM, tau, rate))
    # criterion 3: monotonicity, and rates just above I(X;Y)
    for name, rate in (("Z", 0.05), ("BSC", 0.10)):
        for tau in np.linspace(-0.10, 0.40, 8).tolist():
            if tau <= 0:
                cases.append((name, UNIFORM, tau, rate))
    for name, rows in CHANNELS.items():
        rate = mutual_information(JointType(Distribution(UNIFORM),
                                            np.array(rows))) + 0.03
        for tau in np.linspace(-0.1, 0.3, 9).tolist():
            if tau <= 0:
                cases.append((name, UNIFORM, tau, rate))
    # the panel: five thresholds in (lambda_min, 0]
    for name, rows in CHANNELS.items():
        for rate in (0.05, 0.2, 0.33072):
            low = lambda_extrema(Channel(rows), Distribution(UNIFORM),
                                 rate)[0]
            for share in (0.9, 0.6, 0.3, 0.1, 0.0):
                cases.append((name, UNIFORM, share * low, rate))
    return cases


CASES = _cases()


def _certify(name, p_in, tau, rate):
    rows = CHANNELS[name]
    w, p = Channel(rows), Distribution(p_in)
    res = md_exponent(w, p, tau, rate)
    bound = Problem(w, p, rate)._md_tilt(tau + rate).value
    assert res.value >= bound - 1e-12
    if not res.feasible:
        return
    level = llr_level(res.minimizer, w, output_marginal(p, w), rate)
    assert level <= tau + 1e-9
    q0 = float(res.minimizer.output_marginal().probs[0])
    assert fiber_ceiling_scan(rows, p_in, q0, rate) <= tau + 1e-9


@pytest.mark.parametrize("chunk", range(4))
def test_gated_md_minimizers_are_certified(chunk):
    for case in CASES[chunk::4]:
        _certify(*case)


def test_no_two_output_gated_md_reaches_the_grid_gate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the interference-ceiling gate was reached")

    monkeypatch.setattr(exponents, "_CeilingGate", refuse)
    finite = 0
    for name, p_in, tau, rate in CASES:
        res = md_exponent(Channel(CHANNELS[name]), Distribution(p_in), tau,
                          rate)
        finite += math.isfinite(res.value)
    assert finite >= 90  # of the 144 cases
