import math

import numpy as np
import pytest

from softcover import (
    Channel,
    Distribution,
    JointType,
    SolverConfig,
    conditional_kl,
    default_config,
    fa_exponent,
    interference_level,
    llr_level,
    md_exponent,
    mutual_information,
    output_marginal,
    r0_exponents,
)
from softcover.exponents import Problem

from _oracles import (
    bsc_scan_r0,
    z_scan_fa,
    z_scan_md,
    zchannel_oracle_fa,
    zchannel_oracle_md,
)

# frozen by independent dense scans over the channel-compatible slice
Z_FLAT_R005 = 0.11079181
Z_MD_COMMON_BULK = 0.25534823  # tau = -0.06, any small rate
Z_MD_TAU01_R005 = 0.02602322
Z_FA_R0_TAU005 = 0.16079181
Z_MD_R0_TAU005 = 0.11503133


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(grid_points_per_dim=5)


def test_default_config_scales_with_dimension(zchannel, random_2x3_channels):
    assert default_config(zchannel).grid_points_per_dim == 401
    assert default_config(random_2x3_channels[0]).grid_points_per_dim == 25


def test_fa_exponent_examples(zchannel, uniform2):
    res = fa_exponent(zchannel, uniform2, -10.0, 0.05)
    assert res.value == pytest.approx(0.111, abs=2e-3)
    assert res.value == pytest.approx(Z_FLAT_R005, abs=1e-5)
    assert res.branch == "sparse"

    # rate above mutual information: the channel type itself is feasible at
    # threshold zero with zero cost
    res = fa_exponent(zchannel, uniform2, 0.0, 0.30)
    assert res.value == 0.0
    assert res.feasible

    # beyond the largest achievable level the problem is infeasible
    res = fa_exponent(zchannel, uniform2, 0.5, 0.05)
    assert res.value == math.inf
    assert not res.feasible
    assert res.minimizer is None


def test_md_exponent_examples(zchannel, uniform2):
    tau_star = 0.1940993705
    for tau in (tau_star, 0.25, 1.0):
        assert md_exponent(zchannel, uniform2, tau, 0.05).value == \
            pytest.approx(0.0, abs=1e-12)
    res = md_exponent(zchannel, uniform2, -0.2, 0.05)
    assert res.value == math.inf and not res.feasible
    # the negative-threshold branch is shared across rates
    lo = md_exponent(zchannel, uniform2, -0.06, 0.05).value
    hi = md_exponent(zchannel, uniform2, -0.06, 0.20).value
    assert lo == pytest.approx(hi, abs=1e-4)
    assert lo == pytest.approx(Z_MD_COMMON_BULK, abs=1e-4)
    assert md_exponent(zchannel, uniform2, 0.1, 0.05).value == \
        pytest.approx(Z_MD_TAU01_R005, abs=1e-5)


def test_md_rejects_zero_rate(zchannel, uniform2):
    with pytest.raises(ValueError, match="r0_exponents"):
        md_exponent(zchannel, uniform2, 0.1, 0.0)


def test_result_contract(zchannel, uniform2):
    from softcover import kl_divergence

    p_out = output_marginal(uniform2, zchannel)
    res = fa_exponent(zchannel, uniform2, 0.1, 0.05)
    assert res.feasible and res.minimizer is not None
    jt = res.minimizer
    assert llr_level(jt, zchannel, p_out, 0.05) >= 0.1 - 1e-6
    re_eval = kl_divergence(jt.output_marginal(), p_out) + max(
        mutual_information(jt) - 0.05, 0.0)
    assert re_eval == pytest.approx(res.value, abs=1e-9)

    res = md_exponent(zchannel, uniform2, 0.05, 0.05)
    re_eval = conditional_kl(res.minimizer, zchannel)
    assert re_eval == pytest.approx(res.value, abs=1e-9)
    assert llr_level(res.minimizer, zchannel, p_out, 0.05) <= 0.05 + 1e-6


def test_branch_tags_respect_their_inequality(zchannel, uniform2):
    for tau in (-0.06, -0.02, 0.05, 0.15):
        res = md_exponent(zchannel, uniform2, tau, 0.05)
        i_q = mutual_information(res.minimizer)
        if res.branch == "bulk":
            assert i_q <= 0.05 + 1e-6
        else:
            assert i_q >= 0.05 - 1e-6


def test_monotonicity_in_threshold(zchannel, bsc, uniform2):
    taus = np.linspace(-0.12, 0.48, 13)
    for w in (zchannel, bsc):
        fa_prev = -math.inf
        md_prev = math.inf
        for tau in taus:
            fa = fa_exponent(w, uniform2, float(tau), 0.05).value
            md = md_exponent(w, uniform2, float(tau), 0.05).value
            assert fa >= fa_prev - 1e-6
            assert md <= md_prev + 1e-6
            fa_prev, md_prev = fa, md


def test_fa_positive_for_positive_thresholds(zchannel, bsc, uniform2):
    for w in (zchannel, bsc):
        for tau in (1e-3, 0.02, 0.1):
            assert fa_exponent(w, uniform2, tau, 0.1).value > 1e-6


def test_soft_covering_point(zchannel, bsc, uniform2):
    # at rates above the mutual information both exponents vanish at
    # threshold zero
    for w in (zchannel, bsc):
        i_xy = mutual_information(JointType(uniform2, w.rows))
        rate = i_xy + 0.05
        assert fa_exponent(w, uniform2, 0.0, rate).value <= 1e-9
        assert md_exponent(w, uniform2, 0.0, rate).value <= 1e-9


def test_feasibility_boundaries_match_level_extrema(zchannel, uniform2):
    from softcover import lambda_extrema

    lam_min, lam_max = lambda_extrema(zchannel, uniform2, 0.05)
    delta = 1e-4
    assert fa_exponent(zchannel, uniform2, lam_max - delta, 0.05).feasible
    assert not fa_exponent(zchannel, uniform2, lam_max + delta, 0.05).feasible
    assert md_exponent(zchannel, uniform2, lam_min + delta, 0.05).feasible
    assert not md_exponent(zchannel, uniform2, lam_min - delta, 0.05).feasible
    # the boundary itself: closed for false alarm, open for missed detection
    assert not md_exponent(zchannel, uniform2, lam_min, 0.05).feasible


@pytest.mark.parametrize("rate", [0.02, 0.05, 0.1, 0.3])
def test_fa_reaches_zero_just_below_the_bulk_level_maximum(bsc, uniform2,
                                                          rate):
    # the zero-cost bulk types with a level this close to the bulk maximum
    # form a sliver between base grid points: only the bulk seed reaches
    # it, and without that seed the sparse branch wins at about 3e-7
    top = Problem(bsc, uniform2, rate)._bulk_max().value
    res = fa_exponent(bsc, uniform2, top - 1e-6, rate)
    assert res.value <= 1e-10 and res.branch == "bulk"


# ------------------------------------------------------ Z-channel oracles

def test_oracle_fa_examples():
    res = zchannel_oracle_fa(0.45, 0.05, -10.0, grid=10 ** 6)
    assert res.value == pytest.approx(0.111, abs=2e-3)
    # just below the largest level the value is large but finite
    res = zchannel_oracle_fa(0.45, 0.05, 0.457, grid=10 ** 6)
    assert math.isfinite(res.value) and res.value > 0.5
    assert zchannel_oracle_fa(0.45, 0.05, 0.46, grid=10 ** 6).value == math.inf
    # at threshold zero and high rate the scan cannot represent the
    # exactly-compatible zero-cost type, so it reports the constrained
    # minimum of the slice; frozen from an independent 2e6-point scan
    res = zchannel_oracle_fa(0.45, 0.30, 0.0, grid=10 ** 6)
    assert res.value == pytest.approx(0.0094042, abs=2e-4)


def test_oracle_md_examples():
    res = zchannel_oracle_md(0.45, 0.05, 0.1, grid=10 ** 6)
    assert math.isfinite(res.value) and res.value > 0
    assert zchannel_oracle_md(0.45, 0.05, 0.2, grid=10 ** 6).value == \
        pytest.approx(0.0, abs=1e-10)
    res = zchannel_oracle_md(0.45, 0.05, -0.06, grid=10 ** 6)
    assert res.value == pytest.approx(Z_MD_COMMON_BULK, abs=1e-5)


def test_oracle_input_validation():
    with pytest.raises(ValueError):
        zchannel_oracle_fa(1.5, 0.05, 0.0)
    with pytest.raises(ValueError):
        zchannel_oracle_md(0.45, 0.0, 0.0)


def test_generic_matches_oracle_spot_checks(zchannel, uniform2):
    # dense-scan reference values double-checked through the scan helpers
    want_fa, _ = z_scan_fa(-10.0, 0.05, grid=400_001)
    assert fa_exponent(zchannel, uniform2, -10.0, 0.05).value == \
        pytest.approx(want_fa, abs=1e-5)
    want_md, _ = z_scan_md(-0.06, 0.05, grid=400_001)
    assert md_exponent(zchannel, uniform2, -0.06, 0.05).value == \
        pytest.approx(want_md, abs=1e-5)


# --------------------------------------------------------------- rate zero

def test_r0_exponents_examples(zchannel, bsc, uniform2):
    fa, md = r0_exponents(zchannel, uniform2, 0.0)
    assert md.value > 0  # positive mutual information forces a gap
    # identity channel with an absurd threshold: no type reaches it
    from softcover import Channel

    ident = Channel([[1.0, 0.0], [0.0, 1.0]])
    fa_id, _ = r0_exponents(ident, uniform2, 100.0)
    assert fa_id.value == math.inf

    fa, md = r0_exponents(bsc, uniform2, 0.05)
    want_fa, want_md = bsc_scan_r0(0.05)
    assert fa.value == pytest.approx(want_fa, abs=5e-4)
    assert md.value == pytest.approx(want_md, abs=5e-4)
    # the refined solver should not do worse than the 2000-point scan
    assert fa.value <= want_fa + 1e-9
    assert md.value <= want_md + 1e-9
    # the symmetric slice a = b can only over-estimate the 2-D minimum
    from _oracles import bsc_measures

    a = np.linspace(0.0, 1.0, 4001)
    d_m, d_c, i_q = bsc_measures(a, a)
    lam = d_m - d_c + i_q
    slice_fa = float(np.where(lam >= 0.05, d_m + i_q, np.inf).min())
    slice_md = float(np.where(lam <= 0.05, d_c, np.inf).min())
    assert fa.value <= slice_fa + 1e-9
    assert md.value <= slice_md + 1e-9
    assert slice_fa == pytest.approx(fa.value, abs=2e-3)
    assert slice_md == pytest.approx(md.value, abs=2e-3)


def test_r0_matches_frozen_z_values(zchannel, uniform2):
    fa, md = r0_exponents(zchannel, uniform2, 0.05)
    assert fa.value == pytest.approx(Z_FA_R0_TAU005, abs=1e-5)
    assert md.value == pytest.approx(Z_MD_R0_TAU005, abs=1e-5)


# ---------------------------------------------------- interference ceiling

def test_interference_level_examples(zchannel, uniform2):
    p_out = output_marginal(uniform2, zchannel)
    # at the true output marginal and ample rate the ceiling is exactly zero
    assert interference_level(p_out, zchannel, uniform2, 0.30) == \
        pytest.approx(0.0, abs=1e-9)
    # data processing caps the ceiling at zero
    rng = np.random.default_rng(5)
    for _ in range(10):
        q = Distribution(rng.dirichlet([2, 2]))
        val = interference_level(q, zchannel, uniform2, 0.30)
        assert val <= 1e-9
    # on the Z-channel the fiber over a given output marginal pins the
    # compatible conditional, and its information can exceed the rate
    q = Distribution([0.8, 0.2])
    assert interference_level(q, zchannel, uniform2, 0.05) == -math.inf
    # a marginal with mass off the support of P_Y has D_m = inf
    w3 = Channel([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
    assert interference_level(Distribution([0.5, 0.5, 0.0]), w3,
                              Distribution([1.0, 0.0]), 0.1) == -math.inf
    val = interference_level(q, zchannel, uniform2, 0.20)
    assert val == pytest.approx(-0.00755256, abs=1e-6)
    with pytest.raises(ValueError):
        interference_level(q, zchannel, uniform2, 0.0)


@pytest.mark.filterwarnings("error")
def test_interference_level_with_a_massless_last_input(zchannel, bsc,
                                                       uniform2):
    # the fiber derives the row of the last input with positive mass; on
    # the row of a massless last input it divided by zero and found no type
    # at all, while here the only compatible type meets both constraints at
    # level 0
    point = Distribution([1.0, 0.0])
    assert interference_level(point, zchannel, point, 0.1) == 0.0
    # a massless third input leaves the ceiling of the other two, up to the
    # solver grid, which depends on the number of inputs
    w3 = Channel(np.vstack([bsc.rows, [[0.5, 0.5]]]))
    q = Distribution([0.3, 0.7])
    got = interference_level(q, w3, Distribution([0.5, 0.5, 0.0]), 0.1)
    assert got == pytest.approx(interference_level(q, bsc, uniform2, 0.1),
                                abs=1e-5)


def test_interference_level_bsc_fiber_oracle(bsc, uniform2):
    # 1-D scan over the free first row of the fiber, second row derived
    q_out = np.array([0.62, 0.38])
    rate = 0.15
    a = np.linspace(0.0, 1.0, 200_001)  # a = Q(1|0)
    row0 = np.stack([1 - a, a], axis=1)
    row1 = (q_out - 0.5 * row0) / 0.5
    valid = (row1 >= -1e-12).all(axis=1)

    def h(u):
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(u > 0, u * np.log(u), 0.0)
        return -t.sum(axis=-1)

    def kl(p, w_row):
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(p > 0, p * (np.log(p) - np.log(w_row)), 0.0)
        return t.sum(axis=-1)

    d_c = 0.5 * (kl(row0, bsc.rows[0]) + kl(row1, bsc.rows[1]))
    i_q = h(q_out) - 0.5 * (h(row0) + h(row1))
    mask = valid & (i_q <= rate + 1e-12)
    d_m = float(kl(q_out[None, :], (uniform2.probs @ bsc.rows))[0])
    want = d_m - d_c[mask].min()
    got = interference_level(Distribution(q_out), bsc, uniform2, rate)
    # the solver polishes past the scan's 5e-6 spacing, so it may only beat
    # the scanned maximum, never trail it
    assert got >= want - 1e-9
    assert got == pytest.approx(want, abs=1e-5)
