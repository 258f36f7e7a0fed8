import math

import numpy as np
import pytest

from softcover import (
    Channel,
    Distribution,
    JointType,
    PhaseReport,
    RegionTag,
    classify,
    fa_cusp_rate,
    fa_exponent,
    lambda_extrema,
    md_exponent,
    mutual_information,
    phase_grid,
    phase_report,
    tau_flat,
    tau_kink,
    tradeoff_curve,
)

from _oracles import bsc_scan_flat

I_Z = 0.2440993705


def test_lambda_extrema_zchannel(zchannel, uniform2):
    lam_min, lam_max = lambda_extrema(zchannel, uniform2, 0.05)
    assert lam_max == pytest.approx(0.457, abs=3e-3)
    assert lam_min == pytest.approx(-0.078, abs=3e-3)


def test_lambda_extrema_identity_channel(uniform2):
    # at rate zero the channel type itself has level equal to its mutual
    # information, which is the full input entropy here
    ident = Channel([[1.0, 0.0], [0.0, 1.0]])
    _, lam_max = lambda_extrema(ident, uniform2, 0.0)
    assert lam_max >= math.log(2.0) - 1e-9


def test_tau_flat_zchannel(zchannel, uniform2):
    fp = tau_flat(zchannel, uniform2, 0.05)
    assert fp.tau_flat == pytest.approx(0.033, abs=2e-3)
    assert fp.fa_flat_value == pytest.approx(0.111, abs=2e-3)


def test_tau_flat_above_mutual_information(bsc, uniform2):
    # a non-singular channel reaches zero cost, ultimately at the channel
    # type itself once the rate covers the mutual information
    i_xy = mutual_information(JointType(uniform2, bsc.rows))
    fp = tau_flat(bsc, uniform2, i_xy + 0.02)
    assert fp.fa_flat_value == pytest.approx(0.0, abs=1e-12)


def test_tau_flat_bsc_brute_force(bsc, uniform2):
    # cross-check against a dense 2-D scan; the minimum is attained on a
    # whole segment here, so the level is pinned only up to the scan step
    want_flat, want_lam = bsc_scan_flat(0.02)
    fp = tau_flat(bsc, uniform2, 0.02)
    assert fp.fa_flat_value == pytest.approx(want_flat, abs=1e-9)
    assert fp.fa_flat_value == pytest.approx(0.0, abs=1e-12)
    assert fp.tau_flat == pytest.approx(want_lam, abs=6e-3)


@pytest.mark.parametrize("rate", [0.02, 0.05])
def test_fa_flat_is_exactly_where_fa_is_at_its_floor(bsc, uniform2, rate):
    # the flat region ends at the interference ceiling of P_Y, above the
    # level of the zero-cost minimizer a scan happens to pick; the sweep
    # has points between the two (-0.3125 and -0.21875)
    report = phase_report(bsc, uniform2, rate, locate_kink=False)
    for tau in np.linspace(-0.5, 0.0, 81).tolist():
        flat = classify(tau, report)[0] is RegionTag.FA_FLAT
        value = fa_exponent(bsc, uniform2, tau, rate).value
        assert flat == (value <= report.fa_flat_value + 1e-9), (tau, value)


def test_tau_flat_tends_to_zero_toward_mutual_information(bsc, uniform2):
    i_xy = mutual_information(JointType(uniform2, bsc.rows))
    values = [tau_flat(bsc, uniform2, f * i_xy).tau_flat
              for f in (0.90, 0.95, 0.99)]
    assert values[0] < values[1] < values[2] <= 0.0
    assert abs(values[2]) < 0.02


def test_tau_kink_zchannel(zchannel, uniform2):
    kink = tau_kink(zchannel, uniform2, 0.05)
    assert kink == pytest.approx(-0.047, abs=2e-3)


def test_tau_kink_slope_change(zchannel, uniform2):
    # first-order transition: the decay slope jumps when the minimizer
    # switches branch
    kink = tau_kink(zchannel, uniform2, 0.05)
    h = 0.003
    md = {t: md_exponent(zchannel, uniform2, t, 0.05).value
          for t in (kink - 2 * h, kink - h, kink + h, kink + 2 * h)}
    slope_left = (md[kink - h] - md[kink - 2 * h]) / h
    slope_right = (md[kink + 2 * h] - md[kink + h]) / h
    assert abs(slope_right - slope_left) > 0.5


def test_tau_kink_absent_at_high_rate(zchannel, uniform2):
    assert tau_kink(zchannel, uniform2, 0.8) is None


def test_tau_kink_absent_when_lambda_min_is_next_to_zero(uniform2):
    # equal rows: i = 0, so lambda_min = -R, and at R = 5e-5 the active
    # region is narrower than the bisection's first offset from lambda_min
    flat = Channel([[0.5, 0.5], [0.5, 0.5]])
    assert lambda_extrema(flat, uniform2, 5e-5)[0] == \
        pytest.approx(-5e-5, abs=1e-12)
    assert tau_kink(flat, uniform2, 5e-5) is None


def test_flat_region_is_constant(zchannel, uniform2):
    fp = tau_flat(zchannel, uniform2, 0.05)
    values = [fa_exponent(zchannel, uniform2, float(t), 0.05).value
              for t in np.linspace(-2.0, fp.tau_flat - 1e-3, 7)]
    assert max(values) - min(values) <= 1e-6
    assert values[0] == pytest.approx(fp.fa_flat_value, abs=1e-9)


def test_fa_cusp_rate_zchannel(zchannel, uniform2):
    grid = [0.02 + 0.02 * k for k in range(12)]
    cusp = fa_cusp_rate(zchannel, uniform2, grid)
    assert cusp == pytest.approx(0.106, abs=3e-3)


def test_fa_cusp_slope_on_sparse_side(zchannel, uniform2):
    # below the cusp the flat-boundary level falls one-for-one with rate
    vals = [tau_flat(zchannel, uniform2, r).tau_flat for r in (0.04, 0.06)]
    slope = (vals[1] - vals[0]) / 0.02
    assert slope == pytest.approx(-1.0, abs=1e-3)


def test_fa_cusp_absent_for_degenerate_channel(uniform2):
    flat = Channel([[0.6, 0.4], [0.6, 0.4]])  # zero mutual information
    assert fa_cusp_rate(flat, uniform2, [0.01, 0.05, 0.1]) is None


def test_fa_cusp_requires_sorted_grid(zchannel, uniform2):
    with pytest.raises(ValueError):
        fa_cusp_rate(zchannel, uniform2, [0.2, 0.1])


def test_phase_report_invariants(zchannel, uniform2):
    report = phase_report(zchannel, uniform2, 0.05)
    assert report.tau_star == pytest.approx(max(0.0, report.i_xy - 0.05),
                                            abs=1e-12)
    assert report.lambda_min <= report.lambda_max
    assert report.lambda_min < report.tau_kink < 0.0
    with pytest.raises(ValueError):
        PhaseReport(rate=0.05, i_xy=0.24, tau_flat=0.0, lambda_min=-0.1,
                    lambda_max=0.4, tau_star=0.5, fa_flat_value=0.1)


def test_classify_regions(zchannel, uniform2):
    report = phase_report(zchannel, uniform2, 0.30)
    # rate above mutual information: zero missed-detection onset at zero
    assert report.tau_star == 0.0
    assert classify(0.0, report)[1] is RegionTag.MD_ZERO

    report = phase_report(zchannel, uniform2, 0.05)
    assert classify(report.lambda_min - 0.01, report)[1] is RegionTag.MD_INFINITE
    fa_tag, md_tag = classify(0.1, report)
    assert fa_tag is RegionTag.FA_ACTIVE and md_tag is RegionTag.MD_ACTIVE
    assert classify(-5.0, report)[0] is RegionTag.FA_FLAT
    assert classify(0.5, report)[0] is RegionTag.FA_INFINITE
    # exhaustive and mutually exclusive over a threshold sweep
    for tau in np.linspace(-0.2, 0.6, 33):
        fa_tag, md_tag = classify(float(tau), report)
        assert fa_tag.name.startswith("FA_") and md_tag.name.startswith("MD_")


def test_tradeoff_curve_zchannel(zchannel, uniform2):
    curve = tradeoff_curve(zchannel, uniform2, 0.05, tau_samples=61)
    taus = [p[0] for p in curve.points]
    fas = [p[1] for p in curve.points]
    mds = [p[2] for p in curve.points]
    assert len(curve.points) == 61
    assert all(a <= b + 1e-9 for a, b in zip(fas, fas[1:]))
    assert all(a >= b - 1e-9 for a, b in zip(mds, mds[1:]))
    # genuine tradeoff zone: both exponents positive at positive thresholds
    # (a singular channel keeps its false-alarm floor at negative thresholds
    # too, but the exponents only trade against each other past zero)
    zone = [t for t, f, m in curve.points
            if t > 1e-9 and f > 1e-4 and m > 1e-4]
    width = max(zone) - min(zone)
    assert width == pytest.approx(I_Z - 0.05, abs=0.02)
    # envelope strictly decreasing with an infinite head allowed
    env = curve.envelope
    assert all(e1[0] < e2[0] for e1, e2 in zip(env, env[1:]))
    finite = [e for e in env if math.isfinite(e[1])]
    assert all(e1[1] > e2[1] for e1, e2 in zip(finite, finite[1:]))


def test_tradeoff_zone_empty_above_mutual_information(zchannel, uniform2):
    curve = tradeoff_curve(zchannel, uniform2, 0.30, tau_samples=41)
    assert not any(f > 1e-4 and m > 1e-4 for _, f, m in curve.points)


def test_tradeoff_rejects_bad_inputs(zchannel, uniform2):
    with pytest.raises(ValueError):
        tradeoff_curve(zchannel, uniform2, 0.0, tau_samples=10)
    with pytest.raises(ValueError):
        tradeoff_curve(zchannel, uniform2, 0.05, tau_samples=1)


def test_phase_grid_zchannel(zchannel, uniform2):
    grid = phase_grid(zchannel, uniform2, (-0.05, 0.3, 4), (0.05, 0.35, 3))
    assert grid.e_fa.shape == (3, 4)
    assert grid.e_md.shape == (3, 4)
    # the zero-onset boundary is the clipped information gap, slope -1
    want = np.maximum(0.0, I_Z - grid.rates)
    assert np.allclose(grid.boundaries["tau_star"], want, atol=1e-6)
    # grid cells reproduce pointwise solver calls exactly
    k, t = 1, 2
    rate, tau = float(grid.rates[k]), float(grid.taus[t])
    assert grid.e_fa[k, t] == fa_exponent(zchannel, uniform2, tau, rate).value
    assert grid.e_md[k, t] == md_exponent(zchannel, uniform2, tau, rate).value
    # region tags are enums from the classifier
    assert isinstance(grid.fa_regions[k][t], RegionTag)


def test_phase_grid_soft_covering_point_on_boundary(zchannel, uniform2):
    grid = phase_grid(zchannel, uniform2, (-0.02, 0.02, 3), (I_Z, I_Z + 0.1, 2))
    assert grid.boundaries["tau_star"][0] == pytest.approx(0.0, abs=1e-6)


def test_common_bulk_branch_rate_independence(zchannel, uniform2):
    kinks = [tau_kink(zchannel, uniform2, r) for r in (0.05, 0.20)]
    tau = min(k for k in kinks if k is not None) - 0.013
    vals = [md_exponent(zchannel, uniform2, tau, r).value
            for r in (0.05, 0.10, 0.15, 0.20)]
    assert max(vals) - min(vals) <= 1e-4
