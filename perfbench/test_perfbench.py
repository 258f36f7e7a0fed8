"""Tests of the benchmark's own parts: request generators are deterministic
in the seed, and every checker rejects a deliberately wrong result.

    python3 -m pytest perfbench
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import softcover as sc  # noqa: E402
from reference import ZChannelScan, r0_error_probs  # noqa: E402
from workloads import WORKLOADS, Z_ROWS, PHASE_HEADER  # noqa: E402


def _same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return np.array_equal(np.asarray(a), np.asarray(b))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_requests_are_deterministic_in_the_seed(name, tmp_path):
    make = WORKLOADS[name]
    first = [make(sc, 7, tmp_path).request(k) for k in range(6)]
    again = [make(sc, 7, tmp_path).request(k) for k in range(6)]
    other = [make(sc, 8, tmp_path).request(k) for k in range(6)]
    assert all(_same(a, b) for a, b in zip(first, again))
    # the 2x3 design is fixed on purpose (see Ch2x3Ceiling)
    varies = name != "ch2x3-md-ceiling"
    assert all(_same(a, b) for a, b in zip(first, other)) != varies


def test_zchannel_check_rejects_a_wrong_value(tmp_path):
    wl = WORKLOADS["zchannel-cells"](sc, 1, tmp_path)
    scan = ZChannelScan(0.45)
    req = {"tau": -0.03, "rate": 0.1}
    right = (scan.fa(-0.03, 0.1), scan.md(-0.03, 0.1))
    assert wl.check(req, right).ok
    assert not wl.check(req, (right[0] + 2e-4, right[1])).ok
    assert not wl.check(req, (right[0], math.inf)).ok


def test_zchannel_rates_stay_below_mutual_information(tmp_path):
    gated = WORKLOADS["zchannel-cells"](sc, 3, tmp_path)
    full = WORKLOADS["zchannel-cells-full"](sc, 3, tmp_path)
    i_xy = ZChannelScan(0.45).i_xy
    assert max(gated.request(k)["rate"] for k in range(200)) <= i_xy
    assert max(full.request(k)["rate"] for k in range(200)) > i_xy


def test_ceiling_check_rejects_an_infeasible_minimizer(tmp_path):
    wl = WORKLOADS["ch2x3-md-ceiling"](sc, 1, tmp_path)
    req = wl.request(0)
    w = sc.Channel(req["rows"])
    # the channel's own joint type has level [I - R]_+ >= 0 > tau
    wrong = sc.ExponentResult(0.0, sc.JointType(wl.p, w.rows), "bulk", True)
    assert req["tau"] < 0
    assert not wl.check(req, wrong).ok
    infeasible = sc.ExponentResult(math.inf, None, None, False)
    assert wl.check(req, infeasible).ok


def test_finite_n_check_rejects_wrong_probabilities(tmp_path):
    wl = WORKLOADS["finite-n"](sc, 1, tmp_path)
    req = {"kind": "r0", "n": 16, "tau": 0.01}
    alpha, beta = r0_error_probs(16, Z_ROWS, [0.5, 0.5], 0.01)
    assert wl.check(req, (alpha, beta)).ok
    assert not wl.check(req, (alpha * (1 + 1e-8), beta)).ok
    mc = {"kind": "mc", "n": 12, "tau": 0.05, "seed": 1}
    assert wl.check(mc, (0.2, 0.3)).ok
    assert not wl.check(mc, (1.5, 0.3)).ok


def test_type_class_sum_matches_enumeration():
    w = sc.Channel(Z_ROWS)
    p = sc.Distribution([0.5, 0.5])
    for tau in (-0.05, 0.0, 0.07):
        got = sc.exact_r0_error_probs(12, w, p, tau)
        want = r0_error_probs(12, Z_ROWS, [0.5, 0.5], tau)
        assert all(math.isclose(g, r, rel_tol=1e-12)
                   for g, r in zip(got, want))


def test_cli_check_rejects_bad_exit_or_table(tmp_path):
    wl = WORKLOADS["cli-phase"](sc, 1, tmp_path)
    phase = wl.request(0)
    verify = wl.request(3)
    table = PHASE_HEADER + "\n1,2,3,4,5,6,7,8\n1,2,3,4,5,6,7,8\n"
    assert wl.check(phase, (0, table)).ok
    assert not wl.check(phase, (2, table)).ok
    assert not wl.check(phase, (0, table.replace("tau_kink", "kink"))).ok
    assert not wl.check(phase, (0, table + "1,2,3,4,5,6,7,8\n")).ok
    assert wl.check(verify, (0, "all checkpoints passed\n")).ok
    assert not wl.check(verify, (4, "1 checkpoint(s) failed\n")).ok
