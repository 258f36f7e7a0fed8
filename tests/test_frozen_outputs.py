"""Frozen solver outputs, compared bit for bit.

Every value, branch tag and minimizer entry below was recorded from the
solver and is compared with ``==`` on ``float.hex``. A refactor of the scan
or the polish loop must leave all of them unchanged; a deliberate change of
the numbers has to re-record them and say why.

``Z_MD[0.1]``, the skewed-input E_MD at tau = 0.1 and the rate-0 E_MD are
the exact Hoeffding tilt (see ``test_md_tilt.py``), which replaced the grid
solve there: each value dropped by less than 4e-7 and kept its tag.
Likewise ``Z_FA[0.1]``, both ``FA_SPARSE_2X3`` entries and the skewed-input
E_FA at tau = 0.1 are the exact false-alarm tilt (see ``test_fa_tilt.py``):
each value dropped by at most 2.1e-5 and kept its tag. The upper level
extremum of ``lambda_extrema`` is its closed form, 1 ulp above the grid's.
The gated Z-channel E_MD entries (``Z_MD[-0.06]``, the skewed input at tau
= -0.05, the dead sparse branch and both branches live) come from the
exact search over output marginals (``softcover.marginals``), which
replaced the grid there: each value dropped by 1.8e-7 to 1.9e-6, kept its
tag, and its minimizer passes the certification of
``test_gated_md_two_outputs.py``.

On two outputs E_FA at R > 0 and tau <= 0 and the interference level are
exact too (``softcover.marginals``). The ``Z_FA`` flat entries are the
false-alarm tilt at s = 0, the unconstrained minimum, with the bits the
grid gave. The BSC ``tau_flat`` is the exact ceiling at P_Y, the top of
the flat region (``test_gated_fa_two_outputs.py``), where the grid's scan
picked a tied minimizer of lower level (-0.2191066). The BSC interference
level rose by 3.8e-8 from the fiber grid's -0.11973245 to the exact
-0.11973241, and the Z-channel one moved by 8 ulps (closed form instead of
the grid's arithmetic).
"""

import numpy as np
import pytest

from softcover import (
    Channel,
    Distribution,
    SolverConfig,
    fa_exponent,
    interference_level,
    lambda_extrema,
    md_exponent,
    r0_exponents,
    tau_flat,
)
from softcover.exponents import BULK, SPARSE, Problem

CFG17 = SolverConfig(grid_points_per_dim=17)

Z_ONE = "0x1.0000000000000p+0"
Z_ZERO = "0x0.0p+0"
Z_FLAT = ("0x1.c5cda297a721ep-4", "sparse",
          (Z_ONE, Z_ZERO, "0x1.7333333333333p-1", "0x1.199999999999ap-2"))

Z_FA = {
    0.1: ("0x1.02186e5a38652p-3", "sparse",
          (Z_ONE, Z_ZERO, "0x1.38c085bcd2a1ap-1", "0x1.8e7ef4865abcep-2")),
    -0.06: Z_FLAT,
    -10.0: Z_FLAT,
}

Z_MD = {
    0.1: ("0x1.aa5d0c6b5cc14p-6", "sparse",
          (Z_ONE, Z_ZERO, "0x1.38c085bcd2a1ap-1", "0x1.8e7ef4865abcep-2")),
    -0.06: ("0x1.0579e2a74202ap-2", "bulk",
            (Z_ONE, Z_ZERO, "0x1.d8638f2c59360p-1", "0x1.3ce3869d36500p-4")),
    -10.0: ("inf", None, None),
}

MD_2X3 = {
    (0, -0.03): ("0x1.ac44c8bf5c3cbp-5", "sparse",
                 ("0x1.d846ff513cc1ep-2", "0x1.e20a1a7cca9d9p-2",
                  "0x1.16bb98c7e2824p-4", "0x1.f0d1b71758e22p-2",
                  "0x1.1020c49ba5e35p-3", "0x1.871de69ad42c4p-2")),
    (0, -0.06): ("0x1.57dc024c24757p-3", "bulk",
                 ("0x1.25f6fd21ff2e6p-2", "0x1.3ad3149dd520ep-1",
                  "0x1.918b66895a3fbp-4", "0x1.04e5ec10ee1d3p-1",
                  "0x1.1c226809d4952p-2", "0x1.b4237fa89e60fp-3")),
    (2, -0.03): ("0x1.ba7abff449e72p-3", "sparse",
                 ("0x1.c200a31ca061ap-2", "0x1.1b9698a4eea90p-1",
                  "0x1.b48ae66093179p-8", "0x1.9809d495182aap-1",
                  "0x1.2d7fee8613634p-3", "0x1.c962fc962fc95p-5")),
    (2, -0.06): ("0x1.c6f4a26015f8ap-2", "bulk",
                 ("0x1.7883126e978d5p-1", "0x1.585f06f694467p-4",
                  "0x1.71c432ca57a78p-3", "0x1.981facfcdc178p-1",
                  "0x1.5555555555555p-5", "0x1.4a2bf6b73a4cbp-3")),
}


def _hex(res):
    minimizer = (None if res.minimizer is None else
                 tuple(float(v).hex() for v in res.minimizer.conditional.ravel()))
    return res.value.hex(), res.branch, minimizer


@pytest.mark.parametrize("tau", sorted(Z_FA))
def test_zchannel_exponents(zchannel, uniform2, tau):
    assert _hex(fa_exponent(zchannel, uniform2, tau, 0.05)) == Z_FA[tau]
    assert _hex(md_exponent(zchannel, uniform2, tau, 0.05)) == Z_MD[tau]


@pytest.mark.parametrize("case", sorted(MD_2X3))
def test_md_with_ceiling_gate_on_2x3(random_2x3_channels, uniform2, case):
    index, tau = case
    res = md_exponent(random_2x3_channels[index], uniform2, tau, 0.1, CFG17)
    assert _hex(res) == MD_2X3[case]


def test_interference_level(bsc, random_2x3_channels, uniform2):
    level = interference_level(Distribution([0.3, 0.7]), bsc, uniform2, 0.2)
    assert level.hex() == "-0x1.ea6c892175de2p-4"
    level = interference_level(Distribution([0.3, 0.3, 0.4]),
                               random_2x3_channels[0], uniform2, 0.1, CFG17)
    assert level.hex() == "-0x1.2f44f881475a0p-8"


def test_phase_quantities(zchannel, bsc, uniform2):
    lo, hi = lambda_extrema(zchannel, uniform2, 0.05)
    assert (lo.hex(), hi.hex()) == ("-0x1.3e2321fdf8a9cp-4",
                                    "0x1.d45798958d675p-2")
    fp = tau_flat(zchannel, uniform2, 0.05)
    assert (fp.tau_flat.hex(), fp.fa_flat_value.hex()) == \
        ("0x1.1018023c98c48p-5", "0x1.c5cda297a721ep-4")
    fp = tau_flat(bsc, uniform2, 0.05)
    assert (fp.tau_flat.hex(), fp.fa_flat_value.hex()) == \
        ("-0x1.bb111e0cb8c98p-3", "0x0.0p+0")


def test_rate_zero_exponents(zchannel, uniform2):
    fa, md = r0_exponents(zchannel, uniform2, 0.05)
    assert _hex(fa) == ("0x1.494d37b239f76p-3", "sparse",
                        (Z_ONE, Z_ZERO, "0x1.7333333333333p-1",
                         "0x1.199999999999ap-2"))
    assert _hex(md) == ("0x1.d72ac541aed7dp-4", "sparse",
                        (Z_ONE, Z_ZERO, "0x1.9044a0cace933p-1",
                         "0x1.beed7cd4c5b38p-3"))


# Channels with structural zeros: the solver may drop candidates that put
# mass outside the support of an input with positive probability, but never
# the rows of an input with no mass, and never change a number by doing so.
SPARSE_2X3 = [[0.6, 0.4, 0.0], [0.0, 0.3, 0.7]]

FA_SPARSE_2X3 = {
    0.05: ("0x1.2cc746d139643p-2", "sparse",
           ("0x1.d89d89d89d89ep-2", "0x1.13b13b13b13b1p-1", Z_ZERO,
            Z_ZERO, "0x1.0000000000000p-1", "0x1.0000000000000p-1")),
    0.3: ("0x1.40021c4a80e26p-2", "sparse",
          ("0x1.13444d4d4037ap-1", "0x1.d97765657f90cp-2", Z_ZERO,
           Z_ZERO, "0x1.8bda98dedfd61p-2", "0x1.3a12b39090150p-1")),
}

MD_SPARSE_2X3 = {
    -0.02: ("0x1.31eb6f199480dp-1", "bulk",
            ("0x1.a43728d2ceb64p-3", "0x1.96f235cb4c527p-1", Z_ZERO,
             Z_ZERO, "0x1.d8e448a2bf6b8p-1", "0x1.38ddbaea04a46p-4")),
    -0.03: ("0x1.4ee59bfd5c4ecp-1", "sparse",
            ("0x1.ed1fcff0b550cp-3", "0x1.84b80c03d2abdp-1", Z_ZERO,
             Z_ZERO, "0x1.f05def57ca7aap-1", "0x1.f4421506b0acap-6")),
}


@pytest.mark.parametrize("tau", sorted(FA_SPARSE_2X3))
def test_fa_on_2x3_with_structural_zeros(uniform2, tau):
    res = fa_exponent(Channel(SPARSE_2X3), uniform2, tau, 0.1, CFG17)
    assert _hex(res) == FA_SPARSE_2X3[tau]


@pytest.mark.parametrize("tau", sorted(MD_SPARSE_2X3))
def test_gated_md_on_2x3_with_structural_zeros(uniform2, tau):
    res = md_exponent(Channel(SPARSE_2X3), uniform2, tau, 0.1, CFG17)
    assert _hex(res) == MD_SPARSE_2X3[tau]


def test_zchannel_with_skewed_input(zchannel):
    p_in = Distribution([0.3, 0.7])
    assert _hex(fa_exponent(zchannel, p_in, 0.1, 0.05)) == (
        "0x1.b94fe7a277dc4p-4", "sparse",
        (Z_ONE, Z_ZERO, "0x1.0c671a5fa5c5ep-1", "0x1.e731cb40b4744p-2"))
    assert _hex(md_exponent(zchannel, p_in, 0.1, 0.05)) == (
        "0x1.fb64e08de42f1p-8", "sparse",
        (Z_ONE, Z_ZERO, "0x1.0c671a5fa5c5ep-1", "0x1.e731cb40b4744p-2"))
    assert _hex(md_exponent(zchannel, p_in, -0.05, 0.05)) == (
        "0x1.3319f460c7a48p-2", "bulk",
        (Z_ONE, Z_ZERO, "0x1.c759074bdd441p-1", "0x1.c537c5a115df8p-4"))


@pytest.mark.parametrize("p_in", [[1.0, 0.0], [0.0, 1.0]])
def test_zero_mass_input_keeps_all_its_rows(p_in):
    # every row of the massless input ties; the first in scan order wins
    w = Channel([[0.9, 0.1], [0.0, 1.0]])
    fp = tau_flat(w, Distribution(p_in), 0.05)
    assert (fp.tau_flat.hex(), fp.fa_flat_value.hex()) == (Z_ZERO, Z_ZERO)
    if p_in == [1.0, 0.0]:
        assert _hex(fa_exponent(w, Distribution(p_in), -0.1, 0.05)) == (
            Z_ZERO, "bulk",
            ("0x1.ccccccccccccdp-1", "0x1.999999999999ap-4", Z_ZERO, Z_ONE))


def test_interference_level_on_zchannel(zchannel, uniform2):
    level = interference_level(Distribution([0.9, 0.1]), zchannel, uniform2,
                               0.1)
    assert level.hex() == "-0x1.232ef996443b0p-5"
    level = interference_level(Distribution([0.6, 0.4]), zchannel, uniform2,
                               0.1)
    assert level == float("-inf")


# The stored level minima of each branch, which seed the gated E_MD
# solves: the value and the minimizing conditional, keyed by branch. Z at
# R = 0.3 lies above I(X;Y).
LEVEL_EXTREMA = {
    ("Z", 0.05): {
        BULK: ("-0x1.3e2321fdf8a9cp-4",
               (Z_ONE, Z_ZERO, Z_ONE, Z_ZERO)),
        SPARSE: ("-0x1.854bd627f4536p-5",
                 (Z_ONE, Z_ZERO, "0x1.b9db65ecc3e32p-1",
                  "0x1.1892684cf073ap-3")),
    },
    ("Z", 0.3): {
        BULK: ("-0x1.3e2321fdf8a9cp-4",
               (Z_ONE, Z_ZERO, Z_ONE, Z_ZERO)),
        SPARSE: ("-0x1.bc0cc49243bc0p-9",
                 (Z_ONE, Z_ZERO, "0x1.70e2c12ad81aep-2",
                  "0x1.478e9f6a93f29p-1")),
    },
    ("BSC", 0.05): {
        BULK: ("-0x1.cf0ba9006ba2fp-1",
               ("0x1.84167a95c853cp-2", "0x1.3df4c2b51bd62p-1",
                "0x1.622856605ee57p-1", "0x1.3baf533f42352p-2")),
        SPARSE: ("-0x1.a8d0ec4ba5a00p+0",
                 (Z_ZERO, Z_ONE, Z_ONE, Z_ZERO)),
    },
    ("SPARSE_2X3", 0.1): {
        BULK: ("-0x1.32e3d95d59100p-5",
               ("0x1.0a8c154c985f0p-2", "0x1.7ab9f559b3d08p-1",
                Z_ZERO, Z_ZERO, Z_ONE, Z_ZERO)),
        SPARSE: ("-0x1.32ec9264806e4p-5",
                 ("0x1.0a94d242e6bdcp-2", "0x1.7ab596de8ca12p-1",
                  Z_ZERO, Z_ZERO, Z_ONE, Z_ZERO)),
    },
}


@pytest.mark.parametrize("case", sorted(LEVEL_EXTREMA))
@pytest.mark.parametrize("order", ["bulk first", "sparse first"])
def test_level_extrema_per_branch(zchannel, bsc, uniform2, case, order):
    name, rate = case
    w = {"Z": zchannel, "BSC": bsc, "SPARSE_2X3": Channel(SPARSE_2X3)}[name]
    problem = Problem(w, uniform2, rate,
                      CFG17 if name == "SPARSE_2X3" else None)
    branches = [BULK, SPARSE] if order == "bulk first" else [SPARSE, BULK]
    found = {branch: problem.level_min(branch) for branch in branches}
    got = {key: (res.value.hex(),
                 tuple(float(v).hex() for v in res.cond.ravel()))
           for key, res in found.items()}
    assert got == LEVEL_EXTREMA[case]


# E_FA at and just below the sparse branch's level maximum of fixtures 1
# and 3 at R = 0.3 (-0.10074 and -0.17364): at grid 17 and R in {0.02,
# 0.05, 0.1, 0.3} the only fixture cells where that maximum lies below 0,
# so the only ones where the sparse seed it once gave could matter. The
# minimizer is the channel itself.
FA_BELOW_SPARSE_MAX = {
    1: ("-0x1.9ca5e97ce2abcp-4",
        ("0x1.15aa81f18524ap-2", "0x1.4470d1b86cedep-2",
         "0x1.a5e4ac560dedap-2", "0x1.930500775b02ap-2",
         "0x1.741bb5ad296ebp-2", "0x1.f1be93b6f71d8p-3")),
    3: ("-0x1.639c01ab49846p-3",
        ("0x1.2aad6a365ee7ap-2", "0x1.0d9101707d2ebp-3",
         "0x1.27450a88b1409p-1", "0x1.1d39c926ac16ep-2",
         "0x1.54c5a3e2c386ep-4", "0x1.46ca66f05183bp-1")),
}


@pytest.mark.parametrize("index", sorted(FA_BELOW_SPARSE_MAX))
@pytest.mark.parametrize("below", [0.0, 1e-6, 1e-3])
def test_fa_below_the_sparse_level_maximum(random_2x3_channels, uniform2,
                                           index, below):
    top, cond = FA_BELOW_SPARSE_MAX[index]
    res = fa_exponent(random_2x3_channels[index], uniform2,
                      float.fromhex(top) - below, 0.3, CFG17)
    assert _hex(res) == (Z_ZERO, "bulk", cond)


def test_md_with_a_dead_sparse_branch(zchannel, uniform2):
    # above I(X;Y) at tau < 0 no sparse type passes the level and the
    # ceiling tests, so the bulk branch alone decides
    assert _hex(md_exponent(zchannel, uniform2, -0.01, 0.3)) == (
        "0x1.f529ceba049a4p-6", "bulk",
        (Z_ONE, Z_ZERO, "0x1.3fa0c6483f260p-1", "0x1.80be736f81b40p-2"))


def test_gated_md_with_both_branches_live(zchannel, uniform2):
    # both branches have a feasible minimum here (bulk 0.186, sparse 0.142)
    assert _hex(md_exponent(zchannel, uniform2, -0.02, 0.05)) == (
        "0x1.22edf9bb491d1p-3", "sparse",
        (Z_ONE, Z_ZERO, "0x1.a1c57300cdc37p-1", "0x1.78ea33fcc8f23p-3"))


# Two-output channels with two and three free rows, whose exponents at
# R > 0 and tau <= 0 come from the Newton walks of ``marginals.Fibers``:
# every cell of each channel runs the walk to I = R (the ceiling), the
# gated E_MD cells also the walk to E_V[i] = t, and the positive E_FA
# cells the walk to D_c = cap. The BSC's E_FA at tau = -0.3 is 0, reached
# at P_Y, and reports the ceiling's minimizer there.
C3X2 = [[0.8, 0.2], [0.3, 0.7], [0.5, 0.5]]

TWO_OUTPUT_CELLS = {
    ("BSC", "md", -0.3): (
        "0x1.077f678ff89cap-1", "bulk",
        ("0x1.de3116afa83d9p-1", "0x1.0e774a82be138p-4",
         "0x1.64a2cc5ca0a66p-1", "0x1.36ba6746beb34p-2")),
    ("BSC", "fa", -0.3): (
        Z_ZERO, "bulk",
        ("0x1.5045ad7b2f2cep-1", "0x1.5f74a509a1a64p-2",
         "0x1.5f74a509a1a63p-2", "0x1.5045ad7b2f2cep-1")),
    ("BSC", "fa", -0.1): (
        "0x1.4ddca1227a486p-5", "sparse",
        ("0x1.6b61d52f7e9a7p-1", "0x1.293c55a102cb3p-2",
         "0x1.293c55a102cb3p-2", "0x1.6b61d52f7e9a7p-1")),
    ("3x2", "md", -0.05): (
        "0x1.8ca0a02bc7e1ap-3", "bulk",
        ("0x1.8e423f525db1fp-2", "0x1.38dee056d1270p-1",
         "0x1.66d80205ab79ap-3", "0x1.a649ff7e9521ap-1",
         "0x1.f2f660e9d4aabp-3", "0x1.834267c58ad55p-1")),
    ("3x2", "fa", -0.02): (
        "0x1.fcfef651256ecp-9", "sparse",
        ("0x1.5af0ace388a32p-1", "0x1.4a1ea638eeb9bp-2",
         "0x1.a8e9e9a8b3a46p-2", "0x1.2b8b0b2ba62ddp-1",
         "0x1.08c683b818c01p-1", "0x1.ee72f88fce7ffp-2")),
}


@pytest.mark.parametrize("case", sorted(TWO_OUTPUT_CELLS))
def test_two_output_exponents_with_free_rows(bsc, uniform2, case):
    name, which, tau = case
    if name == "BSC":
        w, p_in, rate = bsc, uniform2, 0.05
    else:
        w, p_in, rate = Channel(C3X2), Distribution([1 / 3, 1 / 3, 1 / 3]), 0.02
    solve = md_exponent if which == "md" else fa_exponent
    assert _hex(solve(w, p_in, tau, rate)) == TWO_OUTPUT_CELLS[case]


def test_interference_level_on_3x2():
    level = interference_level(Distribution([0.3, 0.7]), Channel(C3X2),
                               Distribution([1 / 3, 1 / 3, 1 / 3]), 0.05)
    assert level.hex() == "-0x1.c33004f9f6e60p-6"


# J(q) = min {I : P V = q, D_c <= D(q || P_Y) + 0.1}, where the cap binds:
# the walk to D_c = cap. E_FA barely reads it (its minimizer has J <= R, so
# the cells above come out the same when the walk is perturbed), so these
# entries guard the walk itself.
LEAST_INFO = {
    "BSC": ([0.45, 0.6], ["0x1.030fcaefa6270p-3", "0x1.19337357cd8b8p-3"]),
    "3x2": ([0.2, 0.3, 0.45], ["0x1.ebbcf5ea52200p-11",
                               "0x1.54a90f47c3000p-12",
                               "0x1.f7c14a4220000p-16"]),
}


@pytest.mark.parametrize("name", sorted(LEAST_INFO))
def test_least_info_where_the_cap_binds(bsc, uniform2, name):
    if name == "BSC":
        problem = Problem(bsc, uniform2, 0.05)
    else:
        problem = Problem(Channel(C3X2), Distribution([1 / 3, 1 / 3, 1 / 3]),
                          0.05)
    fibers = problem._fibers
    q = np.array(LEAST_INFO[name][0])
    info, _ = fibers.least_info(q, fibers.divergence(q) + 0.1)
    assert [float(v).hex() for v in info] == LEAST_INFO[name][1]
