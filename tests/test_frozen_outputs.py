"""Frozen solver outputs, compared bit for bit.

Every value, branch tag and minimizer entry below was recorded from the
solver and is compared with ``==`` on ``float.hex``. A refactor of the scan
or the polish loop must leave all of them unchanged; a deliberate change of
the numbers has to re-record them and say why.
"""

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
    0.1: ("0x1.0218ae03d1f5bp-3", "sparse",
          (Z_ONE, Z_ZERO, "0x1.38c0485a0be51p-1", "0x1.8e7f6f4be835ep-2")),
    -0.06: Z_FLAT,
    -10.0: Z_FLAT,
}

Z_MD = {
    0.1: ("0x1.aa5d48143b7bcp-6", "sparse",
          (Z_ONE, Z_ZERO, "0x1.38c08b75ea67ep-1", "0x1.8e7ee9142b303p-2")),
    -0.06: ("0x1.057a629797cf1p-2", "bulk",
            (Z_ONE, Z_ZERO, "0x1.d863beec3979ap-1", "0x1.3ce2089e34331p-4")),
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
    assert level.hex() == "-0x1.ea6c935b7776ap-4"
    level = interference_level(Distribution([0.3, 0.3, 0.4]),
                               random_2x3_channels[0], uniform2, 0.1, CFG17)
    assert level.hex() == "-0x1.2f44f881475a0p-8"


def test_phase_quantities(zchannel, bsc, uniform2):
    lo, hi = lambda_extrema(zchannel, uniform2, 0.05)
    assert (lo.hex(), hi.hex()) == ("-0x1.3e2321fdf8a9cp-4",
                                    "0x1.d45798958d674p-2")
    fp = tau_flat(zchannel, uniform2, 0.05)
    assert (fp.tau_flat.hex(), fp.fa_flat_value.hex(), fp.multiple) == \
        ("0x1.1018023c98c48p-5", "0x1.c5cda297a721ep-4", False)
    fp = tau_flat(bsc, uniform2, 0.05)
    assert (fp.tau_flat.hex(), fp.fa_flat_value.hex(), fp.multiple) == \
        ("-0x1.c0baf89a10d39p-3", "0x0.0p+0", True)


def test_rate_zero_exponents(zchannel, uniform2):
    fa, md = r0_exponents(zchannel, uniform2, 0.05)
    assert _hex(fa) == ("0x1.494d37b239f76p-3", "sparse",
                        (Z_ONE, Z_ZERO, "0x1.7333333333333p-1",
                         "0x1.199999999999ap-2"))
    assert _hex(md) == ("0x1.d72b165ba9f94p-4", "sparse",
                        (Z_ONE, Z_ZERO, "0x1.9044ae85b9e8cp-1",
                         "0x1.beed45e9185cfp-3"))


# Channels with structural zeros: the solver may drop candidates that put
# mass outside the support of an input with positive probability, but never
# the rows of an input with no mass, and never change a number by doing so.
SPARSE_2X3 = [[0.6, 0.4, 0.0], [0.0, 0.3, 0.7]]

FA_SPARSE_2X3 = {
    0.05: ("0x1.2cc746d166d77p-2", "sparse",
           ("0x1.d89e60f04c758p-2", "0x1.13b0cf87d9c54p-1", Z_ZERO,
            Z_ZERO, "0x1.0000000000000p-1", "0x1.0000000000000p-1")),
    0.3: ("0x1.400768bf80dc8p-2", "sparse",
          ("0x1.15242e6bdc806p-1", "0x1.d5b7a32846ff5p-2", Z_ZERO,
           Z_ZERO, "0x1.8e53d4daffdd1p-2", "0x1.38d6159280118p-1")),
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
        "0x1.b94fef909e488p-4", "sparse",
        (Z_ONE, Z_ZERO, "0x1.0c67168f8e7dep-1", "0x1.e731d2e0e3045p-2"))
    assert _hex(md_exponent(zchannel, p_in, 0.1, 0.05)) == (
        "0x1.fb6b789b02f1bp-8", "sparse",
        (Z_ONE, Z_ZERO, "0x1.0c6759ab6d00bp-1", "0x1.e7314ca925feap-2"))
    assert _hex(md_exponent(zchannel, p_in, -0.05, 0.05)) == (
        "0x1.331a540eb7188p-2", "bulk",
        (Z_ONE, Z_ZERO, "0x1.c759253543aebp-1", "0x1.c536d655e28aap-4"))


@pytest.mark.parametrize("p_in", [[1.0, 0.0], [0.0, 1.0]])
def test_zero_mass_input_keeps_all_its_rows(p_in):
    # every row of the massless input ties, so the tie count is the number
    # of its grid rows (401) times the one tying row of the other input
    w = Channel([[0.9, 0.1], [0.0, 1.0]])
    fp = tau_flat(w, Distribution(p_in), 0.05)
    assert (fp.tau_flat.hex(), fp.fa_flat_value.hex(), fp.multiple) == \
        (Z_ZERO, Z_ZERO, True)
    if p_in == [1.0, 0.0]:
        assert _hex(fa_exponent(w, Distribution(p_in), -0.1, 0.05)) == (
            Z_ZERO, "bulk",
            ("0x1.ccccccccccccdp-1", "0x1.999999999999ap-4", Z_ZERO, Z_ONE))


def test_interference_level_on_zchannel(zchannel, uniform2):
    level = interference_level(Distribution([0.9, 0.1]), zchannel, uniform2,
                               0.1)
    assert level.hex() == "-0x1.232ef996443a8p-5"
    level = interference_level(Distribution([0.6, 0.4]), zchannel, uniform2,
                               0.1)
    assert level == float("-inf")


# Each branch's level extremum, which seeds that branch's exponent solves:
# the value and the minimizing conditional, for (minimize, branch). Z at
# R = 0.3 lies above I(X;Y).
LEVEL_EXTREMA = {
    ("Z", 0.05): {
        (True, BULK): ("-0x1.3e2321fdf8a9cp-4",
                       (Z_ONE, Z_ZERO, Z_ONE, Z_ZERO)),
        (True, SPARSE): ("-0x1.854bd627f4536p-5",
                         (Z_ONE, Z_ZERO, "0x1.b9db65ecc3e32p-1",
                          "0x1.1892684cf073ap-3")),
        (False, BULK): ("-0x1.854e3a7c92c30p-5",
                        (Z_ONE, Z_ZERO, "0x1.b9dba908a265fp-1",
                         "0x1.18915bdd76684p-3")),
        (False, SPARSE): ("0x1.d45798958d674p-2",
                          (Z_ONE, Z_ZERO, Z_ZERO, Z_ONE)),
    },
    ("Z", 0.3): {
        (True, BULK): ("-0x1.3e2321fdf8a9cp-4",
                       (Z_ONE, Z_ZERO, Z_ONE, Z_ZERO)),
        (True, SPARSE): ("-0x1.bc0cc49243bc0p-9",
                         (Z_ONE, Z_ZERO, "0x1.70e2c12ad81aep-2",
                          "0x1.478e9f6a93f29p-1")),
        (False, BULK): (Z_ZERO,
                        (Z_ONE, Z_ZERO, "0x1.ccccccccccccdp-2",
                         "0x1.199999999999ap-1")),
        (False, SPARSE): ("0x1.a8af312b1aceap-3",
                          (Z_ONE, Z_ZERO, Z_ZERO, Z_ONE)),
    },
    ("BSC", 0.05): {
        (True, BULK): ("-0x1.cf0ba9006ba2fp-1",
                       ("0x1.84167a95c853cp-2", "0x1.3df4c2b51bd62p-1",
                        "0x1.622856605ee57p-1", "0x1.3baf533f42352p-2")),
        (True, SPARSE): ("-0x1.a8d0ec4ba5a00p+0",
                         (Z_ZERO, Z_ONE, Z_ONE, Z_ZERO)),
        (False, BULK): ("-0x1.bb119a640cff5p-3",
                        ("0x1.504577d955714p-1", "0x1.5f75104d551d7p-2",
                         "0x1.5f748a159817cp-2", "0x1.5045baf533f42p-1")),
        (False, SPARSE): ("0x1.1358c613f582ap-1",
                          (Z_ONE, Z_ZERO, Z_ZERO, Z_ONE)),
    },
    ("SPARSE_2X3", 0.1): {
        (True, BULK): ("-0x1.32e3d95d59100p-5",
                       ("0x1.0a8c154c985f0p-2", "0x1.7ab9f559b3d08p-1",
                        Z_ZERO, Z_ZERO, Z_ONE, Z_ZERO)),
        (True, SPARSE): ("-0x1.32ec9264806e4p-5",
                         ("0x1.0a94d242e6bdcp-2", "0x1.7ab596de8ca12p-1",
                          Z_ZERO, Z_ZERO, Z_ONE, Z_ZERO)),
        (False, BULK): ("0x1.0000000000000p-52",
                        (Z_ZERO, Z_ONE, Z_ZERO, Z_ZERO,
                         "0x1.8000000000000p-1", "0x1.0000000000000p-2")),
        (False, SPARSE): ("0x1.2fb0fcbc706bdp-1",
                          (Z_ONE, Z_ZERO, Z_ZERO, Z_ZERO, Z_ZERO, Z_ONE)),
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
    got = {}
    for minimize in (True, False):
        for branch in branches:
            res = problem.level_extremum(minimize, branch)
            got[minimize, branch] = (
                res.value.hex(), tuple(float(v).hex() for v in res.cond.ravel()))
    assert got == LEVEL_EXTREMA[case]


def test_md_with_a_dead_sparse_branch(zchannel, uniform2):
    # above I(X;Y) at tau < 0 no sparse type passes the level and the
    # ceiling tests, so the bulk branch alone decides
    assert _hex(md_exponent(zchannel, uniform2, -0.01, 0.3)) == (
        "0x1.f52a91ae0362cp-6", "bulk",
        (Z_ONE, Z_ZERO, "0x1.3fa0d77b7c782p-1", "0x1.80be5109070fcp-2"))


def test_gated_md_with_both_branches_live(zchannel, uniform2):
    # both branches have a feasible minimum here (bulk 0.186, sparse 0.142)
    assert _hex(md_exponent(zchannel, uniform2, -0.02, 0.05)) == (
        "0x1.22ee2d8c76db7p-3", "sparse",
        (Z_ONE, Z_ZERO, "0x1.a1c58255b035cp-1", "0x1.78e9f6a93f291p-3"))
