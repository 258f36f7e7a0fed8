"""Frozen solver outputs, compared bit for bit.

Every value, branch tag and minimizer entry below was recorded from the
solver and is compared with ``==`` on ``float.hex``. A refactor of the scan
or the polish loop must leave all of them unchanged; a deliberate change of
the numbers has to re-record them and say why.
"""

import pytest

from softcover import (
    Distribution,
    SolverConfig,
    fa_exponent,
    interference_level,
    lambda_extrema,
    md_exponent,
    r0_exponents,
    tau_flat,
)

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
