"""The level extrema of a rate are solved once, in lockstep, and shared.

(a) ``fa_exponent`` then ``md_exponent`` at one (channel, input, rate,
    configuration) and ``tau <= 0`` run one grid solve for the extrema
    between them: the second call runs only its own exponent solve, and an
    infeasible one (``tau <= lambda_min``) none. Another rate, configuration
    or channel solves them anew. (On two outputs neither exponent runs the
    grid, so these checks use a channel with three.)
(b) Threads that mix the solvers on shared keys against a memo small enough
    to evict get the single-threaded results and leave the stored entries
    unchanged.
(c) Bit identity: a digest of the value, branch and minimizer bytes of both
    exponents over 200 Z-channel cells at ``tau <= 0``, recorded before the
    extrema were shared and the polish candidates built in one pass.
(d) One level minimum: the stored minimum over both branches is at most
    each branch's, and it is the edge where gated ``E_MD`` becomes finite,
    for ``md_exponent`` and ``classify`` alike.
"""

import concurrent.futures
import hashlib
import sys

import numpy as np
import pytest

from softcover import (
    Channel,
    Distribution,
    JointType,
    RegionTag,
    SolverConfig,
    classify,
    conditional_kl,
    fa_exponent,
    interference_level,
    lambda_extrema,
    llr_level,
    md_exponent,
    output_marginal,
    phase_report,
)
from softcover import exponents
from softcover._memo import Memo
from softcover.exponents import BULK, SPARSE, Problem

Z_ROWS = [[1.0, 0.0], [0.45, 0.55]]
UNIFORM = Distribution([0.5, 0.5])
CFG17 = SolverConfig(grid_points_per_dim=17)
SPARSE_2X3 = [[0.6, 0.4, 0.0], [0.0, 0.3, 0.7]]


@pytest.fixture
def extrema(monkeypatch):
    """A fresh, empty level-extrema memo in place of the package's."""
    memo = Memo(exponents._EXTREMA.max_bytes)
    monkeypatch.setattr(exponents, "_EXTREMA", memo)
    return memo


@pytest.fixture
def solves(monkeypatch):
    """The number of ``Problem._solve`` calls so far, in a one-item list."""
    count = [0]
    solve = Problem._solve

    def counted(self, *args):
        count[0] += 1
        return solve(self, *args)
    monkeypatch.setattr(Problem, "_solve", counted)
    return count


def _solves_in(solves, call):
    solves[0] = 0
    call()
    return solves[0]


def test_md_reuses_the_extrema_that_fa_solved(uniform2, extrema, solves):
    w = Channel(SPARSE_2X3)
    assert fa_exponent(w, uniform2, -0.03, 0.1).feasible
    assert solves[0] == 2  # the extrema, then E_FA
    assert _solves_in(
        solves, lambda: md_exponent(w, uniform2, -0.03, 0.1)) == 1
    # tau <= lambda_min: infeasible from the shared extrema alone
    assert _solves_in(solves, lambda: md_exponent(
        w, uniform2, -0.2, 0.1)) == 0
    assert not md_exponent(w, uniform2, -0.2, 0.1).feasible
    assert len(extrema._items) == 1


@pytest.mark.parametrize("other", ["rate", "config", "channel"])
def test_another_key_solves_the_extrema_anew(uniform2, extrema, solves,
                                             other):
    w, rate, cfg = Channel(SPARSE_2X3), 0.1, None
    fa_exponent(w, uniform2, -0.03, rate)
    if other == "rate":
        rate = 0.1 + 1e-9
    elif other == "config":
        cfg = CFG17
    else:
        w = Channel([[0.6 + 1e-9, 0.4 - 1e-9, 0.0], [0.0, 0.3, 0.7]])
    assert _solves_in(solves,
                     lambda: md_exponent(w, uniform2, -0.03, rate, cfg)) == 2
    assert len(extrema._items) == 2


def test_an_explicit_default_configuration_shares_the_key(uniform2, extrema,
                                                          solves):
    w = Channel(SPARSE_2X3)
    fa_exponent(w, uniform2, -0.03, 0.1)
    assert _solves_in(solves, lambda: md_exponent(
        w, uniform2, -0.03, 0.1, exponents.default_config(w))) == 1


def test_stored_extrema_are_final_and_read_only(zchannel, uniform2,
                                                extrema):
    problem = Problem(zchannel, uniform2, 0.05)
    low = problem.level_min(exponents.BULK)
    high = problem._bulk_max()
    # asking again, from a new instance, returns the same stored floats
    again = Problem(zchannel, uniform2, 0.05)
    assert again.level_min(exponents.BULK).value == low.value
    assert again._bulk_max().value == high.value
    assert low.value < high.value < 0
    with pytest.raises(ValueError):
        high.cond[0, 0] = 0.5


def _digest(res):
    return (res.value.hex(), res.branch, None if res.minimizer is None
            else res.minimizer.conditional.tobytes())


def _mixed(task):
    which, w, tau, rate, cfg = task
    if which == "extrema":
        return tuple(v.hex() for v in lambda_extrema(w, UNIFORM, rate, cfg))
    solve = fa_exponent if which == "fa" else md_exponent
    return _digest(solve(w, UNIFORM, tau, rate, cfg))


def test_threads_sharing_an_evicting_memo_get_the_serial_results(
        zchannel, random_2x3_channels, extrema, monkeypatch):
    keys = [(zchannel, -0.03, 0.05, None), (zchannel, -0.01, 0.1, None),
            (random_2x3_channels[1], -0.02, 0.1, CFG17)]
    tasks = [(which,) + key for key in keys
             for which in ("fa", "md", "extrema")]
    want = [_mixed(task) for task in tasks]
    stored = {key: tuple(a.copy() for a in value)
              for key, value in extrema._items.items()}
    assert len(stored) == 3
    # room for one entry of the larger channel: every other key evicts
    memo = Memo(max(sum(a.nbytes for a in v) for v in stored.values()))
    monkeypatch.setattr(exponents, "_EXTREMA", memo)
    order = list(np.random.default_rng(5).permutation(len(tasks) * 2)
                 % len(tasks))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(_mixed, [tasks[i] for i in order],
                                timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert got == [want[i] for i in order]
    assert 0 < len(memo._items) <= 1
    for key, value in memo._items.items():
        assert all(np.array_equal(a, b, equal_nan=True)
                   for a, b in zip(value, stored[key]))
        assert not any(a.flags.writeable for a in value)


# sha256 of both exponents' (value, branch, minimizer bytes) over the cells
# of _cells(), recorded with the per-call extrema solves and the per-input
# polish candidate lists that the shared lockstep solve replaced, and
# re-recorded when gated E_MD on two outputs left the grid for the exact
# search over output marginals (E_FA bytes unchanged; every E_MD value
# dropped, by 3.5e-9 to 4.9e-6, with the same tag and feasibility), and
# again when E_FA at tau <= 0 on two outputs left the grid too (E_MD bytes
# unchanged; 135 E_FA values dropped, by 1.5e-10 to 4.9e-7, 65 kept their
# bits, and 43 tags went from sparse to bulk where the minimizer lies on
# I = R, which the grid's point missed by up to 7.4e-7)
CELLS_DIGEST = \
    "4a49e4f3fc45e004c69e30a03e3371b346da4c0ebe487aaebe48fe832e0b13c3"


def _cells(count=200):
    """Z-channel cells at tau <= 0 from a fixed seed: R across (0.02,
    I(X;Y)) and tau across [lambda_min - 0.012, 0], so that about one E_MD
    in eight is infeasible."""
    rng = np.random.default_rng(2013)
    rates = 0.02 + 0.224 * rng.random(count)
    taus = -0.09 * rng.random(count)
    return [(float(t), float(r)) for t, r in zip(taus, rates)]


def test_zchannel_cells_are_bit_identical():
    w, h = Channel(Z_ROWS), hashlib.sha256()
    infeasible = 0
    for tau, rate in _cells():
        fa = fa_exponent(w, UNIFORM, tau, rate)
        md = md_exponent(w, UNIFORM, tau, rate)
        infeasible += not md.feasible
        h.update(repr((_digest(fa), _digest(md))).encode())
    assert 10 <= infeasible <= 50
    assert h.hexdigest() == CELLS_DIGEST


def _branch_min(problem):
    return min(bottom.value for bottom in map(problem.level_min,
                                              (BULK, SPARSE))
               if bottom is not None)


_PANEL = {
    "Z": (Z_ROWS, 101),
    "BSC": ([[0.9, 0.1], [0.1, 0.9]], 101),
    "SPARSE_2X3": (SPARSE_2X3, 17),
    "3x2": ([[0.8, 0.2], [0.3, 0.7], [0.5, 0.5]], 25),
}


@pytest.mark.parametrize("name", [*_PANEL, "fixture0"])
@pytest.mark.parametrize("rate", [0.02, 0.1, 0.3, 0.6])
def test_the_overall_level_minimum_is_at_most_each_branch_minimum(
        name, rate, random_2x3_channels):
    # the minimum over both branches is its own task: on SPARSE_2X3 it lies
    # below both branch minima at most rates, so reading the smaller branch
    # minimum instead would move the edge of E_MD
    rows, g = _PANEL.get(name, (random_2x3_channels[0].rows, 17))
    problem = Problem(Channel(rows), Distribution.uniform(len(rows)), rate,
                      SolverConfig(grid_points_per_dim=g))
    assert problem.level_min().value <= _branch_min(problem)


@pytest.mark.parametrize("rate", [0.2, 0.3, 0.33072, 0.5])
def test_md_is_finite_just_above_the_stored_level_minimum(rate):
    # between the stored level minimum and the smaller branch minimum,
    # classify says MD_active, so E_MD must be finite there, with a
    # minimizer that passes both constraints of the gated problem
    w = Channel(SPARSE_2X3)
    problem = Problem(w, UNIFORM, rate, CFG17)
    bottom, branch_min = problem.level_min(), _branch_min(problem)
    assert bottom.value < branch_min
    tau = 0.5 * (bottom.value + branch_min)
    res = md_exponent(w, UNIFORM, tau, rate, CFG17)
    assert res.feasible
    assert res.value <= conditional_kl(JointType(UNIFORM, bottom.cond), w)
    assert llr_level(res.minimizer, w, output_marginal(UNIFORM, w),
                     rate) <= tau
    assert interference_level(res.minimizer.output_marginal(), w, UNIFORM,
                              rate, CFG17) <= tau
    report = phase_report(w, UNIFORM, rate, CFG17, locate_kink=False)
    assert classify(tau, report)[1] is RegionTag.MD_ACTIVE
