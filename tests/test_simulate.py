import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from softcover import (
    BudgetError,
    Channel,
    Codebook,
    CompositionError,
    Distribution,
    estimate_error_probs,
    exact_r0_error_probs,
    exact_r0_log_error_probs,
    llr,
    llr_from_types,
    mixture_prob,
    output_marginal,
    quantized_composition,
    s_threshold,
    sample_codebook,
    tce,
)
from softcover import _pool, simulate
from softcover._memo import Memo, _nbytes
from softcover.simulate import (
    codebook_size,
    exact_error_probs,
    joint_type_counts,
    type_class_size,
)

from _oracles import (
    exact_probs_mixture,
    exact_probs_single_codeword,
    exact_probs_type_class_average,
    r0_binary_log_sums,
    r0_class_levels,
    r0_type_class_sums,
    single_codeword_joint_type_prob,
)

# frozen from a fully independent itertools enumeration of the 70-codeword
# ensemble at blocklength 8, threshold 0
Z_N8_ALPHA = 0.19995009567855837
Z_N8_BETA = 0.04100625


# ------------------------------------------------------------- composition

def test_quantized_composition(uniform2):
    assert quantized_composition(8, uniform2).tolist() == [4, 4]
    with pytest.raises(CompositionError, match="symbol 0"):
        quantized_composition(7, uniform2)
    with pytest.raises(CompositionError, match="try n = 8"):
        quantized_composition(7, uniform2)
    skew = Distribution([0.3, 0.7])
    assert quantized_composition(10, skew).tolist() == [3, 7]
    assert quantized_composition(7, skew).tolist() == [2, 5]


def test_codebook_size_example():
    # round(e^{8 * ln2 / 2}) = round(16.0)
    assert codebook_size(8, math.log(2) / 2) == 16
    assert codebook_size(4, 0.0) == 1


# ---------------------------------------------------------------- codebook

def test_sample_codebook_fixed_composition(uniform2):
    cb = sample_codebook(4, 0.5, uniform2, seed=3)
    assert cb.codewords.shape == (codebook_size(4, 0.5), 4)
    assert np.all(cb.codewords.sum(axis=1) == 2)


def test_sample_codebook_deterministic(uniform2):
    a = sample_codebook(8, 0.4, uniform2, seed=11)
    b = sample_codebook(8, 0.4, uniform2, seed=11)
    c = sample_codebook(8, 0.4, uniform2, seed=12)
    assert np.array_equal(a.codewords, b.codewords)
    assert not np.array_equal(a.codewords, c.codewords)


def test_codebook_rejects_wrong_composition():
    with pytest.raises(ValueError, match="type class"):
        Codebook([[0, 0, 0, 1]], 4, 0.0, [2, 2])


@pytest.mark.parametrize("bad", [[0, 0, 0, 1], [0, 1, 2, 1], [0, 1, -1, 1]])
def test_codebook_names_the_first_codeword_outside_the_type_class(bad):
    good = [1, 0, 1, 0]
    with pytest.raises(ValueError,
                       match="^codeword 2 is not in the type class$"):
        Codebook([good, good, bad, [1, 1, 1, 1]], 4, 0.0, [2, 2])


# ----------------------------------------------------------------- mixture

def test_mixture_single_codeword(zchannel, uniform2):
    cb = Codebook([[0, 1]], 2, 0.0, [1, 1])
    y = [0, 1]
    want = zchannel.rows[0, 0] * zchannel.rows[1, 1]
    assert mixture_prob(cb, zchannel, y) == pytest.approx(want, abs=1e-15)


def test_mixture_zero_on_singular_channel(zchannel):
    cb = Codebook([[0, 1]], 2, 0.0, [1, 1])
    assert mixture_prob(cb, zchannel, [1, 0]) == 0.0


def test_mixture_two_codeword_hand_value(bsc):
    # 0.5 * (W(0|0)W(0|1) + W(0|1)W(0|0)) for y = 00
    cb = Codebook([[0, 1], [1, 0]], 2, math.log(2) / 2, [1, 1])
    assert mixture_prob(cb, bsc, [0, 0]) == pytest.approx(0.09, abs=1e-15)
    assert mixture_prob(cb, bsc, [0, 1]) == pytest.approx(
        0.5 * (0.9 * 0.9 + 0.1 * 0.1), abs=1e-15)


# --------------------------------------------------------------------- llr

def test_llr_sign_for_constant_codebook(zchannel, uniform2):
    p_out = output_marginal(uniform2, zchannel)
    cb = Codebook([[0, 0, 1, 1]] * 4, 4, math.log(4) / 4, [2, 2])
    assert llr(cb, zchannel, p_out, [0, 0, 1, 1]) > 0.3


def test_llr_minus_infinity(zchannel, uniform2):
    p_out = output_marginal(uniform2, zchannel)
    cb = Codebook([[0, 0, 1, 1]], 4, 0.0, [2, 2])
    assert llr(cb, zchannel, p_out, [1, 0, 1, 1]) == -math.inf
    assert llr_from_types(cb, zchannel, p_out, [1, 0, 1, 1]) == -math.inf


@pytest.mark.parametrize("n,rate", [(4, 0.0), (6, 0.3), (8, 0.25), (10, 0.5)])
def test_llr_type_decomposition_identity(n, rate, zchannel, bsc, uniform2):
    # direct product evaluation against the type-grouped reconstruction
    rng = np.random.default_rng(n * 1000 + int(rate * 100))
    for w in (zchannel, bsc):
        p_out = output_marginal(uniform2, w)
        for trial in range(140):
            cb = sample_codebook(n, rate, uniform2, seed=(trial, n))
            y = rng.integers(0, 2, size=n)
            a = llr(cb, w, p_out, y)
            b = llr_from_types(cb, w, p_out, y)
            if math.isinf(a) or math.isinf(b):
                assert a == b
            else:
                assert a == pytest.approx(b, abs=1e-9)


# --------------------------------------------------------------------- tce

def test_tce_partitions_codebook(uniform2):
    cb = sample_codebook(6, 0.4, uniform2, seed=9)
    y = np.array([0, 1, 0, 1, 1, 0])
    seen = {}
    for m in range(cb.size):
        key = joint_type_counts(cb.codewords[m], y, 2, 2).tobytes()
        seen[key] = seen.get(key, 0) + 1
    total = 0
    for key, want in seen.items():
        counts = np.frombuffer(key, dtype=np.int64).reshape(2, 2)
        got = tce(cb, y, counts)
        assert got == want
        total += got
    assert total == cb.size


def test_tce_single_codeword(uniform2):
    cb = sample_codebook(6, 0.0, uniform2, seed=2)
    y = np.array([1, 0, 0, 1, 0, 1])
    counts = joint_type_counts(cb.codewords[0], y, 2, 2)
    assert tce(cb, y, counts) == 1


def test_tce_validates_marginals(uniform2):
    cb = sample_codebook(6, 0.0, uniform2, seed=2)
    y = np.array([1, 0, 0, 1, 0, 1])
    with pytest.raises(ValueError, match="input marginal"):
        tce(cb, y, np.array([[4, 0], [1, 1]]))
    with pytest.raises(ValueError, match="output marginal"):
        tce(cb, y, np.array([[3, 0], [1, 2]]))


def test_tce_mean_matches_binomial(uniform2):
    # the enumerator counts successes of independent uniform codeword draws
    n, rate = 8, 0.3
    m = codebook_size(n, rate)
    y = np.array([0, 0, 1, 1, 0, 1, 0, 1])
    counts = np.array([[3, 1], [1, 3]])
    p_single = single_codeword_joint_type_prob(y.tolist(), [4, 4], counts)
    trials = 10_000
    values = np.empty(trials)
    for t in range(trials):
        cb = sample_codebook(n, rate, uniform2, seed=(123, t))
        values[t] = tce(cb, y, counts)
    emp_mean = values.mean()
    se = values.std(ddof=1) / math.sqrt(trials)
    assert abs(emp_mean - m * p_single) <= 3 * se


# ------------------------------------------------- exact error probabilities

def test_exact_sums_trivial_thresholds(bsc, uniform2):
    p_out = output_marginal(uniform2, bsc)
    cb = sample_codebook(6, 0.3, uniform2, seed=4)
    assert exact_error_probs(cb, bsc, p_out, -1e10)[0] == \
        pytest.approx(1.0, abs=1e-12)
    assert exact_error_probs(cb, bsc, p_out, 1e10)[0] == 0.0
    assert exact_error_probs(cb, bsc, p_out, 1e10)[1] == \
        pytest.approx(1.0, abs=1e-12)
    assert exact_error_probs(cb, bsc, p_out, -1e10)[1] == 0.0


def test_exact_alpha_singular_channel_mass_deficit(zchannel, uniform2):
    # with a sub-exponential codebook some outputs get zero mixture mass, so
    # even an arbitrarily low threshold does not accept everything
    p_out = output_marginal(uniform2, zchannel)
    cb = sample_codebook(8, 0.05, uniform2, seed=21)
    alpha = exact_error_probs(cb, zchannel, p_out, -1e10)[0]
    assert alpha < 1.0 - 1e-3
    # the acceptance region mass equals the mixture-positive mass
    beta = exact_error_probs(cb, zchannel, p_out, -1e10)[1]
    assert beta == 0.0


def test_exact_sums_match_independent_enumeration(zchannel, bsc, uniform2):
    for w in (zchannel, bsc):
        p_out = output_marginal(uniform2, w)
        cb = sample_codebook(6, 0.0, uniform2, seed=17)
        for tau in (-0.2, 0.0, 0.15):
            want = exact_probs_single_codeword(
                cb.codewords[0].tolist(), w.rows.tolist(),
                p_out.probs.tolist(), tau)
            got = exact_error_probs(cb, w, p_out, tau)
            assert got[0] == pytest.approx(want[0], rel=1e-12, abs=1e-15)
            assert got[1] == pytest.approx(want[1], rel=1e-12, abs=1e-15)


def test_budget_guard(bsc, uniform2):
    cb = sample_codebook(26, 0.0, uniform2, seed=1)
    p_out = output_marginal(uniform2, bsc)
    with pytest.raises(BudgetError, match="Monte Carlo"):
        exact_error_probs(cb, bsc, p_out, 0.0)[0]


# frozen from the per-codeword loop that preceded the grouped enumerator:
# per_trial_error_probs(12, 0.2, Z-channel, uniform, 0.05, 4, seed=3)
Z_N12_TRIALS = [
    (0.15372716480422974, 0.34084167187500003),
    (0.15023724626490664, 0.3652745625),
    (0.14402127984900973, 0.387201515625),
    (0.1568183528103099, 0.34898596875),
]


def test_per_trial_pairs_are_frozen(zchannel, uniform2):
    got = simulate.per_trial_error_probs(12, 0.2, zchannel, uniform2, 0.05,
                                         4, seed=3)
    assert got == Z_N12_TRIALS


# frozen, as float.hex pairs, from the enumerator that summed every
# (codeword, output) pair: per_trial_error_probs(n, rate, w, p_in, tau,
# trials, seed) for each case
FROZEN_TRIALS = {
    # four 65,536-output blocks
    "z-n18": ((18, 0.15, [[1.0, 0.0], [0.45, 0.55]], [0.5, 0.5], 0.05, 2, 11),
              [("0x1.3be63a843d542p-4", "0x1.33c57478497e4p-2"),
               ("0x1.4c8a6557bf680p-4", "0x1.192a1fa766ec1p-2")]),
    # 3^12 = 531,441 outputs: block edges are not digit-aligned, and the two
    # inputs have different supports of more than one output each
    "2x3-n12": ((12, 0.15, [[0.5, 0.3, 0.2], [0.0, 0.65, 0.35]], [0.5, 0.5],
                 0.02, 2, 12),
                [("0x1.001a935c1ba61p-2", "0x1.7516267b84307p-3"),
                 ("0x1.f8825bcfb52e2p-3", "0x1.756cd9d39e32cp-3")]),
    # input 1 is never used, and its support differs from the others'
    "unused-input": ((12, 0.2, [[1.0, 0.0], [0.0, 1.0], [0.4, 0.6]],
                      [0.5, 0.0, 0.5], 0.03, 3, 13),
                     [("0x1.41532f0b7b8d6p-3", "0x1.1728d6dfea68cp-2"),
                      ("0x1.4101941b0596ap-3", "0x1.1872486a0fa30p-2"),
                      ("0x1.2e82412a4bf36p-3", "0x1.1d980e92a48bep-2")]),
    "bsc-n12": ((12, 0.2, [[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5], 0.04, 3, 14),
                [("0x1.ea00000000003p-5", "0x1.097cd4ed1c8dap-2"),
                 ("0x1.ec00000000003p-5", "0x1.0b94162d397b0p-2"),
                 ("0x1.0000000000002p-4", "0x1.fd59cb0f317a6p-3")]),
}


def _frozen_case(case):
    (n, rate, rows, p_in, tau, trials, seed), want = FROZEN_TRIALS[case]
    got = simulate.per_trial_error_probs(n, rate, Channel(rows),
                                         Distribution(p_in), tau, trials,
                                         seed)
    return [(a.hex(), b.hex()) for a, b in got], want


@pytest.mark.parametrize("case", sorted(FROZEN_TRIALS))
def test_per_trial_pairs_are_frozen_on_more_channels(case):
    got, want = _frozen_case(case)
    assert got == want


@pytest.mark.parametrize("case", ["z-n18", "2x3-n12"])
def test_frozen_pairs_do_not_depend_on_the_gather_budget(case, monkeypatch):
    # a small budget splits the output space into one pass per block and
    # every codeword group into a single codeword
    monkeypatch.setattr(simulate, "_GATHER_ELEMENTS", 1 << 12)
    got, want = _frozen_case(case)
    assert got == want


@pytest.mark.parametrize("n,rate,which", [
    (8, 0.3, "z"), (6, 0.5, "bsc"), (6, 0.4, "2x3"),
    (8, 0.8, "z"),  # 601 codewords: more than one gather group
])
def test_exact_sums_match_mixture_enumeration(n, rate, which, zchannel, bsc,
                                              uniform2, random_2x3_channels):
    w = {"z": zchannel, "bsc": bsc, "2x3": random_2x3_channels[1]}[which]
    p_out = output_marginal(uniform2, w)
    cb = sample_codebook(n, rate, uniform2, seed=(5, n))
    assert cb.size > 1
    for tau in (-0.137, 0.0123, 0.091):
        want = exact_probs_mixture(cb.codewords.tolist(), w.rows.tolist(),
                                   p_out.probs.tolist(), tau)
        got = exact_error_probs(cb, w, p_out, tau)
        assert got[0] == pytest.approx(want[0], rel=1e-12, abs=1e-15)
        assert got[1] == pytest.approx(want[1], rel=1e-12, abs=1e-15)


def test_exact_sums_do_not_depend_on_codeword_grouping(bsc, zchannel,
                                                       uniform2, monkeypatch):
    # on the BSC every codeword adds to every output's mixture, on the
    # Z-channel each adds only to the outputs it can reach; a change in the
    # order of addition shows in the last bits
    cb = sample_codebook(8, 0.8, uniform2, seed=9)
    taus = (-0.2, -0.05, 0.0123, 0.05, 0.2)
    for w in (bsc, zchannel):
        p_out = output_marginal(uniform2, w)
        grouped = [exact_error_probs(cb, w, p_out, tau) for tau in taus]
        for tau, got in zip(taus, grouped):
            want = exact_probs_mixture(cb.codewords.tolist(), w.rows.tolist(),
                                       p_out.probs.tolist(), tau)
            assert got[0] == pytest.approx(want[0], rel=1e-12, abs=1e-15)
            assert got[1] == pytest.approx(want[1], rel=1e-12, abs=1e-15)
        with monkeypatch.context() as m:
            m.setattr(simulate, "_GATHER_ELEMENTS", 1)  # one per group
            assert [exact_error_probs(cb, w, p_out, tau)
                    for tau in taus] == grouped


def _recording_thread_ids(monkeypatch):
    """Wrap ``simulate.exact_error_probs`` to record the threads it runs
    on."""
    seen = set()
    exact = simulate.exact_error_probs

    def recorded(*args, **kwargs):
        seen.add(threading.get_ident())
        return exact(*args, **kwargs)

    monkeypatch.setattr(simulate, "exact_error_probs", recorded)
    return seen


def test_table_memo_is_thread_safe_and_byte_bounded(zchannel, bsc, uniform2,
                                                    monkeypatch):
    # six threads share a 100 kB memo, too small for the tables of these
    # runs together, so entries are evicted while other threads read and
    # insert; most of these trials are small enough to run in the thread
    # that asks for them, so the test starts the threads itself
    runs = [(w, n) for w in (zchannel, bsc) for n in (10, 12)] * 2
    monkeypatch.setenv("SOFTCOVER_THREADS", "1")
    want = [simulate.per_trial_error_probs(n, 0.2, w, uniform2, 0.05, 12,
                                           seed=n) for w, n in runs]
    memo = Memo(100_000)
    monkeypatch.setattr(simulate, "_TABLES", memo)
    monkeypatch.setenv("SOFTCOVER_THREADS", "6")
    seen = _recording_thread_ids(monkeypatch)

    def run(case):
        w, n = case
        return simulate.per_trial_error_probs(n, 0.2, w, uniform2, 0.05, 12,
                                              seed=n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(6) as pool:
            got = list(pool.map(run, runs))
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    assert len(seen) > 1
    with memo._lock:
        stored = sum(_nbytes(v) for v in memo._items.values())
    assert 0 < memo.bytes == stored <= memo.max_bytes


# ------------------------------------------ rate-0 joint-type-class engine

def _clear_thresholds(comp, w, p_out):
    """Midpoints between adjacent class levels at least 1e-6 apart. At an
    exact tie the enumerator's rounding of the level varies between outputs
    of the same class, so the two sums may split a class differently; far
    from every level both classify each class the same way."""
    levels = r0_class_levels(comp.tolist(), w.rows.tolist(),
                             p_out.tolist())
    mids = [(lo + hi) / 2 for lo, hi in zip(levels, levels[1:])
            if hi - lo > 1e-6]
    return sorted({mids[len(mids) // 4], mids[len(mids) // 2],
                   mids[3 * len(mids) // 4]})


@pytest.mark.parametrize("p_in", [[0.5, 0.5], [0.3, 0.7]])
@pytest.mark.parametrize("n", [6, 8, 10, 12])
def test_type_class_engine_matches_enumerator(n, p_in, zchannel, bsc,
                                              random_2x3_channels):
    p_in = Distribution(p_in)
    counts = quantized_composition(n, p_in)
    canonical = np.repeat(np.arange(2), counts)
    cb = Codebook(canonical[None, :], n, 0.0, counts)
    for w in [zchannel, bsc] + list(random_2x3_channels):
        p_out = p_in.probs @ w.rows
        for tau in _clear_thresholds(counts, w, p_out):
            got = exact_r0_error_probs(n, w, p_in, tau)
            want = exact_error_probs(cb, w, Distribution(p_out), tau)
            assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)
            assert got[1] == pytest.approx(want[1], rel=1e-12, abs=0.0)


def test_type_class_engine_beyond_enumeration_budget(zchannel, bsc,
                                                     random_2x3_channels):
    # 2^100 outputs are out of reach of the enumerator, not of the classes
    uniform = Distribution([0.5, 0.5])
    for w, n in [(zchannel, 100), (bsc, 100), (zchannel, 40),
                 (random_2x3_channels[0], 40)]:
        p_out = uniform.probs @ w.rows
        counts = quantized_composition(n, uniform)
        for tau in _clear_thresholds(counts, w, p_out):
            got = exact_r0_error_probs(n, w, uniform, tau)
            want = r0_type_class_sums(n, w.rows.tolist(), [0.5, 0.5], tau)
            assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)
            assert got[1] == pytest.approx(want[1], rel=1e-12, abs=0.0)


def test_type_class_engine_with_an_unused_input_symbol():
    # the unused symbol's only output has zero probability under the null law
    w = Channel([[0.8, 0.2, 0.0], [0.0, 0.0, 1.0]])
    p_in = Distribution([1.0, 0.0])
    p_out = output_marginal(p_in, w)
    cb = Codebook([[0] * 6], 6, 0.0, [6, 0])
    for tau in (-0.1, 0.1):
        got = exact_r0_error_probs(6, w, p_in, tau)
        want = exact_error_probs(cb, w, p_out, tau)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [40, 100])
def test_log_probabilities_match_the_probabilities(n, zchannel, bsc):
    uniform = Distribution([0.5, 0.5])
    for w in (zchannel, bsc):
        p_out = uniform.probs @ w.rows
        counts = quantized_composition(n, uniform)
        for tau in _clear_thresholds(counts, w, p_out):
            probs = exact_r0_error_probs(n, w, uniform, tau)
            logs = exact_r0_log_error_probs(n, w, uniform, tau)
            for prob, log in zip(probs, logs):
                assert prob > 0
                assert math.exp(log) == pytest.approx(prob, rel=1e-12, abs=0.0)


def test_log_probabilities_where_the_probability_underflows(bsc, uniform2):
    # alpha is about exp(-1477): 0.0 as a probability, finite as a log
    alpha, beta = exact_r0_error_probs(2800, bsc, uniform2, 0.5)
    log_alpha, log_beta = exact_r0_log_error_probs(2800, bsc, uniform2, 0.5)
    want_alpha, want_beta = r0_binary_log_sums(2800, bsc.rows.tolist(),
                                               [0.5, 0.5], 0.5)
    assert alpha == 0.0
    assert math.isfinite(log_alpha)
    assert log_alpha == pytest.approx(want_alpha, rel=1e-9, abs=0.0)
    # beta is within 1e-11 of 1, so its log is compared on the linear scale
    assert math.exp(log_beta) == pytest.approx(beta, rel=1e-12, abs=0.0)
    assert math.exp(log_beta) == pytest.approx(math.exp(want_beta),
                                               rel=1e-9, abs=0.0)


def test_log_probabilities_of_an_empty_sum(bsc, uniform2):
    # no class reaches a level of 10 nats, so nothing is accepted
    log_alpha, log_beta = exact_r0_log_error_probs(40, bsc, uniform2, 10.0)
    assert log_alpha == -math.inf
    assert log_beta == pytest.approx(0.0, abs=1e-12)


def test_type_class_budget(random_2x3_channels, uniform2):
    # C(102, 2)^2 = 26,532,801 joint type classes at n = 200
    with pytest.raises(BudgetError, match="26532801 joint type classes"):
        exact_r0_error_probs(200, random_2x3_channels[0], uniform2, 0.0)


# -------------------------------------------------------- threshold algebra

def test_s_threshold_event_equivalence(zchannel, bsc, uniform2):
    # acceptance by the likelihood ratio coincides with the unnormalized
    # mixture exceeding its per-type threshold
    rng = np.random.default_rng(31)
    for w in (zchannel, bsc):
        p_out = output_marginal(uniform2, w)
        for trial in range(200):
            n = int(rng.choice([4, 6, 8]))
            cb = sample_codebook(n, 0.35, uniform2, seed=(7, trial))
            y = rng.integers(0, 2, size=n)
            tau = float(rng.uniform(-0.4, 0.4))
            lam = llr(cb, w, p_out, y)
            s_val = cb.size * mixture_prob(cb, w, y)
            theta = s_threshold(tau, cb.realized_rate, y, p_out)
            assert (lam >= tau) == (s_val >= math.exp(n * theta) - 1e-300)


# ------------------------------------------------------ ensemble estimates

def test_exact_r0_matches_full_ensemble_average(zchannel, uniform2):
    got = exact_r0_error_probs(8, zchannel, uniform2, 0.0)
    assert got[0] == pytest.approx(Z_N8_ALPHA, abs=1e-12)
    assert got[1] == pytest.approx(Z_N8_BETA, abs=1e-12)
    p_out = output_marginal(uniform2, zchannel)
    (want_a, want_b), (spread_a, spread_b) = exact_probs_type_class_average(
        8, zchannel.rows.tolist(), uniform2.probs.tolist(),
        p_out.probs.tolist(), 0.0)
    # every codeword of the class yields the same inner sums
    assert spread_a < 1e-12 and spread_b < 1e-12
    assert got[0] == pytest.approx(want_a, abs=1e-12)
    assert got[1] == pytest.approx(want_b, abs=1e-12)


def test_estimate_error_probs_exact_r0_mode(zchannel, uniform2):
    alpha, beta = estimate_error_probs(8, 0.0, zchannel, uniform2, 0.0,
                                       codebook_trials=1, seed=5,
                                       mode="exact-r0")
    assert alpha.mean == pytest.approx(Z_N8_ALPHA, abs=1e-12)
    assert beta.mean == pytest.approx(Z_N8_BETA, abs=1e-12)
    assert alpha.std_error == 0.0
    assert alpha.trials == type_class_size(np.array([4, 4]))
    with pytest.raises(ValueError, match="rate = 0"):
        estimate_error_probs(8, 0.1, zchannel, uniform2, 0.0, 1, 5,
                             mode="exact-r0")


def test_estimates_reproducible(zchannel, uniform2):
    a1, b1 = estimate_error_probs(8, 0.2, zchannel, uniform2, 0.05,
                                  codebook_trials=12, seed=77)
    a2, b2 = estimate_error_probs(8, 0.2, zchannel, uniform2, 0.05,
                                  codebook_trials=12, seed=77)
    assert (a1, b1) == (a2, b2)
    a3, _ = estimate_error_probs(8, 0.2, zchannel, uniform2, 0.05,
                                 codebook_trials=12, seed=78)
    assert a3 != a1


def test_estimates_independent_of_worker_count(zchannel, uniform2,
                                               monkeypatch):
    monkeypatch.setenv("SOFTCOVER_THREADS", "1")
    a1, b1 = estimate_error_probs(8, 0.2, zchannel, uniform2, 0.05,
                                  codebook_trials=8, seed=3)
    monkeypatch.setenv("SOFTCOVER_THREADS", "3")
    a2, b2 = estimate_error_probs(8, 0.2, zchannel, uniform2, 0.05,
                                  codebook_trials=8, seed=3)
    assert (a1, b1) == (a2, b2)


def test_trials_above_the_crossover_run_on_the_pool(bsc, uniform2,
                                                    monkeypatch):
    # 2 codewords x 65,536 reachable outputs x 16 positions per trial
    args = (16, 0.05, bsc, uniform2, 0.05, 4, 21)
    monkeypatch.setenv("SOFTCOVER_THREADS", "1")
    want = simulate.per_trial_error_probs(*args)
    monkeypatch.setenv("SOFTCOVER_THREADS", "3")
    seen = _recording_thread_ids(monkeypatch)
    got = simulate.per_trial_error_probs(*args)
    assert [(a.hex(), b.hex()) for a, b in got] == \
        [(a.hex(), b.hex()) for a, b in want]
    assert len(seen) > 1


def test_trials_below_the_crossover_build_no_pool(zchannel, uniform2,
                                                  monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was built")

    monkeypatch.setattr(_pool, "ThreadPoolExecutor", no_pool)
    monkeypatch.setenv("SOFTCOVER_THREADS", "4")
    got = simulate.per_trial_error_probs(12, 0.2, zchannel, uniform2, 0.05,
                                         40, seed=3)
    assert got[:4] == Z_N12_TRIALS


@pytest.mark.parametrize("n,error,message", [
    (26, BudgetError, "2^26 = 67108864 output sequences exceed the "
                      "exhaustive budget of 20000000; reduce the blocklength "
                      "or rely on the Monte Carlo codebook average at a "
                      "smaller n"),
    (11, CompositionError, "blocklength 11 distorts the mass of symbol 0 by "
                           "0.0455 (more than half a slot); try n = 12"),
])
def test_monte_carlo_errors_come_before_any_table(n, error, message, bsc,
                                                  uniform2, monkeypatch):
    memo = Memo(1 << 20)
    monkeypatch.setattr(simulate, "_TABLES", memo)
    monkeypatch.setenv("SOFTCOVER_THREADS", "4")
    with pytest.raises(error) as info:
        simulate.per_trial_error_probs(n, 0.05, bsc, uniform2, 0.05, 4, 1)
    assert str(info.value) == message
    assert memo.bytes == 0 and not memo._items


@pytest.mark.parametrize("trials", [0, -3])
def test_monte_carlo_needs_a_trial(trials, zchannel, uniform2):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        simulate.per_trial_error_probs(8, 0.2, zchannel, uniform2, 0.05,
                                       trials, 1)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        estimate_error_probs(8, 0.2, zchannel, uniform2, 0.05, trials, 1)


def test_alpha_decay_exponent_monotone_in_threshold(zchannel, uniform2):
    # shrinking acceptance region: the normalized alpha exponent grows
    rates = []
    for tau in (-0.05, 0.0, 0.05, 0.10):
        alpha, _ = exact_r0_error_probs(10, zchannel, uniform2, tau)
        rates.append(-math.log(alpha) / 10)
    assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))
