"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see the lines).

Criterion 5 ties the exact finite-blocklength error probabilities to the
asymptotic exponents through the joint-type lattice: the enumerated rate-0
probabilities equal independent joint-type-class sums, the lattice exponents
E_FA^(n) and E_MD^(n) never fall below the limits, and the rates at n = 20
lie within 0.08 nats of them. Its report line shows the rates, the lattice
exponents and the worst relative error of the class sums. The rates are not
monotone in n, because the acceptance cutoff on the joint-type lattice moves
with the blocklength.
"""

import math
import time

import numpy as np
import pytest

from softcover import (
    Channel,
    Distribution,
    JointType,
    channel_surprisal,
    estimate_error_probs,
    exact_r0_error_probs,
    fa_exponent,
    llr,
    llr_from_types,
    md_exponent,
    mixture_prob,
    mutual_information,
    output_marginal,
    r0_exponents,
    s_threshold,
    sample_codebook,
    tau_kink,
    tce,
)
from softcover.cli import ZCHANNEL_CHECKS, main, zchannel_checkpoints
from softcover.measures import kl_vec
from softcover.simulate import codebook_size, joint_type_counts

from _oracles import (
    r0_type_class_sums,
    single_codeword_joint_type_prob,
    zchannel_oracle_fa,
    zchannel_oracle_md,
)


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status}{detail}")


def test_criterion_1_zchannel_reproduction():
    start = time.monotonic()
    computed = zchannel_checkpoints()
    elapsed = time.monotonic() - start
    failures = [
        f"{name}={computed[name]:.6f} (want {expected}±{tol})"
        for name, expected, tol in ZCHANNEL_CHECKS
        if not (math.isfinite(computed[name])
                and abs(computed[name] - expected) <= tol)
    ]
    ok = not failures and elapsed < 60.0
    _report(1, "z-channel reproduction", ok,
            f" ({elapsed:.1f}s)" + ("; " + "; ".join(failures) if failures else ""))
    assert not failures
    assert elapsed < 60.0


def test_criterion_2_oracle_equivalence(zchannel, uniform2):
    start = time.monotonic()
    taus = np.linspace(-0.11, 0.52, 25)
    rates = np.linspace(0.01, 0.40, 20)
    worst = 0.0
    mismatches = []
    for rate in rates:
        rate = float(rate)
        for tau in taus:
            tau = float(tau)
            pairs = [
                (fa_exponent(zchannel, uniform2, tau, rate).value,
                 zchannel_oracle_fa(0.45, rate, tau).value),
                (md_exponent(zchannel, uniform2, tau, rate).value,
                 zchannel_oracle_md(0.45, rate, tau).value),
            ]
            for got, want in pairs:
                if math.isinf(got) or math.isinf(want):
                    if got != want:
                        mismatches.append((tau, rate, got, want))
                else:
                    worst = max(worst, abs(got - want))
    elapsed = time.monotonic() - start
    ok = not mismatches and worst <= 1e-4 and elapsed < 300.0
    _report(2, "generic solver vs 1-D oracle", ok,
            f" (worst |diff| {worst:.2e} over 500 lattice points, "
            f"{elapsed:.0f}s)")
    assert not mismatches
    assert worst <= 1e-4
    assert elapsed < 300.0


def _vectorized_dpi_cases(w: Channel, count: int, seed: int) -> int:
    rng = np.random.default_rng(seed)
    p_in = rng.dirichlet(np.ones(w.num_inputs), size=count)
    cond = rng.dirichlet(np.ones(w.num_outputs), size=(count, w.num_inputs))
    q_y = np.einsum("kx,kxy->ky", p_in, cond)
    p_y = p_in @ w.rows
    d_m = kl_vec(q_y, p_y)
    d_c = np.einsum("kx,kx->k", p_in, kl_vec(cond, w.rows[None, :, :]))
    finite = np.isfinite(d_c)
    assert np.all(d_m[finite] <= d_c[finite] + 1e-12)
    return count


def test_criterion_3_property_suite(zchannel, bsc, uniform2,
                                    random_2x3_channels):
    cases = 0
    families = [zchannel, bsc] + list(random_2x3_channels)

    # data processing inequality on randomized joint types
    for seed, w in enumerate(families[:3]):
        cases += _vectorized_dpi_cases(w, 10_000, seed + 1)

    # level of the true channel equals the clipped information surplus
    rng = np.random.default_rng(99)
    for _ in range(2000):
        w = families[int(rng.integers(len(families)))]
        p_in = Distribution(rng.dirichlet(np.ones(w.num_inputs)))
        jt = JointType(p_in, w.rows)
        rate = float(rng.uniform(0, 0.8))
        want = max(mutual_information(jt) - rate, 0.0)
        from softcover import llr_level

        got = llr_level(jt, w, output_marginal(p_in, w), rate)
        assert got == pytest.approx(want, abs=1e-10)
        cases += 1

    # threshold monotonicity of both exponents
    for w, rate in [(zchannel, 0.05), (bsc, 0.10)] + [
            (ch, 0.10) for ch in random_2x3_channels]:
        taus = np.linspace(-0.10, 0.40, 8)
        fa_prev, md_prev = -math.inf, math.inf
        for tau in taus:
            fa = fa_exponent(w, uniform2, float(tau), rate).value
            md = md_exponent(w, uniform2, float(tau), rate).value
            assert fa >= fa_prev - 1e-6
            assert md <= md_prev + 1e-6
            fa_prev, md_prev = fa, md
            cases += 1

    # zero set of the missed-detection exponent is the closed ray above the
    # information gap
    for w in families:
        i_xy = mutual_information(JointType(uniform2, w.rows))
        rate = 0.5 * i_xy
        tau_star = i_xy - rate
        assert md_exponent(w, uniform2, tau_star + 1e-6, rate).value <= 1e-9
        assert md_exponent(w, uniform2, tau_star + 0.01, rate).value <= 1e-9
        assert md_exponent(w, uniform2, tau_star - 0.02, rate).value > 1e-9
        cases += 3

    # no threshold gives two positive exponents once the rate covers the
    # mutual information
    for w in families:
        i_xy = mutual_information(JointType(uniform2, w.rows))
        rate = i_xy + 0.03
        for tau in np.linspace(-0.1, 0.3, 9):
            fa = fa_exponent(w, uniform2, float(tau), rate).value
            md = md_exponent(w, uniform2, float(tau), rate).value
            assert not (fa > 1e-4 and md > 1e-4)
            cases += 1

    # below every kink the missed-detection exponent forgets the rate
    for w in (zchannel, bsc):
        kinks = [tau_kink(w, uniform2, r) for r in (0.05, 0.20)]
        kinks = [k for k in kinks if k is not None]
        if not kinks:
            continue
        tau = min(kinks) - 0.013
        vals = [md_exponent(w, uniform2, tau, r).value
                for r in (0.05, 0.10, 0.20)]
        vals = [v for v in vals if math.isfinite(v)]
        assert max(vals) - min(vals) <= 1e-4
        cases += len(vals)

    ok = cases >= 10_000
    _report(3, "randomized property suite", ok, f" ({cases} cases)")
    assert ok


def test_criterion_4_type_identities(zchannel, bsc, uniform2):
    rng = np.random.default_rng(2718)
    llr_instances = 0
    for w in (zchannel, bsc):
        p_out = output_marginal(uniform2, w)
        for trial in range(260):
            n = int(rng.choice([4, 6, 8, 10]))
            rate = float(rng.choice([0.0, 0.2, 0.5]))
            cb = sample_codebook(n, rate, uniform2, seed=(trial, n))
            y = rng.integers(0, 2, size=n)
            tau = float(rng.uniform(-0.5, 0.5))

            # the two likelihood-ratio evaluations agree
            direct = llr(cb, w, p_out, y)
            typed = llr_from_types(cb, w, p_out, y)
            if math.isinf(direct) or math.isinf(typed):
                assert direct == typed
            else:
                assert direct == pytest.approx(typed, abs=1e-9)

            # unnormalized mixture decomposes over type-class counts
            s_direct = cb.size * mixture_prob(cb, w, y)
            groups = {}
            for m in range(cb.size):
                key = joint_type_counts(cb.codewords[m], y, 2, 2).tobytes()
                groups[key] = groups.get(key, 0) + 1
            s_types = 0.0
            for key in groups:
                counts = np.frombuffer(key, dtype=np.int64).reshape(2, 2)
                count = tce(cb, y, counts)
                assert count == groups[key]
                marg = counts.sum(axis=1)
                cond = np.full((2, 2), 0.5)
                for a in range(2):
                    if marg[a]:
                        cond[a] = counts[a] / marg[a]
                jt = JointType(Distribution(marg / n), cond)
                s_types += count * math.exp(-n * channel_surprisal(jt, w))
            if s_direct > 0:
                assert abs(s_types - s_direct) <= 1e-9 * s_direct
            else:
                assert s_types == 0.0

            # acceptance event matches the threshold on the mixture statistic
            theta = s_threshold(tau, cb.realized_rate, y, p_out)
            assert (direct >= tau) == (s_direct >= math.exp(n * theta) - 1e-300)
            llr_instances += 1

    # enumerator mean against the exact single-draw probability
    n, rate = 8, 0.3
    m = codebook_size(n, rate)
    y = np.array([0, 0, 1, 1, 0, 1, 0, 1])
    counts = np.array([[3, 1], [1, 3]])
    p_single = single_codeword_joint_type_prob(y.tolist(), [4, 4], counts)
    values = np.empty(10_000)
    for t in range(10_000):
        cb = sample_codebook(n, rate, uniform2, seed=(314, t))
        values[t] = tce(cb, y, counts)
    se = values.std(ddof=1) / 100.0
    binom_ok = abs(values.mean() - m * p_single) <= 3 * se

    ok = llr_instances >= 500 and binom_ok
    _report(4, "type-decomposition identities", ok,
            f" ({llr_instances} instances per identity; enumerator mean "
            f"{values.mean():.4f} vs {m * p_single:.4f} +- {3 * se:.4f})")
    assert llr_instances >= 500
    assert binom_ok


def test_criterion_5_finite_blocklength_trend(zchannel, uniform2):
    start = time.monotonic()
    tau = 0.05
    fa_limit, md_limit = (r.value for r in r0_exponents(zchannel, uniform2, tau))
    alpha_rates, beta_rates, fa_lattice, md_lattice = [], [], [], []
    worst_rel = 0.0
    for n in (8, 12, 16, 20):
        alpha, beta = exact_r0_error_probs(n, zchannel, uniform2, tau)
        alpha_ref, beta_ref, fa_n, md_n = r0_type_class_sums(
            n, zchannel.rows, uniform2.probs, tau)
        worst_rel = max(worst_rel, abs(alpha - alpha_ref) / alpha_ref,
                        abs(beta - beta_ref) / beta_ref)
        alpha_rates.append(-math.log(alpha) / n)
        beta_rates.append(-math.log(beta) / n)
        fa_lattice.append(fa_n)
        md_lattice.append(md_n)
    elapsed = time.monotonic() - start

    # at rate 0 every accepted (rejected) n-type of composition n * p_in is a
    # feasible point of the E_FA (E_MD) problem, so no lattice minimum may
    # fall below the limit by more than the solver's resolution
    exact = worst_rel <= 1e-9
    fa_floor = all(v >= fa_limit - 1e-4 for v in fa_lattice)
    md_floor = all(v >= md_limit - 1e-4 for v in md_lattice)
    alpha_final = abs(alpha_rates[-1] - fa_limit) <= 0.08
    beta_final = abs(beta_rates[-1] - md_limit) <= 0.08
    ok = exact and fa_floor and md_floor and alpha_final and beta_final \
        and elapsed < 600.0
    _report(
        5, "finite-n exponents on the type lattice", ok,
        f" (alpha rates {[round(v, 4) for v in alpha_rates]}, lattice "
        f"E_FA^(n) {[round(v, 4) for v in fa_lattice]} -> {fa_limit:.4f}; "
        f"beta rates {[round(v, 4) for v in beta_rates]}, lattice "
        f"E_MD^(n) {[round(v, 4) for v in md_lattice]} -> {md_limit:.4f}; "
        f"class sums within {worst_rel:.1e} relative; {elapsed:.0f}s)")
    assert elapsed < 600.0
    assert exact, f"enumeration vs joint-type-class sums: {worst_rel:.2e}"
    assert fa_floor, f"lattice E_FA^(n) {fa_lattice} below limit {fa_limit}"
    assert md_floor, f"lattice E_MD^(n) {md_lattice} below limit {md_limit}"
    assert alpha_final, f"final alpha rate {alpha_rates[-1]} vs {fa_limit}"
    assert beta_final, f"final beta rate {beta_rates[-1]} vs {md_limit}"


def test_criterion_6_simulation_determinism(tmp_path, capsys, monkeypatch):
    spec = tmp_path / "z.channel"
    spec.write_text("name: z\ninput_size: 2\noutput_size: 2\n"
                    "matrix: 1.0 0.0 0.45 0.55\ninput_dist: 0.5 0.5\n")
    args = ["simulate", "--spec", str(spec), "--n", "10", "--rate", "0.25",
            "--tau", "0.05", "--trials", "10", "--seed", "2024"]
    outputs = []
    for threads in ("1", "4", "2"):
        out = tmp_path / f"run{threads}.csv"
        monkeypatch.setenv("SOFTCOVER_THREADS", threads)
        assert main(args + ["--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    capsys.readouterr()
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(6, "simulation determinism across worker counts", ok)
    assert ok
