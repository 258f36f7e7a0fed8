import hashlib
import json
import math

import pytest

from softcover.cli import (
    SpecError,
    ZCHANNEL_SPEC,
    main,
    parse_channel_spec,
)

Z_SPEC = ZCHANNEL_SPEC
BSC_SPEC = """\
name: bsc-10
input_size: 2
output_size: 2
matrix: 0.9 0.1 0.1 0.9
input_dist: 0.5 0.5
"""


@pytest.fixture()
def z_spec_file(tmp_path):
    path = tmp_path / "z.channel"
    path.write_text(Z_SPEC)
    return str(path)


# --------------------------------------------------------------- spec parse

def test_parse_roundtrip():
    spec = parse_channel_spec(Z_SPEC)
    assert spec.input_size == 2 and spec.output_size == 2
    w, p_in = spec.to_channel()
    assert w.rows[1, 0] == pytest.approx(0.45)
    assert p_in.probs.tolist() == [0.5, 0.5]


def test_parse_errors_are_specific():
    bad_row = Z_SPEC.replace("0.45 0.55", "0.45 0.45")
    with pytest.raises(SpecError, match="row 1 sums to 0.9"):
        parse_channel_spec(bad_row)
    with pytest.raises(SpecError, match="needs 4 entries, got 3"):
        parse_channel_spec(Z_SPEC.replace("1.0 0.0 0.45 0.55", "1.0 0.0 1.0"))
    with pytest.raises(SpecError, match="negative"):
        parse_channel_spec(Z_SPEC.replace("0.45 0.55", "-0.45 1.45"))
    with pytest.raises(SpecError, match="missing key 'input_dist'"):
        parse_channel_spec("\n".join(Z_SPEC.splitlines()[:-1]))
    with pytest.raises(SpecError, match="line 3"):
        parse_channel_spec(Z_SPEC.replace("output_size: 2", "output_size: x"))
    with pytest.raises(SpecError, match="unknown key"):
        parse_channel_spec(Z_SPEC + "extra: 1\n")


# -------------------------------------------------------------- subcommands

def test_info_reports_mutual_information(z_spec_file, capsys):
    assert main(["info", "--spec", z_spec_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["i_xy"] == pytest.approx(0.2441, abs=5e-4)
    assert payload["output_marginal"] == [0.725, 0.275]


def test_exponent_md_zero_above_rate(z_spec_file, capsys):
    assert main(["exponent", "--spec", z_spec_file, "--tau", "0",
                 "--rate", "0.30", "--which", "md"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["e_md"] == 0.0
    # round trip
    assert json.loads(json.dumps(payload)) == payload


def test_exponent_flat_value(z_spec_file, capsys):
    assert main(["exponent", "--spec", z_spec_file, "--tau", "-10",
                 "--rate", "0.05", "--which", "fa"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["e_fa"] == pytest.approx(0.111, abs=2e-3)
    assert payload["fa_branch"] == "sparse"
    assert len(payload["fa_minimizer"]) == 2


def test_exponent_infeasible_scalar_exit_code(z_spec_file, capsys):
    code = main(["exponent", "--spec", z_spec_file, "--tau", "0.5",
                 "--rate", "0.05", "--which", "fa"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["e_fa"] == "inf"
    assert code == 3


def test_exponent_bits_units(z_spec_file, capsys):
    assert main(["exponent", "--spec", z_spec_file, "--tau", "-10",
                 "--rate", str(0.05 / math.log(2)), "--which", "fa",
                 "--bits"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["e_fa"] == pytest.approx(0.1108 / math.log(2), abs=3e-3)


def test_exponent_rate_zero_uses_single_codeword_formulas(z_spec_file, capsys):
    assert main(["exponent", "--spec", z_spec_file, "--tau", "0.05",
                 "--rate", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["e_fa"] == pytest.approx(0.16079181, abs=1e-4)
    assert payload["e_md"] == pytest.approx(0.11503133, abs=1e-4)


def test_missing_spec_file_is_input_error(capsys):
    assert main(["info", "--spec", "/nonexistent.channel"]) == 2


def test_sweep_regions_and_monotonicity(z_spec_file, tmp_path, capsys):
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--spec", z_spec_file, "--rate", "0.05",
                 "--tau-min", "-0.05", "--tau-max", "0.50",
                 "--steps", "45", "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "tau,e_fa,e_md,fa_region,md_region"
    assert len(lines) == 46
    rows = [line.split(",") for line in lines[1:]]
    taus = [float(r[0]) for r in rows]
    fas = [float(r[1]) for r in rows]
    mds = [float(r[2]) for r in rows]
    assert all(a <= b + 1e-9 for a, b in zip(fas, fas[1:]))
    assert all(a >= b - 1e-9 for a, b in zip(mds, mds[1:]))

    def transition(col, frm, to):
        tags = [r[col] for r in rows]
        for i in range(len(tags) - 1):
            if tags[i] == frm and tags[i + 1] == to:
                return 0.5 * (taus[i] + taus[i + 1])
        return None

    # three region changes along the sweep, at the documented thresholds
    step = taus[1] - taus[0]
    assert abs(transition(3, "FA_flat", "FA_active") - 0.033) <= step
    assert abs(transition(3, "FA_active", "FA_infinite") - 0.457) <= step
    assert abs(transition(4, "MD_active", "MD_zero") - 0.194) <= step
    # manifest sidecar accompanies the csv
    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["command"] == "sweep"
    assert len(manifest["spec_hash"]) == 64


def test_sweep_rejects_bad_range(z_spec_file, tmp_path):
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--spec", z_spec_file, "--rate", "0.05",
                 "--tau-min", "0.2", "--tau-max", "0.1",
                 "--steps", "5", "--out", out]) == 2


def test_phase_csv(z_spec_file, tmp_path):
    out = str(tmp_path / "phase.csv")
    assert main(["phase", "--spec", z_spec_file, "--rate-min", "0.05",
                 "--rate-max", "0.35", "--rate-steps", "4",
                 "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == ("rate,i_xy,tau_flat,fa_flat_value,lambda_min,"
                        "lambda_max,tau_star,tau_kink")
    assert len(lines) == 5
    for line in lines[1:]:
        parts = line.split(",")
        rate = float(parts[0])
        tau_star = float(parts[6])
        assert tau_star == pytest.approx(max(0.0, 0.2441 - rate), abs=5e-4)
        assert float(parts[4]) <= float(parts[5])  # lambda_min <= lambda_max
    # kink column empty once the sparse branch disappears at high rate
    assert lines[-1].endswith(",")


def test_tradeoff_files(z_spec_file, tmp_path):
    prefix = str(tmp_path / "trade")
    assert main(["tradeoff", "--spec", z_spec_file, "--rate", "0.05",
                 "--samples", "41", "--out", prefix]) == 0
    raw = open(prefix + "_raw.csv").read().splitlines()
    env = open(prefix + "_envelope.csv").read().splitlines()
    assert raw[0] == "tau,e_fa,e_md" and env[0] == "e_fa,e_md"
    assert len(raw) == 42
    fas = [float(r.split(",")[0]) for r in env[1:]]
    assert all(a < b for a, b in zip(fas, fas[1:]))
    mds = [r.split(",")[1] for r in env[1:]]
    finite = [float(m) for m in mds if m != "inf"]
    assert all(a > b for a, b in zip(finite, finite[1:]))


def test_tradeoff_rejects_zero_rate(z_spec_file, tmp_path):
    assert main(["tradeoff", "--spec", z_spec_file, "--rate", "0",
                 "--out", str(tmp_path / "t")]) == 2


def test_simulate_exact_r0_matches_oracle(z_spec_file, tmp_path, capsys):
    out = str(tmp_path / "sim.csv")
    assert main(["simulate", "--spec", z_spec_file, "--n", "8", "--rate", "0",
                 "--tau", "0", "--mode", "exact-r0", "--out", out]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha"]["mean"] == pytest.approx(0.19995009567855837,
                                                     abs=1e-12)
    assert payload["beta"]["mean"] == pytest.approx(0.04100625, abs=1e-12)
    assert payload["realized_m"] == 1


@pytest.mark.parametrize("name", ["z-channel", "z-kanal-\u00e4"])
def test_spec_hash_is_sha256_of_the_spec_file(name, tmp_path, capsys):
    path = tmp_path / "z.channel"
    path.write_bytes(Z_SPEC.replace("z-channel", name).encode("utf-8"))
    out = str(tmp_path / "sim.csv")
    assert main(["simulate", "--spec", str(path), "--n", "8", "--rate", "0",
                 "--tau", "0", "--mode", "exact-r0", "--out", out]) == 0
    capsys.readouterr()
    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["spec_hash"] == hashlib.sha256(
        path.read_bytes()).hexdigest()


def test_simulate_rows_in_unit_interval(z_spec_file, tmp_path, capsys):
    out = str(tmp_path / "sim.csv")
    assert main(["simulate", "--spec", z_spec_file, "--n", "8",
                 "--rate", "0.2", "--tau", "0.05", "--trials", "6",
                 "--seed", "9", "--out", out]) == 0
    capsys.readouterr()
    rows = open(out).read().splitlines()[1:]
    assert len(rows) == 6
    for row in rows:
        _, alpha, beta = row.split(",")
        assert 0.0 <= float(alpha) <= 1.0
        assert 0.0 <= float(beta) <= 1.0


def test_simulate_deterministic_across_threads(z_spec_file, tmp_path, capsys,
                                               monkeypatch):
    args = ["simulate", "--spec", z_spec_file, "--n", "8", "--rate", "0.2",
            "--tau", "0.05", "--trials", "8", "--seed", "42"]
    out1 = str(tmp_path / "a.csv")
    monkeypatch.setenv("SOFTCOVER_THREADS", "1")
    assert main(args + ["--out", out1]) == 0
    out2 = str(tmp_path / "b.csv")
    monkeypatch.setenv("SOFTCOVER_THREADS", "3")
    assert main(args + ["--out", out2]) == 0
    capsys.readouterr()
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_verify_zchannel_passes(capsys):
    assert main(["verify-zchannel"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 8
    assert "FAIL" not in out


def test_verify_zchannel_fails_with_crippled_solver(capsys):
    # a deliberately coarse configuration cannot reproduce the checkpoints
    code = main(["verify-zchannel", "--grid", "17", "--refine", "0"])
    out = capsys.readouterr().out
    assert code == 4
    assert "FAIL" in out
