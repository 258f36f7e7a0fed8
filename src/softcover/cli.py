"""Command-line interface.

Subcommands: ``info``, ``exponent``, ``sweep``, ``phase``, ``tradeoff``,
``simulate``, ``verify-zchannel``. CSV outputs carry a header row and a
``<file>.manifest.json`` sidecar describing the run; numbers are printed to
nine significant digits with ``inf``/``-inf`` tokens for infinite exponents.
``--bits`` converts threshold, rate, and exponent values at the boundary
only; everything internal stays in nats. Exit codes: 0 success, 2 input
error, 3 every requested scalar infeasible, 4 verification failure.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .exponents import (
    SolverConfig,
    default_config,
    fa_exponent,
    md_exponent,
    r0_exponents,
)
from .measures import Channel, Distribution, JointType, mutual_information, \
    entropy, output_marginal
from .phase import classify, fa_cusp_rate, phase_report, tradeoff_curve
from .simulate import (
    codebook_size,
    estimate_from_values,
    exact_r0_error_probs,
    per_trial_error_probs,
    quantized_composition,
    type_class_size,
)

LN2 = math.log(2.0)

ZCHANNEL_SPEC = """\
name: z-channel-w45
input_size: 2
output_size: 2
matrix: 1.0 0.0 0.45 0.55
input_dist: 0.5 0.5
"""


class SpecError(ValueError):
    def __init__(self, message: str, line: int | None = None,
                 field: str | None = None):
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if field is not None:
            prefix += f"{field}: "
        super().__init__(prefix + message)
        self.line = line
        self.field = field


@dataclass(frozen=True)
class ChannelSpec:
    name: str
    input_size: int
    output_size: int
    matrix: tuple[float, ...]
    input_dist: tuple[float, ...]

    def to_channel(self) -> tuple[Channel, Distribution]:
        rows = np.array(self.matrix, dtype=float).reshape(
            self.input_size, self.output_size)
        rows = rows / rows.sum(axis=1, keepdims=True)
        dist = np.array(self.input_dist, dtype=float)
        dist = dist / dist.sum()
        return Channel(rows), Distribution(dist)


_REQUIRED_KEYS = ("name", "input_size", "output_size", "matrix", "input_dist")


def parse_channel_spec(text: str) -> ChannelSpec:
    """Parse the key/value channel format; raises SpecError with the line
    and field of the first problem found."""
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        sep = ":" if ":" in line else ("=" if "=" in line else None)
        if sep is None:
            raise SpecError("expected 'key: value'", line=lineno)
        key, value = (part.strip() for part in line.split(sep, 1))
        if key not in _REQUIRED_KEYS:
            raise SpecError(f"unknown key {key!r}", line=lineno)
        if key in values:
            raise SpecError(f"duplicate key {key!r}", line=lineno)
        values[key] = value
        lines[key] = lineno
    for key in _REQUIRED_KEYS:
        if key not in values:
            raise SpecError(f"missing key {key!r}", field=key)

    def parse_int(key: str) -> int:
        try:
            n = int(values[key])
        except ValueError:
            raise SpecError(f"expected an integer, got {values[key]!r}",
                            line=lines[key], field=key)
        if n < 2:
            raise SpecError(f"must be >= 2, got {n}", line=lines[key], field=key)
        return n

    def parse_reals(key: str, expected: int) -> tuple[float, ...]:
        parts = values[key].split()
        try:
            nums = tuple(float(p) for p in parts)
        except ValueError:
            raise SpecError(f"expected whitespace-separated reals",
                            line=lines[key], field=key)
        if len(nums) != expected:
            raise SpecError(f"needs {expected} entries, got {len(nums)}",
                            line=lines[key], field=key)
        for i, v in enumerate(nums):
            if v < 0:
                raise SpecError(f"entry {i} is negative ({v!r})",
                                line=lines[key], field=key)
            if not math.isfinite(v):
                raise SpecError(f"entry {i} is not finite",
                                line=lines[key], field=key)
        return nums

    nx = parse_int("input_size")
    ny = parse_int("output_size")
    matrix = parse_reals("matrix", nx * ny)
    input_dist = parse_reals("input_dist", nx)
    for x in range(nx):
        s = math.fsum(matrix[x * ny:(x + 1) * ny])
        if abs(s - 1.0) > 1e-9:
            raise SpecError(f"row {x} sums to {s:.10g}", line=lines["matrix"],
                            field="matrix")
    s = math.fsum(input_dist)
    if abs(s - 1.0) > 1e-9:
        raise SpecError(f"input_dist sums to {s:.10g}",
                        line=lines["input_dist"], field="input_dist")
    return ChannelSpec(values["name"], nx, ny, matrix, input_dist)


def load_spec(path: str) -> tuple[ChannelSpec, str]:
    """The parsed spec and the text it was parsed from, read once."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_channel_spec(text), text


# ---------------------------------------------------------------------------
# formatting and manifests
# ---------------------------------------------------------------------------

def fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.9g}"
    return str(x)


def json_value(x):
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def run_manifest(command: str, spec_text: str, cfg: SolverConfig | None,
                 seed: int | None = None) -> dict:
    return {
        "command": command,
        "spec_hash": hashlib.sha256(spec_text.encode()).hexdigest(),
        "solver_config": asdict(cfg) if cfg is not None else None,
        "seed": seed,
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def write_manifest(path: str, manifest: dict) -> None:
    with open(path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cfg_from_args(args, w: Channel) -> SolverConfig:
    base = default_config(w)
    return SolverConfig(
        grid_points_per_dim=args.grid or base.grid_points_per_dim,
        refinement_rounds=(base.refinement_rounds if args.refine is None
                           else args.refine),
        refinement_shrink=args.shrink or base.refinement_shrink,
        constraint_slack=(base.constraint_slack if args.slack is None
                          else args.slack),
    )


def _unit_in(x: float | None, bits: bool) -> float | None:
    return None if x is None else (x * LN2 if bits else x)


def _unit_out(x: float | None, bits: bool) -> float | None:
    if x is None:
        return None
    if bits and isinstance(x, float) and math.isfinite(x):
        return x / LN2
    return x


def cmd_info(args) -> int:
    spec, _ = load_spec(args.spec)
    w, p_in = spec.to_channel()
    p_out = output_marginal(p_in, w)
    i_xy = mutual_information(JointType(p_in, w.rows))
    bits = args.bits
    payload = {
        "name": spec.name,
        "input_size": spec.input_size,
        "output_size": spec.output_size,
        "i_xy": _unit_out(i_xy, bits),
        "input_entropy": _unit_out(entropy(p_in), bits),
        "output_entropy": _unit_out(entropy(p_out), bits),
        "output_marginal": [float(v) for v in p_out.probs],
        "units": "bits" if bits else "nats",
    }
    print(json.dumps(payload, indent=2))
    return 0


def cmd_exponent(args) -> int:
    spec, spec_text = load_spec(args.spec)
    w, p_in = spec.to_channel()
    cfg = _cfg_from_args(args, w)
    bits = args.bits
    tau = _unit_in(args.tau, bits)
    rate = _unit_in(args.rate, bits)
    payload: dict = {"tau": args.tau, "rate": args.rate,
                     "units": "bits" if bits else "nats"}
    requested = []
    if args.which in ("fa", "both"):
        if rate == 0:
            res, _ = r0_exponents(w, p_in, tau, cfg)
        else:
            res = fa_exponent(w, p_in, tau, rate, cfg)
        payload["e_fa"] = json_value(_unit_out(res.value, bits))
        payload["fa_feasible"] = res.feasible
        payload["fa_branch"] = res.branch
        payload["fa_minimizer"] = (None if res.minimizer is None else
                                   res.minimizer.conditional.tolist())
        requested.append(res)
    if args.which in ("md", "both"):
        if rate == 0:
            _, res = r0_exponents(w, p_in, tau, cfg)
        else:
            res = md_exponent(w, p_in, tau, rate, cfg)
        payload["e_md"] = json_value(_unit_out(res.value, bits))
        payload["md_feasible"] = res.feasible
        payload["md_branch"] = res.branch
        payload["md_minimizer"] = (None if res.minimizer is None else
                                   res.minimizer.conditional.tolist())
        requested.append(res)
    payload["manifest"] = run_manifest("exponent", spec_text, cfg)
    print(json.dumps(payload, indent=2))
    if all(not r.feasible for r in requested):
        return 3
    return 0


def cmd_sweep(args) -> int:
    spec, spec_text = load_spec(args.spec)
    w, p_in = spec.to_channel()
    cfg = _cfg_from_args(args, w)
    bits = args.bits
    tau_min = _unit_in(args.tau_min, bits)
    tau_max = _unit_in(args.tau_max, bits)
    rate = _unit_in(args.rate, bits)
    if tau_min >= tau_max:
        raise SpecError(f"tau-min {args.tau_min} must be below tau-max "
                        f"{args.tau_max}")
    report = phase_report(w, p_in, rate, cfg, locate_kink=False)
    taus = np.linspace(tau_min, tau_max, args.steps)
    rows = []
    for tau in taus:
        tau = float(tau)
        if rate == 0:
            fa, md = r0_exponents(w, p_in, tau, cfg)
        else:
            fa = fa_exponent(w, p_in, tau, rate, cfg)
            md = md_exponent(w, p_in, tau, rate, cfg)
        fa_tag, md_tag = classify(tau, report)
        rows.append([_unit_out(tau, bits), _unit_out(fa.value, bits),
                     _unit_out(md.value, bits), fa_tag.value, md_tag.value])
    write_csv(args.out, ["tau", "e_fa", "e_md", "fa_region", "md_region"], rows)
    write_manifest(args.out, run_manifest("sweep", spec_text, cfg))
    return 0


def cmd_phase(args) -> int:
    spec, spec_text = load_spec(args.spec)
    w, p_in = spec.to_channel()
    cfg = _cfg_from_args(args, w)
    bits = args.bits
    r_min = _unit_in(args.rate_min, bits)
    r_max = _unit_in(args.rate_max, bits)
    if r_min >= r_max:
        raise SpecError(f"rate-min {args.rate_min} must be below rate-max "
                        f"{args.rate_max}")
    rows = []
    for rate in np.linspace(r_min, r_max, args.rate_steps):
        report = phase_report(w, p_in, float(rate), cfg)
        rows.append([
            _unit_out(report.rate, bits),
            _unit_out(report.i_xy, bits),
            _unit_out(report.tau_flat, bits),
            _unit_out(report.fa_flat_value, bits),
            _unit_out(report.lambda_min, bits),
            _unit_out(report.lambda_max, bits),
            _unit_out(report.tau_star, bits),
            _unit_out(report.tau_kink, bits),
        ])
    write_csv(args.out,
              ["rate", "i_xy", "tau_flat", "fa_flat_value", "lambda_min",
               "lambda_max", "tau_star", "tau_kink"], rows)
    write_manifest(args.out, run_manifest("phase", spec_text, cfg))
    return 0


def cmd_tradeoff(args) -> int:
    spec, spec_text = load_spec(args.spec)
    w, p_in = spec.to_channel()
    cfg = _cfg_from_args(args, w)
    bits = args.bits
    rate = _unit_in(args.rate, bits)
    if rate is None or rate <= 0:
        raise SpecError("rate must be > 0; a zero-rate codebook has a "
                        "degenerate tradeoff, use the exponent command with "
                        "--rate 0")
    curve = tradeoff_curve(w, p_in, rate, args.samples, cfg)
    raw_rows = [[_unit_out(t, bits), _unit_out(fa, bits), _unit_out(md, bits)]
                for t, fa, md in curve.points]
    env_rows = [[_unit_out(fa, bits), _unit_out(md, bits)]
                for fa, md in curve.envelope]
    raw_path = args.out + "_raw.csv"
    env_path = args.out + "_envelope.csv"
    write_csv(raw_path, ["tau", "e_fa", "e_md"], raw_rows)
    write_csv(env_path, ["e_fa", "e_md"], env_rows)
    manifest = run_manifest("tradeoff", spec_text, cfg)
    write_manifest(raw_path, manifest)
    write_manifest(env_path, manifest)
    return 0


def cmd_simulate(args) -> int:
    spec, spec_text = load_spec(args.spec)
    w, p_in = spec.to_channel()
    bits = args.bits
    tau = _unit_in(args.tau, bits)
    rate = _unit_in(args.rate, bits)
    m = codebook_size(args.n, rate)
    realized_rate = math.log(m) / args.n
    if args.mode == "exact-r0":
        if rate != 0:
            raise SpecError("exact-r0 mode requires --rate 0")
        alpha, beta = exact_r0_error_probs(args.n, w, p_in, tau)
        ensemble = type_class_size(quantized_composition(args.n, p_in))
        pairs = [(alpha, beta)]
        alpha_est = estimate_from_values([alpha], args.seed)
        beta_est = estimate_from_values([beta], args.seed)
        trials = ensemble
    else:
        pairs = per_trial_error_probs(args.n, rate, w, p_in, tau,
                                      args.trials, args.seed)
        alpha_est = estimate_from_values([p[0] for p in pairs], args.seed)
        beta_est = estimate_from_values([p[1] for p in pairs], args.seed)
        trials = args.trials
    rows = [[t, a, b] for t, (a, b) in enumerate(pairs)]
    write_csv(args.out, ["trial", "alpha", "beta"], rows)
    manifest = run_manifest("simulate", spec_text, None,
                            seed=args.seed)
    write_manifest(args.out, manifest)
    summary = {
        "n": args.n,
        "rate_nominal": args.rate,
        "realized_m": m,
        "realized_rate": _unit_out(realized_rate, bits),
        "tau": args.tau,
        "mode": args.mode,
        "trials": trials,
        "seed": args.seed,
        "alpha": {"mean": alpha_est.mean, "std_error": alpha_est.std_error},
        "beta": {"mean": beta_est.mean, "std_error": beta_est.std_error},
        "units": "bits" if bits else "nats",
    }
    print(json.dumps(summary, indent=2))
    return 0


ZCHANNEL_CHECKS = [
    # check name, reference value, tolerance
    ("i_xy", 0.2441, 5e-4),
    ("tau_star_R0.05", 0.1941, 5e-4),
    ("tau_flat_R0.05", 0.033, 2e-3),
    ("fa_flat_value_R0.05", 0.111, 2e-3),
    ("lambda_max_R0.05", 0.457, 2e-3),
    ("lambda_min_R0.05", -0.078, 2e-3),
    ("tau_kink_R0.05", -0.047, 2e-3),
    ("fa_cusp_rate", 0.106, 3e-3),
]


def zchannel_checkpoints(cfg: SolverConfig | None = None) -> dict[str, float]:
    """Computed values behind the verification table, keyed by check name."""
    spec = parse_channel_spec(ZCHANNEL_SPEC)
    w, p_in = spec.to_channel()
    cfg = cfg or default_config(w)
    report = phase_report(w, p_in, 0.05, cfg)
    cusp = fa_cusp_rate(w, p_in, [0.02 + 0.02 * k for k in range(12)], cfg)
    return {
        "i_xy": report.i_xy,
        "tau_star_R0.05": report.tau_star,
        "tau_flat_R0.05": report.tau_flat,
        "fa_flat_value_R0.05": report.fa_flat_value,
        "lambda_max_R0.05": report.lambda_max,
        "lambda_min_R0.05": report.lambda_min,
        "tau_kink_R0.05": math.nan if report.tau_kink is None else report.tau_kink,
        "fa_cusp_rate": math.nan if cusp is None else cusp,
    }


def cmd_verify_zchannel(args) -> int:
    cfg = None
    if args.grid or args.refine is not None or args.shrink or args.slack is not None:
        spec = parse_channel_spec(ZCHANNEL_SPEC)
        w, _ = spec.to_channel()
        cfg = _cfg_from_args(args, w)
    computed = zchannel_checkpoints(cfg)
    print(f"{'check':<24}{'expected':>12}{'computed':>14}{'tol':>10}  status")
    failures = 0
    for name, expected, tol in ZCHANNEL_CHECKS:
        value = computed[name]
        ok = math.isfinite(value) and abs(value - expected) <= tol
        failures += 0 if ok else 1
        print(f"{name:<24}{expected:>12.4f}{value:>14.6f}{tol:>10.1e}  "
              f"{'PASS' if ok else 'FAIL'}")
    if failures:
        print(f"{failures} checkpoint(s) failed")
        return 4
    print("all checkpoints passed")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid", type=int, default=None,
                   help="grid points per free dimension")
    p.add_argument("--refine", type=int, default=None,
                   help="refinement rounds")
    p.add_argument("--shrink", type=float, default=None,
                   help="box shrink factor per refinement round")
    p.add_argument("--slack", type=float, default=None,
                   help="constraint slack in nats")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softcover",
        description="Error exponents of codebook-output detection for "
                    "discrete memoryless channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="derived channel quantities")
    p.add_argument("--spec", required=True)
    p.add_argument("--bits", action="store_true")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("exponent", help="both exponents at one point")
    p.add_argument("--spec", required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--which", choices=("fa", "md", "both"), default="both")
    p.add_argument("--bits", action="store_true")
    _add_solver_flags(p)
    p.set_defaults(fn=cmd_exponent)

    p = sub.add_parser("sweep", help="threshold sweep at a fixed rate")
    p.add_argument("--spec", required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--tau-min", type=float, required=True)
    p.add_argument("--tau-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bits", action="store_true")
    _add_solver_flags(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("phase", help="critical thresholds across rates")
    p.add_argument("--spec", required=True)
    p.add_argument("--rate-min", type=float, required=True)
    p.add_argument("--rate-max", type=float, required=True)
    p.add_argument("--rate-steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bits", action="store_true")
    _add_solver_flags(p)
    p.set_defaults(fn=cmd_phase)

    p = sub.add_parser("tradeoff", help="exponent tradeoff curve")
    p.add_argument("--spec", required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--samples", type=int, default=101)
    p.add_argument("--out", required=True,
                   help="output prefix; writes <prefix>_raw.csv and "
                        "<prefix>_envelope.csv")
    p.add_argument("--bits", action="store_true")
    _add_solver_flags(p)
    p.set_defaults(fn=cmd_tradeoff)

    p = sub.add_parser("simulate", help="finite-blocklength error estimates")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("mc", "exact-r0"), default="mc")
    p.add_argument("--out", required=True)
    p.add_argument("--bits", action="store_true")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify-zchannel",
                       help="reproduce the built-in Z-channel checkpoints")
    _add_solver_flags(p)
    p.set_defaults(fn=cmd_verify_zchannel)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SpecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
