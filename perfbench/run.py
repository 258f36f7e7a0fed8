"""Closed-loop benchmark of the softcover package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from
``src/``. One client sends a request, waits for it, checks its result
against an independent reference, then sends the next, until ``--seconds``
have passed. With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it records spans around every call into a layer for every
other block of requests, and prints the per-layer metrics and the tracing
overhead, traced against untraced request time. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a fuller record, including the host block, the output digest
and (when traced) the spans, is written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from tracing import NullTracer, Tracer, p90

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
THREADS = str(min(2, os.cpu_count() or 1))
SETUP_SAMPLES = 5

END_TO_END = {"req_per_s": "1/s", "req_p50_s": "s", "req_p90_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "exponents.fa_exponent.p50_s": "s",
    "exponents.md_exponent.p50_s": "s",
    "exponents.md_ceiling.p50_s": "s",
    "exponents.md_ceiling.p90_s": "s",
    "exponents.md_gate_off.p50_s": "s",
    "exponents.ceiling_share": "frac",
    "exponents.cold_solve_s": "s",
    "exponents.ceiling_excess_max_nats": "nats",
    "exponents.ceiling_violations": "count",
    "exponents.oracle_gap_max_nats": "nats",
    "phase.lambda_extrema.p50_s": "s",
    "phase.tau_flat.p50_s": "s",
    "phase.tau_kink.p50_s": "s",
    "phase.fa_cusp_rate.p50_s": "s",
    "cli.io_s": "s",
    "cli.unattributed_s": "s",
    "simulate.exact_r0.p50_s": "s",
    "simulate.exact_r0.n16.p50_s": "s",
    "simulate.exact_r0.n18.p50_s": "s",
    "simulate.exact_r0.n20.p50_s": "s",
    "simulate.exact_r0.outputs_per_s": "1/s",
    "simulate.trial.p50_s": "s",
    "simulate.trial.codeword_outputs_per_s": "1/s",
    "pool.workers": "count",
    "pool.speedup": "ratio",
    "pool.trials_not_bit_identical": "count",
    "trace.overhead_frac": "frac",
}


@dataclass(slots=True)
class Outcome:
    latency: float
    error: str | None      # the exception a request raised
    check: object          # workloads.Check, None when the request raised
    digest: str | None     # result at nine significant digits
    note: str | None       # what to print when the request failed
    traced: bool


def _fmt9(x) -> str:
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def send(wl, req, k, tr, targets, traced) -> Outcome:
    """One request: run it, time it, then check its result."""
    with tr.patched(targets):
        tr.request_id = k
        start = time.perf_counter()
        try:
            with tr.span("request"):
                out = wl.run(req, tr)
            error = None
        except Exception as exc:  # a failed request is counted, not fatal
            out, error = None, f"request {k}: {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if traced and error is None and hasattr(wl, "gate_off"):
            wl.gate_off(req, tr)
        tr.request_id = None
    check = None if error else wl.check(req, out)
    note = error
    if check is not None and not check.ok:
        note = (f"request {k}: check failed {check.detail} on {out!r:.160}"
                f" for {req!r:.240}")
    digest = None
    if error is None and k < wl.digest_requests:
        digest = ",".join(_fmt9(v) for v in wl.digest_items(out))
    return Outcome(latency, error, check, digest, note, traced)


def closed_loop(wl, get_request, deadline, tracer=None) -> list[Outcome]:
    """Send requests one at a time until the deadline. With a tracer, every
    other block of ``wl.period`` requests is traced, so traced and untraced
    requests share the same mix of inputs and the same stretch of time."""
    null = NullTracer()
    targets = wl.trace_targets(tracer) if tracer else []
    outcomes = []
    k = 0
    while time.perf_counter() < deadline:
        traced = tracer is not None and (k // wl.period) % 2 == 0
        outcomes.append(send(wl, get_request(k), k, tracer if traced else null,
                             targets, traced))
        k += 1
    return outcomes


def layer_metrics(wl, outcomes, tracer) -> dict:
    """Per-layer metrics from the spans of the traced ``outcomes``."""
    checks = [o.check for o in outcomes if o.traced and o.check is not None]
    metrics = wl.layer_metrics(tracer.spans, checks)
    if hasattr(wl, "pool_probe"):
        with tracer.patched(wl.trace_targets(tracer)):
            tracer.request_id = "pool-probe"
            metrics.update(wl.pool_probe(wl.request(1), tracer))
    return metrics


def side_probe(wl) -> tuple[dict, list]:
    """Trace the workload's ``probe`` requests once, so that a traced run of
    another workload still measures the layers it leaves idle."""
    tracer = Tracer()
    wl.warm_up()
    targets = wl.trace_targets(tracer)
    outcomes = [send(wl, wl.request(k), k, tracer, targets, True)
                for k in wl.probe()]
    metrics = layer_metrics(wl, outcomes, tracer)
    return metrics, [{**s, "probe": wl.name} for s in tracer.spans]


def output_digest(outcomes, wl) -> dict:
    lines = [o.digest if o.digest is not None else "error"
             for o in outcomes[:wl.digest_requests]]
    return {"sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
            "requests": len(lines)}


def end_to_end(outcomes, setup_samples) -> tuple[dict, dict]:
    done = [o.latency for o in outcomes if o.error is None]
    tail = p90(done)
    metrics = {
        "req_per_s": len(done) / sum(o.latency for o in outcomes),
        "req_p50_s": median(done),
        "req_p90_s": tail,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": median(setup_samples),
    }
    counts = {"samples": len(done),
              "beyond_p90": sum(x > tail for x in done),
              "setup_samples_s": setup_samples}
    return metrics, counts


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "softcover").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def host_block(seed: int) -> dict:
    import numpy as np
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "softcover_threads": os.environ["SOFTCOVER_THREADS"],
            "git_commit": git_commit(), "source_sha256": source_digest(),
            "seed": seed, "platform": platform.platform()}


def setup_probe(args) -> float:
    """Set-up time of a fresh process, which is what a new session pays."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    t0 = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "softcover" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}; run from a softcover "
              f"source checkout", file=sys.stderr)
        return 2
    os.environ["SOFTCOVER_THREADS"] = THREADS
    sys.path[:0] = [str(SRC), str(HERE)]
    import softcover as sc
    from workloads import LAYERS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, t0, sc, WORKLOADS, LAYERS, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, t0, sc, workloads, layers, workdir) -> int:
    wl = workloads[args.workload](sc, args.seed, workdir)
    batch = [wl.request(k) for k in
             range(math.ceil(wl.requests_per_s * args.seconds))]
    wl.warm_up()
    setup = time.perf_counter() - t0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup}))
        return 0

    def get_request(k):
        # past the pre-generated batch, requests are made on demand; the
        # time spent making them is outside every request's latency
        return batch[k] if k < len(batch) else wl.request(k)

    tracer = Tracer() if args.trace else None
    outcomes = closed_loop(wl, get_request,
                           time.perf_counter() + args.seconds, tracer)
    if not args.trace:
        setup_samples = [setup] + [setup_probe(args)
                                   for _ in range(SETUP_SAMPLES - 1)]
        metrics, counts = end_to_end(outcomes, setup_samples)
        return report(args, wl, outcomes, metrics, END_TO_END, counts, None)
    traced = [o for o in outcomes if o.traced]
    plain = [o for o in outcomes if not o.traced]
    own = layer_metrics(wl, outcomes, tracer)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for other in layers:
        if not isinstance(wl, other):
            side, spans = side_probe(other(sc, args.seed, workdir))
            metrics.update(side)
            tracer.spans += spans
    metrics.update(own)
    if traced and plain:
        metrics["trace.overhead_frac"] = (
            sum(o.latency for o in traced) / len(traced)
            / (sum(o.latency for o in plain) / len(plain)) - 1.0)
    counts = {"traced_requests": len(traced)}
    return report(args, wl, outcomes, metrics, PER_LAYER, counts,
                  tracer.spans)


def report(args, wl, outcomes, metrics, units, counts, spans) -> int:
    attempted = len(outcomes)
    errors = [o.error for o in outcomes if o.error]
    invalid = sum(1 for o in outcomes
                  if o.check is not None and not o.check.ok)
    failed = len(errors) + invalid
    for message in [o.note for o in outcomes if o.note][:5]:
        print(message, file=sys.stderr)
    detail = {
        "workload": wl.name, "trace": args.trace, "seconds": args.seconds,
        "host": host_block(args.seed),
        "error_frac": len(errors) / attempted,
        "invalid_frac": invalid / attempted,
        "output_digest": output_digest(outcomes, wl),
        **counts,
    }
    metrics = {name: float(value) for name, value in metrics.items()}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name in ("error_frac", "invalid_frac"):
        print(f"{name} = {detail[name]:.6g} frac")
    for name, value in counts.items():
        print(f"{name} = {value}")
    print(json.dumps(detail))
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({**detail, "metrics": metrics}, indent=1) + "\n")
    if spans is not None:
        with open(OUT / f"spans-{stem}.jsonl", "w", encoding="utf-8") as fh:
            for record in spans:
                fh.write(json.dumps(record, default=repr) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
