"""The dagsearch benchmark: one command, seeded offline workloads.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload long_horizon --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py --baseline

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` it holds every per-layer metric
from a traced run instead. ``--baseline`` reproduces the hand-taken baseline
quoted in ROADMAP.md. See benchmarks/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracer import LAYER_NAMES, OPERATIONS, summarize

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

# The fastest time of harness.Reference on the machine the README
# describes, when nothing else slows it. End-to-end timings are scaled by
# this over the run's own fastest reference time, so they read as seconds on
# that machine undisturbed; see "Limits of the measuring machine".
REFERENCE_MS = 0.77

# Timed phases of an iteration, each reported as <phase>_s.
PHASES = ("run", "replay", "stats", "export")

# Metric -> unit, in report order; BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": "s",
    "turn_ms_p50": "ms",
    "turn_ms_p90": "ms",
    "run_s": "s",
    "replay_s": "s",
    "stats_s": "s",
    "export_s": "s",
    "traj_bytes_per_step": "B",
    "input_tokens_per_turn": "tokens",
    "cache_ratio_mean": "ratio",
    "uncached_tokens_per_turn": "tokens",
    "peak_rss_mb": "MB",
}

DERIVED_LAYER_UNITS = {
    "protocol.rejects": "count",
    "register.tokenize_amplification": "ratio",
    "backend.retries": "count",
    "backend.calls_per_step": "ratio",
    "engine.turn_self_ms": "ms",
    "trajectory.bytes": "B",
    "tracing_overhead_s": "s",
    "failed_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for calls, self_ms, p50 in LAYER_NAMES.values():
        units.update({calls: "count", self_ms: "ms", p50: "ms"})
    units.update(DERIVED_LAYER_UNITS)
    return units


def fastest_total(executions) -> float:
    """Sum over a phase's pieces of each piece's fastest time over executions.

    Every execution of a phase does identical work, cut at identical calls,
    so this is the phase time with each piece measured at its least disturbed.
    """
    return sum(min(samples) for samples in zip(*executions))


def import_program():
    """Import dagsearch from this checkout's sources, never from elsewhere."""
    if not (SRC_DIR / "dagsearch" / "__init__.py").is_file():
        raise SystemExit(f"error: no dagsearch sources under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import dagsearch

    if Path(dagsearch.__file__).resolve().parent != SRC_DIR / "dagsearch":
        raise SystemExit(f"error: dagsearch imported from {dagsearch.__file__}, not from {SRC_DIR}")


def layer_metrics(tracer, traced, untraced) -> dict[str, float]:
    per_iteration = []
    for it in traced:
        spans = tracer.spans[it.spans[0] : it.spans[1]]
        ops = summarize(spans)
        values: dict[str, float] = {}
        for op, (calls, self_ms, p50) in LAYER_NAMES.items():
            values[calls] = ops[op].calls
            values[self_ms] = ops[op].self_ms
            values[p50] = ops[op].p50_ms
        run_spans = [s for s in spans if s.trace_id.startswith("run")]
        run_backend_calls = sum(1 for s in run_spans if s.name == "backend.complete")
        run_engine_self = sum(s.self_time for s in run_spans if s.name == "engine.run")
        tokenized = sum(s.tokens for s in run_spans if s.name == "register.tokenize")
        values["protocol.rejects"] = sum(1 for s in spans if s.name == "protocol.parse" and s.error)
        values["register.tokenize_amplification"] = tokenized / it.model_input_tokens
        values["backend.retries"] = run_backend_calls - it.steps
        values["backend.calls_per_step"] = run_backend_calls / it.steps
        values["engine.turn_self_ms"] = run_engine_self * 1e3 / it.solving_steps
        values["trajectory.bytes"] = it.trajectory_bytes
        per_iteration.append(values)
    metrics = {name: statistics.median(v[name] for v in per_iteration) for name in per_iteration[0]}
    metrics["tracing_overhead_s"] = min(i.run_s for i in traced) - min(i.run_s for i in untraced)
    return metrics


def print_layer_split(tracer, traced) -> None:
    """Share of traced wall time spent in each operation's own code."""
    spans = [s for it in traced for s in tracer.spans[it.spans[0] : it.spans[1]]]
    total = sum(s.self_time for s in spans)
    own = {op: sum(s.self_time for s in spans if s.name == op) for op in OPERATIONS}
    own["benchmark and untraced code"] = total - sum(own.values())
    print("self-time split over traced iterations:")
    for op, seconds in sorted(own.items(), key=lambda kv: -kv[1]):
        print(f"  {op:28s} {seconds * 1e3 / len(traced):10.2f} ms/iter  {100 * seconds / total:5.1f}%")


def measure(args: argparse.Namespace) -> dict:
    from harness import Harness
    from tracer import Tracer
    from workloads import generate

    workload = generate(args.workload, args.seed)
    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        harness = Harness(workload, workdir)
        harness.setup_time(SRC_DIR)  # warm-up: writes the bytecode caches
        tracer = Tracer() if args.trace else None
        untraced, traced, setup = [], [], []
        context = None
        started = time.perf_counter()
        while True:
            # One set-up probe per iteration spreads them over the run, so
            # that they meet the same machine conditions as the iterations.
            probe = harness.setup_time(SRC_DIR)
            if probe is not None:
                setup.append(probe)
            if tracer is not None and len(untraced) > len(traced):
                with tracer:
                    traced.append(harness.iterate(tracer))
            else:
                untraced.append(harness.iterate())
            if context is None:
                context = harness.context_metrics(untraced[0].trajectories)
            for it in untraced + traced:
                it.trajectories = []
            if tracer is not None and not traced:
                continue
            spent = time.perf_counter() - started
            if spent + spent / (len(untraced) + len(traced)) > args.seconds:
                break
        for phase in PHASES:
            counts = {len(pieces) for it in untraced for pieces in it.pieces[phase]}
            harness.checks.expect(len(counts) == 1, f"{phase} is cut into {counts} pieces on different executions")
        checks = harness.checks
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Each turn's fastest time over iterations; the README's "Limits of the
    # measuring machine" says why.
    turn_ms = [min(samples) for samples in zip(*(it.turn_ms for it in untraced))]
    print(f"workload {args.workload}, seed {args.seed}: {len(workload.questions)} question(s)")
    print(f"iterations: {len(untraced)} untraced, {len(traced)} traced; {len(setup)} set-up probes")
    print(f"turn samples: {len(turn_ms)} turns x {len(untraced)} iterations (p90 has {len(turn_ms) - int(0.9 * len(turn_ms))} turns beyond it)")
    for phase in PHASES:
        print(f"{phase}_s per iteration: " + " ".join(f"{getattr(i, f'{phase}_s'):.4f}" for i in untraced))
    print(f"checks: {checks.attempted} attempted, {checks.failed} failed")
    for message in checks.failures[:20]:
        print(f"  FAILED {message}")

    reference_ms = min(harness.reference.samples) * 1e3
    scale = REFERENCE_MS / reference_ms
    print(f"reference: fastest {reference_ms:.4f} ms over {len(harness.reference.samples)} samples; timings scaled by {scale:.4f}")
    if tracer is None:
        first = untraced[0]
        timings = {
            "setup_s": statistics.median(setup),
            "turn_ms_p50": statistics.median(turn_ms),
            "turn_ms_p90": statistics.quantiles(turn_ms, n=10, method="inclusive")[8],
            **{f"{phase}_s": fastest_total(p for i in untraced for p in i.pieces[phase]) for phase in PHASES},
        }
        print("unscaled: " + ", ".join(f"{name} {value:.6f}" for name, value in timings.items()))
        values = {
            **{name: value * scale for name, value in timings.items()},
            "traj_bytes_per_step": statistics.median(i.trajectory_bytes for i in untraced) / first.steps,
            **context,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        values = layer_metrics(tracer, traced, untraced)
        values["failed_frac"] = checks.failed / checks.attempted
        print_layer_split(tracer, traced)
        trace_path = WORK_DIR / "traces" / f"{args.workload}-seed{args.seed}-{os.getpid()}.json"
        tracer.write(trace_path)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units().items()}
    print(f"failed_frac: {checks.failed / checks.attempted}")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:>16.6f} {metric['unit']}")
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("long_horizon", "eval_batch", "revise_churn"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true", help="reproduce the ROADMAP hand baseline")
    args = parser.parse_args(argv)
    if not args.baseline and args.workload is None:
        parser.error("--workload is required")
    import_program()
    if args.baseline:
        from baseline import reproduce

        reproduce(WORK_DIR / f"baseline-{os.getpid()}")
        return 0
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
