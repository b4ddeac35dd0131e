"""Tiny runs of every workload pass every check; tracing and the CLI contract."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dagsearch.engine
import run as bench
from harness import Harness, turn_times_ms
from tracer import Tracer, summarize
from workloads import WORKLOADS, Question, generate

from test_bench_workloads import TINY

BENCH_DIR = Path(bench.__file__).resolve().parent
ROOT = BENCH_DIR.parent


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_passes_every_check(name, tmp_path):
    workload = generate(name, 5, TINY[name])
    harness = Harness(workload, tmp_path)
    plain = harness.iterate()
    context = harness.context_metrics(plain.trajectories)
    with Tracer() as tracer:
        traced = harness.iterate(tracer)
    assert harness.checks.failures == []
    assert harness.checks.attempted > 0
    assert plain.steps == traced.steps == sum(q.steps for q in workload.questions)
    assert len(plain.turn_ms) == plain.solving_steps
    # Answering and replay are cut at every completion, stats at every
    # tokenizer call, and the pieces add up to the phase.
    (run,), (replay,) = plain.pieces["run"], plain.pieces["replay"]
    assert len(run) == sum(len(q.replies) for q in workload.questions) + 1
    assert len(replay) == plain.steps + 1
    assert sum(run) == pytest.approx(plain.run_s)
    assert sum(replay) == pytest.approx(plain.replay_s)
    assert len(plain.pieces["stats"][0]) > plain.solving_steps
    assert min(map(sum, plain.pieces["export"])) == plain.export_s
    # The reference loop is timed before each of the four phases.
    assert len(harness.reference.samples) == 2 * 4 * harness.reference.REPEATS
    assert 0 < context["cache_ratio_mean"] < 1
    assert context["input_tokens_per_turn"] > context["uncached_tokens_per_turn"] > 0

    ops = summarize(tracer.spans)
    rejects = sum(1 for s in tracer.spans if s.name == "protocol.parse" and s.error)
    assert rejects == workload.malformed_replies
    assert ops["backend.complete"].calls > 0 and ops["register.tokenize"].calls > 0
    assert ops["tools.registry_build"].calls == (len(workload.questions) if workload.corpus else 0)


def test_tracer_restores_the_program():
    original = dagsearch.engine.render_context
    with Tracer():
        assert dagsearch.engine.render_context is not original
    assert dagsearch.engine.render_context is original


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert inner.parent == 0
    assert outer.self_time == pytest.approx(outer.duration - inner.duration)


def test_turn_times_skip_planning_and_rejected_replies():
    q = Question("q", "?", "x", replies=("a",) * 6, malformed=(False, False, False, True, False, False))
    stamps = [0.0, 1.0, 3.0, 4.0, 6.0, 10.0]
    assert turn_times_ms(q, stamps) == [2000.0, 3000.0, 4000.0]


def test_fastest_total_takes_each_segment_at_its_fastest():
    assert bench.fastest_total([[1.0, 5.0, 2.0], [3.0, 4.0, 1.0]]) == 1.0 + 4.0 + 1.0


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "eval_batch", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
