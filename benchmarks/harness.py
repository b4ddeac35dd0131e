"""Drive one generated workload through dagsearch's operator paths.

One iteration answers the whole question set (``run()`` plus saving the
trajectory, or the ``eval`` command), strictly replays every trajectory,
then runs the ``stats`` and ``export`` commands over them. Every output is
checked; each check counts as one attempted operation, and a failed check
counts as one failed operation.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import dagsearch.trajectory
from dagsearch import cli, engine
from dagsearch.backend import ReplayBackend, ScriptedBackend
from dagsearch.engine import PromptPack, RunConfig, replay_run
from dagsearch.tools import ScriptedTool, ToolRegistry, ToolResult, search_spec
from dagsearch.trajectory import EvalRecord, Trajectory

from tracer import Tracer
from workloads import Question, Workload, write_inputs

BENCH_DIR = Path(__file__).resolve().parent

# Long enough for every generated run; the cap is not what is measured.
RUN_CONFIG = RunConfig(max_turns=2000)

# Untraced, a stats or export command shorter than this is repeated (up to
# MAX_REPEATS times), and every repeat is one more execution to take its
# fastest pieces from: one run of a few tens of milliseconds is mostly
# scheduling noise on a shared machine.
SHORT_COMMAND_S = 0.25
MAX_REPEATS = 9

# The benchmark's own tokenizer, kept apart from dagsearch's so that token
# counts and cache ratios are checked against an independent computation.
_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


class Reference:
    """A fixed piece of the benchmark's own work, timed before every phase.

    It has the shape of the harness's hot path (regex tokenizing, JSON
    round trips, joins) but calls no dagsearch code, so no change to the
    program moves it. Its fastest time over a run shows how much the shared
    machine slowed everything down in that run; see "Limits of the
    measuring machine" in the README.
    """

    REPEATS = 5

    def __init__(self) -> None:
        words = ("amber basalt cedar delta ember fjord granite harbor island cafe 1843 " * 300).split()
        self._text = " ".join(words)
        self._doc = {"words": words[:200], "text": self._text[:2000]}
        self.samples: list[float] = []

    def sample(self) -> None:
        for _ in range(self.REPEATS):
            started = time.perf_counter()
            tokens = _TOKEN_RE.findall(self._text)
            json.loads(json.dumps(self._doc))
            "".join(tokens)
            self.samples.append(time.perf_counter() - started)


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)


@dataclass
class Iteration:
    run_s: float
    replay_s: float
    stats_s: float  # fastest repeat, as for export_s
    export_s: float
    # Phase name -> one list of pieces per execution of the phase; see Cuts.
    pieces: dict[str, list[list[float]]]
    turn_ms: list[float]
    steps: int
    solving_steps: int
    model_input_tokens: int  # sum of recorded step token counts
    trajectory_bytes: int
    trajectories: list[Trajectory]
    spans: tuple[int, int] = (0, 0)  # slice of Tracer.spans, traced iterations only


class Cuts:
    """Stamps every return from the given callables while installed.

    Installed around the backends' ``complete``, the stamps time turns
    without a tracer: a turn is the gap between consecutive accepted
    completions of one question, so it covers everything the harness does
    in it (parse, check, tool call, register update, step record, render,
    tokenize). The same stamps cut a whole phase into pieces; see
    :meth:`pieces`.
    """

    def __init__(self, *targets: tuple[Any, str]) -> None:
        self.stamps: list[tuple[Any, float]] = []  # (first argument, time)
        self._originals = [(owner, name, getattr(owner, name)) for owner, name in targets]

    def __enter__(self) -> "Cuts":
        stamps = self.stamps
        for owner, name, original in self._originals:

            def stamped(*args: Any, original: Any = original, **kwargs: Any) -> Any:
                result = original(*args, **kwargs)
                stamps.append((args[0], time.perf_counter()))
                return result

            setattr(owner, name, stamped)
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.seconds = time.perf_counter() - self.started
        for owner, name, original in self._originals:
            setattr(owner, name, original)

    def pieces(self) -> list[float]:
        """The phase cut at every stamp: seconds from its start to the first
        stamp, between consecutive stamps, and from the last to its end."""
        cuts = [self.started] + [stamp for _, stamp in self.stamps] + [self.started + self.seconds]
        return [b - a for a, b in zip(cuts, cuts[1:])]

    def by_caller(self) -> list[list[float]]:
        """Stamps grouped by first argument (the backend), in first-use order."""
        groups: list[list[float]] = []
        last = None
        for caller, stamp in self.stamps:
            if caller is not last:
                groups.append([])
                last = caller
            groups[-1].append(stamp)
        return groups


def turn_times_ms(question: Question, stamps: list[float]) -> list[float]:
    """Solving-turn times: gaps between consecutive accepted completions."""
    accepted = [stamps[i] for i, bad in enumerate(question.malformed) if not bad and i < len(stamps)]
    # The first two accepted replies are the planning actions.
    return [(b - a) * 1e3 for a, b in zip(accepted[1:], accepted[2:])]


def _span(tracer: Tracer | None, name: str) -> contextlib.AbstractContextManager:
    return tracer.span(name) if tracer else contextlib.nullcontext()


def _quiet(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _timed_command(
    tracer: Tracer | None, span: str, argv: list[str], *cut_at: tuple[Any, str]
) -> tuple[list[list[float]], int]:
    """Pieces of each repeat of a CLI command, and its exit code; see SHORT_COMMAND_S."""
    repeats: list[list[float]] = []
    while True:
        with _span(tracer, span), Cuts(*cut_at) as cuts:
            code, _ = _quiet(argv)
        repeats.append(cuts.pieces())
        total = sum(sum(pieces) for pieces in repeats)
        if tracer or code != 0 or total >= SHORT_COMMAND_S or len(repeats) == MAX_REPEATS:
            return repeats, code


class Harness:
    def __init__(self, workload: Workload, workdir: Path) -> None:
        self.workload = workload
        self.workdir = workdir
        self.paths = write_inputs(workload, workdir / "inputs")
        self.trajectory_dir = workdir / "trajectories"
        self.trajectory_dir.mkdir(parents=True, exist_ok=True)
        self.prompts = PromptPack.load_default()
        self.checks = Checks()
        self.reference = Reference()

    # -- set-up ----------------------------------------------------------------

    def setup_time(self, src_dir: Path) -> float | None:
        """Set-up seconds of one fresh process, as a user pays it on every launch.

        The process imports dagsearch and loads the prompts; on a workload
        with a tool config it also builds the tool registry, corpus load
        included. The first call should be a warm-up that writes the
        bytecode caches. Returns None, and fails a check, if the process fails.
        """
        command = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(src_dir)]
        if "tools" in self.paths:
            command.append(str(self.paths["tools"]))
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=False)
        ok = done.returncode == 0
        self.checks.expect(ok, f"set-up probe failed: {done.stderr.strip()[-300:]}")
        return float(done.stdout.split()[-1]) if ok else None

    # -- one iteration -----------------------------------------------------------

    def _phase(self, tracer: Tracer | None, name: str) -> contextlib.AbstractContextManager:
        self.reference.sample()
        if tracer:
            tracer.phase = name
        return _span(tracer, f"phase.{name}")

    def _answer_all(self, tracer: Tracer | None) -> None:
        if self.workload.corpus:
            argv = [
                "eval",
                "--dataset", str(self.paths["dataset"]),
                "--backend", f"scripted:{self.paths['backend']}",
                "--tools", str(self.paths["tools"]),
                "--out", str(self.workdir / "eval.csv"),
                "--trajectory-dir", str(self.trajectory_dir),
            ]
            with _span(tracer, "cli.eval"):
                code, out = _quiet(argv)
            self.checks.expect(code == 0, f"eval exited with {code}")
            self.checks.expect(
                f"evaluated {len(self.workload.questions)} questions: mean ACC = 1.0000" in out,
                f"eval did not answer every question correctly: {out.strip()[-200:]}",
            )
            return
        for q in self.workload.questions:
            tools = ToolRegistry().register(
                search_spec("search", "Scripted search results."),
                ScriptedTool(results=[ToolResult.from_dict(r) for r in q.tool_results]),
            )
            # Looked up on the module so that a tracer's wrapper is seen.
            result = engine.run(
                q.question,
                backend=ScriptedBackend(responses=q.replies),
                tools=tools,
                config=RUN_CONFIG,
                prompts=self.prompts,
                question_id=q.question_id,
            )
            result.trajectory.save(self.trajectory_dir / f"{q.question_id}.jsonl")

    def iterate(self, tracer: Tracer | None = None) -> Iteration:
        first_span = len(tracer.spans) if tracer else 0
        questions = self.workload.questions
        with self._phase(tracer, "run"), Cuts((ScriptedBackend, "complete")) as log:
            self._answer_all(tracer)

        paths = [self.trajectory_dir / f"{q.question_id}.jsonl" for q in questions]
        with self._phase(tracer, "replay"), Cuts((ReplayBackend, "complete")) as replay_log:
            replays = []
            for path in paths:
                trajectory = Trajectory.load(path)
                replays.append((trajectory, replay_run(trajectory, strict=True)))

        with self._phase(tracer, "stats"):
            stats, stats_code = _timed_command(
                tracer,
                "cli.stats",
                [
                    "stats",
                    "--trajectories", str(self.trajectory_dir),
                    "--curve-out", str(self.workdir / "curve.csv"),
                    "--cache-out", str(self.workdir / "cache.csv"),
                ],
                (dagsearch.trajectory, "default_tokenizer"),
            )

        with self._phase(tracer, "export"):
            export, export_code = _timed_command(
                tracer,
                "cli.export",
                [
                    "export",
                    "--trajectories", str(self.trajectory_dir),
                    "--gold", str(self.paths["dataset"]),
                    "--out", str(self.workdir / "sft.jsonl"),
                ],
            )

        trajectories = [trajectory for trajectory, _ in replays]
        groups = log.by_caller()
        self._check_iteration(replays, groups, stats_code, export_code)
        turn_ms = [ms for q, stamps in zip(questions, groups) for ms in turn_times_ms(q, stamps)]
        return Iteration(
            run_s=log.seconds,
            replay_s=replay_log.seconds,
            stats_s=min(sum(pieces) for pieces in stats),
            export_s=min(sum(pieces) for pieces in export),
            pieces={"run": [log.pieces()], "replay": [replay_log.pieces()], "stats": stats, "export": export},
            turn_ms=turn_ms,
            steps=sum(len(t.steps) for t in trajectories),
            solving_steps=sum(len(t.solving_steps()) for t in trajectories),
            model_input_tokens=sum(step.token_count for t in trajectories for step in t.steps),
            trajectory_bytes=sum(path.stat().st_size for path in paths),
            trajectories=trajectories,
            spans=(first_span, len(tracer.spans) if tracer else 0),
        )

    # -- checks ------------------------------------------------------------------

    def _check_iteration(self, replays, groups, stats_code: int, export_code: int) -> None:
        expect = self.checks.expect
        questions = self.workload.questions
        expect(len(groups) == len(questions), f"{len(groups)} scripted backends used for {len(questions)} questions")
        export_pairs = 0
        for q, stamps, (trajectory, replayed) in zip(questions, groups, replays):
            name = q.question_id
            expect(
                trajectory.outcome == "answered" and trajectory.answer == q.gold,
                f"{name}: run ended {trajectory.outcome} with {trajectory.answer!r} ({trajectory.error})",
            )
            expect(len(trajectory.steps) == q.steps, f"{name}: {len(trajectory.steps)} steps, expected {q.steps}")
            # Each malformed reply costs exactly one re-prompt, never an abort.
            retries = sum(step.retries for step in trajectory.steps)
            expect(
                retries == q.malformed.count(True) and len(stamps) == len(q.replies),
                f"{name}: {retries} retries over {len(stamps)} completions, expected "
                f"{q.malformed.count(True)} over {len(q.replies)}",
            )
            expect(
                replayed.outcome == "answered" and replayed.answer == trajectory.answer and replayed.error is None,
                f"{name}: strict replay ended {replayed.outcome} ({replayed.error})",
            )
            if q.hits:
                ranked_first = [
                    step.tool_result.documents[0].source_id
                    for step in trajectory.steps
                    if step.tool_result is not None and step.tool_result.documents
                ]
                expect(ranked_first == list(q.hits), f"{name}: search ranked {ranked_first}, expected {list(q.hits)}")
            if retries == 0:
                export_pairs += len(trajectory.steps)
        expect(stats_code == 0, f"stats exited with {stats_code}")
        with open(self.workdir / "cache.csv", encoding="utf-8") as handle:
            rows = sum(1 for _ in handle) - 1
        expected_rows = sum(len(t.solving_steps()) - 1 for t, _ in replays)
        expect(rows == expected_rows, f"stats wrote {rows} cache-ratio rows, expected {expected_rows}")
        expect(export_code == 0, f"export exited with {export_code}")
        with open(self.workdir / "sft.jsonl", encoding="utf-8") as handle:
            pairs = sum(1 for _ in handle)
        expect(pairs == export_pairs, f"export wrote {pairs} pairs, expected {export_pairs}")

    def context_metrics(self, trajectories: list[Trajectory]) -> dict[str, float]:
        """Token and cache-ratio metrics, computed by the benchmark itself.

        Each count is checked against the program's own: recorded token
        counts, ``EvalRecord.mean_cache_ratio``, and the eval report.
        """
        expect = self.checks.expect
        gold = {q.question_id: q.gold for q in self.workload.questions}
        tokens_total = turns = 0
        uncached: list[float] = []
        means: list[float] = []
        for trajectory in trajectories:
            previous: list[str] | None = None
            ratios = []
            counts_ok = True
            for step in trajectory.solving_steps():
                current = _TOKEN_RE.findall(step.state)
                counts_ok &= len(current) == step.token_count
                tokens_total += len(current)
                turns += 1
                if previous is not None:
                    shared = 0
                    for a, b in zip(previous, current):
                        if a != b:
                            break
                        shared += 1
                    ratio = shared / len(current)
                    ratios.append(ratio)
                    uncached.append(len(current) * (1.0 - ratio))
                previous = current
            name = trajectory.question_id
            expect(counts_ok, f"{name}: recorded token counts differ from the benchmark's count")
            mean = sum(ratios) / len(ratios)
            program = EvalRecord.from_trajectory(trajectory, [gold[name]]).mean_cache_ratio
            expect(abs(mean - program) < 1e-12, f"{name}: cache ratio {mean} but EvalRecord says {program}")
            means.append(mean)
        if self.workload.corpus:
            with open(self.workdir / "eval.csv", encoding="utf-8") as handle:
                reported = {row["question_id"]: float(row["mean_cache_ratio"]) for row in csv.DictReader(handle)}
            ours = dict(zip((t.question_id for t in trajectories), means))
            expect(
                reported.keys() == ours.keys() and all(abs(reported[k] - ours[k]) <= 5e-5 for k in ours),
                "eval report cache ratios differ from the benchmark's",
            )
        return {
            "input_tokens_per_turn": tokens_total / turns,
            "cache_ratio_mean": statistics.fmean(means),
            "uncached_tokens_per_turn": statistics.fmean(uncached),
        }
