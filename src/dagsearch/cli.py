"""Operator surface: single runs, batch eval, replay, corpus export, stats."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable

from .backend import Backend, HttpChatBackend, ScriptedBackend
from .engine import PromptPack, RunConfig, replay_divergence, replay_run, run
from .tools import ToolRegistry, build_registry
from .trajectory import (
    EvalRecord,
    Trajectory,
    TrajectoryError,
    context_curve,
    export_sft,
    load_trajectories,
    rft_filter,
    write_cache_ratios,
    write_context_curve,
    write_eval_report,
)

logger = logging.getLogger(__name__)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_dataset(path: str) -> list[dict]:
    """JSONL of {question, answers: [...], question_id?} records.

    A line that is not such an object is a ValueError naming the line, so a
    batch stops before any question runs.
    """
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for i, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if (
                not isinstance(record, dict)
                or not isinstance(record.get("question"), str)
                or not isinstance(record.get("answers"), list)
            ):
                raise ValueError(
                    f'{path} line {i + 1}: expected an object with a string "question" and a list "answers"'
                )
            record.setdefault("question_id", f"q{i + 1:04d}")
            records.append(record)
    return records


def _build_config(args: argparse.Namespace) -> tuple[RunConfig, PromptPack]:
    """The run config and prompt pack, from one read of ``--config`` and the flags."""
    data = _load_json(args.config) if getattr(args, "config", None) else {}
    values = dict(data.get("run", data))
    for name in ("max_turns", "max_context_tokens"):
        override = getattr(args, name, None)
        if override is not None:
            values[name] = override
    if getattr(args, "strict", False):
        values["strict_protocol"] = True
    prompts = data.get("prompts")
    if prompts:
        base = Path(args.config).parent
        pack = PromptPack.load(str(base / prompts["holistic"]), str(base / prompts["solving"]))
    else:
        pack = PromptPack.load_default()
    return RunConfig.from_dict(values), pack


def _backend_factory(spec: str) -> Callable[[str], Backend]:
    """A fresh backend per question id, from a ``--backend`` spec read once.

    The spec is ``http`` or ``scripted:<path.json>``. Scripted files hold
    either {"responses": [...]} or {"by_question": {question_id: [...]}} for
    batch eval fixtures. An unknown spec, or a scripted file that cannot be
    read or is not such an object, raises here, before any question runs; a
    question missing from ``by_question`` raises when its backend is built.
    """
    if spec == "http":
        return lambda question_id: HttpChatBackend()
    if spec.startswith("scripted:"):
        path = spec.split(":", 1)[1]
        data = _load_json(path)
        if not isinstance(data, dict) or not ("by_question" in data or "responses" in data):
            raise ValueError(f'{path}: expected an object with "responses" or "by_question"')
        if "by_question" not in data:
            return lambda question_id: ScriptedBackend(responses=data["responses"])

        def scripted(question_id: str) -> Backend:
            responses = data["by_question"].get(question_id)
            if responses is None:
                raise ValueError(f'scripted backend has no responses for "{question_id}"')
            return ScriptedBackend(responses=responses)

        return scripted
    raise ValueError(f'unknown backend spec "{spec}" (use "http" or "scripted:<path>")')


def _build_tools(args: argparse.Namespace) -> ToolRegistry:
    path = getattr(args, "tools", None)
    if not path:
        raise ValueError("a tool config file is required (--tools)")
    config = _load_json(path)
    entries = config["tools"] if isinstance(config, dict) else config
    top_k = getattr(args, "top_k", None)
    if top_k is not None:
        entries = [{**entry, "top_k": top_k} for entry in entries]
    return build_registry(entries, base_dir=Path(path).parent)


def _cmd_run(args: argparse.Namespace) -> int:
    config, prompts = _build_config(args)
    result = run(
        args.question,
        backend=_backend_factory(args.backend)(args.question_id),
        tools=_build_tools(args),
        config=config,
        prompts=prompts,
        question_id=args.question_id,
    )
    if args.out:
        result.trajectory.save(args.out)
    print(f"outcome: {result.outcome}")
    if result.outcome == "answered":
        print(f"answer: {result.answer}")
    elif result.error:
        print(f"error: {result.error}")
    if args.strict and result.outcome != "answered":
        return 1
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    config, prompts = _build_config(args)
    dataset = _load_dataset(args.dataset)
    backend = _backend_factory(args.backend)  # a bad spec or scripted file ends the whole call
    trajectory_dir = Path(args.trajectory_dir) if args.trajectory_dir else None
    if trajectory_dir:
        trajectory_dir.mkdir(parents=True, exist_ok=True)

    def evaluate(record: dict) -> EvalRecord:
        """One question's row; a question that cannot be set up or saved becomes an ``error`` row."""
        tools = _build_tools(args)  # a bad tool config ends the whole call
        try:
            result = run(
                record["question"],
                backend=backend(record["question_id"]),
                tools=tools,
                config=config,
                prompts=prompts,
                question_id=record["question_id"],
            )
            if trajectory_dir:
                result.trajectory.save(trajectory_dir / f"{record['question_id']}.jsonl")
        except (OSError, ValueError) as exc:
            logger.warning("question %s failed: %s", record["question_id"], exc)
            return EvalRecord(question_id=record["question_id"], outcome="error")
        return EvalRecord.from_trajectory(result.trajectory, record["answers"])

    if args.parallel > 1:
        with ThreadPoolExecutor(max_workers=args.parallel) as pool:
            records = list(pool.map(evaluate, dataset))
    else:
        records = [evaluate(record) for record in dataset]

    write_eval_report(records, args.out)
    mean_acc = sum(r.acc for r in records) / len(records) if records else 0.0
    aborted = sum(1 for r in records if r.outcome == "aborted")
    errored = sum(1 for r in records if r.outcome == "error")
    print(f"evaluated {len(records)} questions: mean ACC = {mean_acc:.4f}")
    if aborted:
        print(f"warning: {aborted} run(s) aborted")
    if errored:
        print(f"warning: {errored} question(s) failed")
    if args.strict and (aborted or errored):
        return 1
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    trajectory = Trajectory.load(args.trajectory)
    result = replay_run(trajectory)
    divergence = replay_divergence(trajectory, result.trajectory, strict=args.strict)
    if divergence:
        print(f"DIVERGED {divergence}")
        return 1
    print(f"replay ok: {len(result.trajectory.steps)} steps, outcome {result.outcome}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    gold = {
        record["question_id"]: record["answers"] for record in _load_dataset(args.gold)
    }
    trajectories = load_trajectories(args.trajectories)
    accepted, rejected = [], []
    for trajectory in trajectories:
        answers = gold.get(trajectory.question_id, [])
        decision = rft_filter(trajectory, answers)
        if decision.accepted:
            accepted.append(trajectory)
        else:
            rejected.append((trajectory.question_id, decision.reason))
    count = export_sft(accepted, args.out)
    print(
        f"exported {count} state-action pairs from {len(accepted)} accepted "
        f"trajectories ({len(rejected)} rejected)"
    )
    if not accepted:
        print("warning: no trajectories passed the rejection filter")
    for question_id, reason in rejected:
        logger.info("rejected %s: %s", question_id, reason)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    trajectories = load_trajectories(args.trajectories)
    if not trajectories:
        print("warning: no trajectories found")
    write_context_curve(context_curve(trajectories, min_runs=args.min_runs), args.curve_out)
    write_cache_ratios(trajectories, args.cache_out)
    print(f"wrote {args.curve_out} and {args.cache_out} for {len(trajectories)} run(s)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dagsearch",
        description="Structured-protocol agentic search over external LLM and search tools.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--backend", default="http", help='"http" or "scripted:<path>"')
        p.add_argument("--tools", required=True, help="tool config JSON file")
        p.add_argument("--max-turns", dest="max_turns", type=int)
        p.add_argument("--max-context-tokens", dest="max_context_tokens", type=int)
        p.add_argument("--top-k", dest="top_k", type=int)
        p.add_argument("--strict", action="store_true", help="strict protocol + nonzero exit on failures")

    p_run = sub.add_parser("run", help="answer a single question")
    add_run_options(p_run)
    p_run.add_argument("--question", "-q", required=True)
    p_run.add_argument("--question-id", default="q0001")
    p_run.add_argument("--out", help="trajectory output path (JSONL)")
    p_run.set_defaults(func=_cmd_run)

    p_eval = sub.add_parser("eval", help="batch evaluation over a JSONL dataset")
    add_run_options(p_eval)
    p_eval.add_argument("--dataset", required=True, help="JSONL of {question, answers}")
    p_eval.add_argument("--out", required=True, help="eval report CSV path")
    p_eval.add_argument("--trajectory-dir", help="directory for per-question trajectories")
    p_eval.add_argument("--parallel", type=int, default=1)
    p_eval.set_defaults(func=_cmd_eval)

    p_replay = sub.add_parser("replay", help="re-execute a recorded trajectory")
    p_replay.add_argument("--trajectory", required=True)
    p_replay.add_argument("--strict", action="store_true", help="also compare every step, not only outcome and answer")
    p_replay.set_defaults(func=_cmd_replay)

    p_export = sub.add_parser("export", help="export filtered trajectories as an SFT corpus")
    p_export.add_argument("--trajectories", required=True, help="directory of trajectory JSONL files")
    p_export.add_argument("--gold", required=True, help="JSONL of {question_id, answers}")
    p_export.add_argument("--out", required=True, help="corpus JSONL path")
    p_export.set_defaults(func=_cmd_export)

    p_stats = sub.add_parser("stats", help="context-curve and cache-ratio CSVs")
    p_stats.add_argument("--trajectories", required=True)
    p_stats.add_argument("--curve-out", default="context_curve.csv")
    p_stats.add_argument("--cache-out", default="cache_ratio.csv")
    p_stats.add_argument("--min-runs", type=int, default=3, help="flag turns with fewer runs")
    p_stats.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except (OSError, ValueError, TrajectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
