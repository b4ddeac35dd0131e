"""Operator surface: single runs, batch eval, replay, corpus export, stats."""

from __future__ import annotations

import argparse
import logging
import sys
import threading
from dataclasses import replace
from pathlib import Path
from typing import Callable

from .backend import Backend, ScriptedBackend
from .engine import PromptPack, replay_divergence, replay_run, run
from .tools import InputError, ToolRegistry, build_registry, check_fields, check_strings, located, read_json
from .trajectory import (
    EvalRecord,
    RunConfig,
    Trajectory,
    check_prompts,
    export_sft,
    load_trajectories,
    rft_filter,
    write_eval_report,
    write_stats,
)

logger = logging.getLogger(__name__)


def _load_json(path: str) -> dict:
    """The object a JSON file holds; see ``read_json``."""
    return next(read_json(path, lines=False))[1]


def _check_question(record: dict) -> None:
    check_fields(record, {"question": (str,), "answers": (list,)})
    check_fields(record, {"question_id": (str,)}, optional=True)
    check_strings(record, "answers")
    question_id = record.get("question_id")
    if question_id is not None and (question_id in ("", ".", "..") or not {"/", "\\", "\0"}.isdisjoint(question_id)):
        problem = "it is '', '.' or '..', or holds '/', '\\' or NUL"
        raise InputError(f"question_id {question_id!r} cannot name a file: {problem}")


def _load_dataset(path: str) -> list[dict]:
    """JSONL of {question, answers: [...], question_id?} records; a malformed one stops a batch before it runs.

    A record without a ``question_id`` gets ``q<line>``. The id names the
    question's trajectory file, so it must be one path component, and an id
    equal to an earlier record's up to case is an InputError: no trajectory
    overwrites another, on a case-insensitive file system too.
    """
    dataset, seen = [], {}
    for number, record in read_json(path, _check_question):
        record = {"question_id": f"q{number:04d}", **record}
        question_id = record["question_id"]
        first, earlier = seen.setdefault(question_id.casefold(), (number, question_id))
        if first != number:
            case = "" if earlier == question_id else f' ("{earlier}") up to case'
            with located(path, number):
                raise InputError(f'question_id "{question_id}" repeats line {first}{case}')
        dataset.append(record)
    return dataset


def _build_config(args: argparse.Namespace) -> tuple[RunConfig, PromptPack]:
    """The run config and prompt pack, from one read of ``--config``; a flag that is given overrides the file.

    The file's run settings must be valid even where a flag overrides them.
    """
    data = _load_json(args.config) if args.config else {}
    flags = {name: getattr(args, name) for name in ("max_turns", "max_context_tokens")}
    flags["strict_protocol"] = args.strict or None
    with located(args.config):
        unknown = sorted(data.keys() - {"run", "prompts"})
        if unknown:
            raise InputError(f'unknown key "{unknown[0]}": a run config holds only "run" and "prompts"')
        check_fields(data, {"run": (dict,), "prompts": (dict,)}, optional=True)
        prompts = data.get("prompts")
        if prompts is not None:
            check_fields(prompts, {"holistic": (str,), "solving": (str,)}, optional=True)
            check_prompts(prompts)
        config = RunConfig.from_dict(data.get("run", {}))
    config = replace(config, **{name: value for name, value in flags.items() if value is not None})
    if prompts is not None:
        base = Path(args.config).parent
        pack = PromptPack.load(str(base / prompts["holistic"]), str(base / prompts["solving"]))
    else:
        pack = PromptPack.load_default()
    return config, pack


def _backend_factory(spec: str) -> Callable[[str], Backend]:
    """A backend per question id, from a ``--backend`` spec read once.

    The spec is ``http`` or ``scripted:<path.json>``. ``http`` gives every
    question one chat backend, which keeps no per-run state, so --parallel
    threads share it. A scripted file holds either {"responses": [...]},
    for any question, or {"by_question": {question_id: [...]}} for batch
    eval fixtures, each reply a string; each question gets a fresh backend.
    An unknown spec, an unset chat endpoint or a malformed scripted file
    raises here, before any question runs; a question missing from
    ``by_question`` raises when its backend is built.
    """
    if spec == "http":
        from .remote import HttpChatBackend  # only --backend http loads the HTTP clients

        chat = HttpChatBackend()
        return lambda question_id: chat
    if not spec.startswith("scripted:"):
        raise ValueError(f'unknown backend spec "{spec}" (use "http" or "scripted:<path>")')
    path = spec.split(":", 1)[1]
    data = _load_json(path)
    shared = "by_question" not in data
    with located(path):
        check_fields(data, {"responses": (list,)} if shared else {"by_question": (dict,)})
        replies = {"responses": data["responses"]} if shared else data["by_question"]
        check_fields(replies, dict.fromkeys(replies, (list,)))
        for key in replies:
            check_strings(replies, key)

    def scripted(question_id: str) -> Backend:
        responses = replies.get("responses" if shared else question_id)
        if responses is None:
            raise ValueError(f'scripted backend has no responses for "{question_id}"')
        return ScriptedBackend(responses=responses)

    return scripted


def _tools_factory(args: argparse.Namespace) -> Callable[[dict | None], ToolRegistry]:
    """A fresh tool registry per call, built from a ``--tools`` config read and checked once.

    A malformed config raises here, before any question runs; an entry that
    ``build_registry`` rejects raises, naming the config, when a registry is
    built. A call's ``fixtures`` goes to ``build_registry``; the lock makes
    threads that miss a corpus there at once read and index it once.
    """
    config = _load_json(args.tools)
    with located(args.tools):
        check_fields(config, {"tools": (list,)})
    lock = threading.Lock()

    def build(fixtures: dict | None = None) -> ToolRegistry:
        with lock, located(args.tools):
            return build_registry(
                config["tools"], base_dir=Path(args.tools).parent, top_k=args.top_k, fixtures=fixtures
            )

    return build


def _check_flags(args: argparse.Namespace) -> None:
    """Reject, before any file is read, a ``--parallel`` or ``--top-k`` below 1 and an output that cannot be written.

    An output (``--out``, ``--curve-out`` or ``--cache-out``) cannot be written when it is a directory or in none,
    and ``stats``'s two cannot be written to one file.
    """
    if getattr(args, "parallel", 1) < 1:
        raise ValueError(f"--parallel must be at least 1, not {args.parallel}")
    if getattr(args, "top_k", None) is not None and args.top_k < 1:
        raise ValueError(f"--top-k must be at least 1, not {args.top_k}")
    for name in ("out", "curve_out", "cache_out"):
        if getattr(args, name, None) is not None:
            flag, out = f"--{name.replace('_', '-')}", Path(getattr(args, name))
            if out.is_dir():
                raise ValueError(f"{flag} {out} is a directory")
            if not out.parent.is_dir():
                raise ValueError(f"{flag} {out}: {out.parent} is not a directory")
    if args.command == "stats" and Path(args.curve_out).resolve() == Path(args.cache_out).resolve():
        raise ValueError(f"--curve-out {args.curve_out} and --cache-out {args.cache_out} name the same file")


def _cmd_run(args: argparse.Namespace) -> int:
    config, prompts = _build_config(args)
    result = run(
        args.question,
        backend=_backend_factory(args.backend)(args.question_id),
        tools=_tools_factory(args)(),
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
    build_tools = _tools_factory(args)  # so does a bad tool config
    trajectory_dir = Path(args.trajectory_dir) if args.trajectory_dir else None
    if trajectory_dir:
        trajectory_dir.mkdir(parents=True, exist_ok=True)
    # This call's fixture tools: each corpus is read and indexed once, and
    # freed when the call returns. The tools keep no per-query state, so
    # --parallel threads share them.
    fixtures: dict = {}

    def evaluate(record: dict) -> EvalRecord:
        """One question's row; a question that cannot be set up or saved becomes an ``error`` row."""
        tools = build_tools(fixtures)  # a tool entry build_registry rejects ends the whole call
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
        from concurrent.futures import ThreadPoolExecutor

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
    reasons = []  # (question_id, rejection reason or None), one per trajectory

    def accepted(trajectory: Trajectory) -> bool:
        reason = rft_filter(trajectory, gold.get(trajectory.question_id, []))
        reasons.append((trajectory.question_id, reason))
        return reason is None

    count = export_sft(filter(accepted, load_trajectories(args.trajectories)), args.out)
    rejected = [(question_id, reason) for question_id, reason in reasons if reason]
    kept = len(reasons) - len(rejected)
    print(
        f"exported {count} state-action pairs from {kept} accepted "
        f"trajectories ({len(rejected)} rejected)"
    )
    if not kept:
        print("warning: no trajectories passed the rejection filter")
    for question_id, reason in rejected:
        logger.info("rejected %s: %s", question_id, reason)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    runs = write_stats(load_trajectories(args.trajectories), args.curve_out, args.cache_out, args.min_runs)
    if not runs:
        print("warning: no trajectories found")
    print(f"wrote {args.curve_out} and {args.cache_out} for {runs} run(s)")
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
    p_export.add_argument("--gold", required=True, help="JSONL of {question_id, question, answers}")
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
        _check_flags(args)
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
