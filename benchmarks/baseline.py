"""Reproduce the hand-taken baseline quoted in ROADMAP.md, at small size.

The ROADMAP figures came from a one-off script: single-task runs of N
tool_call/doc_extraction pairs (22, 82 and 322 solving turns; 164 steps at
N = 80) and the 20-turn three-hop fixture. This rebuilds the same shapes
from the benchmark's own generators and prints each figure beside the
quoted one, so drift shows. Each figure is one run, not a median.
"""

from __future__ import annotations

import random
import shutil
import time
from pathlib import Path

from dagsearch.backend import ScriptedBackend
from dagsearch.engine import PromptPack, RunConfig, replay_run, run
from dagsearch.tools import ScriptedTool, ToolRegistry, ToolResult, search_spec
from dagsearch.trajectory import Trajectory, step_cache_ratios

from workloads import Question, block, long_horizon_questions, words

# Figure name -> value quoted in ROADMAP.md ("Recent").
ROADMAP = {
    "solve ms/turn at 22 turns": 4.0,
    "solve ms/turn at 82 turns": 6.2,
    "solve ms/turn at 322 turns": 17.2,
    "20-turn fixture ms/run": 78.0,
    "164-step trajectory MB": 4.0,
    "164-step strict replay s": 1.5,
    "164-step cache ratios s": 0.58,
    "20-turn cache ratio, turns 5-20": 0.826,
}

# The 20-turn fixture's schedule: solving turn -> task of each action.
_CALLS = {1: "t1", 3: "t1", 6: "t2", 8: "t2", 11: "t3", 13: "t3", 15: "t3", 17: "t3"}
_ANSWERS = {5: "t1", 10: "t2", 19: "t3"}


def twenty_turn(seed: int = 2024) -> Question:
    """Three chained tasks; 500-token tool outputs condensed to 50-token facts."""
    rng = random.Random(f"twenty_turn:{seed}")
    tasks = [{"task_id": f"t{i}", "description": words(rng, 7)} for i in (1, 2, 3)]
    replies = [
        block("intent_refinement", {"refined_goal": words(rng, 16), "constraints": [words(rng, 4), words(rng, 6)]}),
        block("problem_framing", {"tasks": tasks, "edges": [["t1", "t2"], ["t2", "t3"]]}),
    ]
    results = []
    gold = "1877"
    for turn in range(1, 21):
        if turn in _CALLS:
            call = len(results) + 1
            docs = [
                {"source_id": f"syn:{call:02d}{s}", "title": f"Synthetic record {call:02d}{s}", "text": words(rng, n)}
                for s, n in (("a", 167), ("b", 167), ("c", 166))
            ]
            results.append({"documents": docs, "raw": None})
            payload = {"task_id": _CALLS[turn], "tool_name": "search", "arguments": {"query": words(rng, 6)}}
            replies.append(block("tool_call", payload))
        elif turn - 1 in _CALLS:
            call = len(results)
            payload = {
                "task_id": _CALLS[turn - 1],
                "facts": [words(rng, 50)],
                "source_ids": [f"syn:{call:02d}a", f"syn:{call:02d}b"],
            }
            replies.append(block("doc_extraction", payload))
        elif turn in _ANSWERS:
            answer = gold if turn == 19 else words(rng, 9)
            replies.append(block("task_answer", {"answers": [{"task_id": _ANSWERS[turn], "answer": answer}]}))
        else:
            replies.append(block("final_answer", {"answer": gold}))
    return Question(
        question_id="twenty-turn",
        question=f"Which year was the {words(rng, 14)} founded?",
        gold=gold,
        replies=tuple(replies),
        malformed=(False,) * len(replies),
        tool_results=tuple(results),
    )


def _single_task_run(pairs: int) -> Question:
    return long_horizon_questions(random.Random(f"baseline:{pairs}"), pairs, n_tasks=1)[0]


def _run(question: Question, prompts: PromptPack) -> tuple[Trajectory, float]:
    tools = ToolRegistry().register(
        search_spec("search", "Scripted search results."),
        ScriptedTool(results=[ToolResult.from_dict(r) for r in question.tool_results]),
    )
    started = time.perf_counter()
    result = run(
        question.question,
        backend=ScriptedBackend(responses=question.replies),
        tools=tools,
        config=RunConfig(max_turns=2000),
        prompts=prompts,
        question_id=question.question_id,
    )
    elapsed = time.perf_counter() - started
    if result.outcome != "answered" or result.answer != question.gold:
        raise SystemExit(f"baseline run {question.question_id} ended {result.outcome}: {result.error}")
    return result.trajectory, elapsed


def reproduce(workdir: Path) -> None:
    prompts = PromptPack.load_default()
    now: dict[str, float] = {}
    for pairs in (10, 40, 160):
        trajectory, elapsed = _run(_single_task_run(pairs), prompts)
        turns = len(trajectory.solving_steps())
        now[f"solve ms/turn at {turns} turns"] = elapsed * 1e3 / turns

    trajectory, elapsed = _run(twenty_turn(), prompts)
    now["20-turn fixture ms/run"] = elapsed * 1e3
    ratios = step_cache_ratios(trajectory)  # ratios[0] is turn 2
    now["20-turn cache ratio, turns 5-20"] = sum(ratios[3:]) / len(ratios[3:])

    workdir.mkdir(parents=True, exist_ok=True)
    try:
        trajectory, _ = _run(_single_task_run(80), prompts)
        path = workdir / "run164.jsonl"
        trajectory.save(path)
        now[f"{len(trajectory.steps)}-step trajectory MB"] = path.stat().st_size / 1e6
        started = time.perf_counter()
        replayed = replay_run(Trajectory.load(path), strict=True)
        now[f"{len(trajectory.steps)}-step strict replay s"] = time.perf_counter() - started
        if replayed.outcome != "answered" or replayed.error is not None:
            raise SystemExit(f"baseline strict replay ended {replayed.outcome}: {replayed.error}")
        started = time.perf_counter()
        step_cache_ratios(trajectory)
        now[f"{len(trajectory.steps)}-step cache ratios s"] = time.perf_counter() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{'figure':36s} {'ROADMAP':>9s} {'now':>9s} {'now/ROADMAP':>12s}")
    for name, value in now.items():
        quoted = ROADMAP.get(name)
        if quoted is None:
            print(f"{name:36s} {'-':>9s} {value:9.3f} {'-':>12s}")
        else:
            print(f"{name:36s} {quoted:9.3f} {value:9.3f} {value / quoted:12.2f}")
