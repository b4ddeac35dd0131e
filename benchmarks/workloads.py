"""Seeded workload generators for the dagsearch benchmark.

Every generator is a pure function of ``(workload, seed, size)``: it returns
the question set, the scripted model replies, the canned tool results or the
fixture corpus, and the gold answers. The program under test only ever sees
these generated inputs, written to files by :func:`write_inputs`.

Replies are built as JSON text here, not with ``dagsearch.protocol``, so the
generator does not depend on the code it measures.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("long_horizon", "eval_batch", "revise_churn")

# Default sizes: long_horizon in tool_call/doc_extraction pairs, eval_batch
# in questions, revise_churn in plan rounds.
DEFAULT_SIZES = {"long_horizon": 80, "eval_batch": 24, "revise_churn": 8}

# Fixture corpus size for eval_batch. Search and registry build both scale
# with it, which is the cost that workload exists to expose.
EVAL_CORPUS_DOCS = 2000

_WORDS = (
    "amber basalt cedar delta ember fjord granite harbor island juniper kestrel "
    "lagoon meadow nickel orchard prairie quarry ridge summit tundra upland valley "
    "willow xenon yarrow zephyr archive canal bishop charter college duchy estate "
    "ferry guild hamlet journal keep ledger manor navigator observatory parish "
    "quay register strait tower university voyage wharf café münchen 北京 1843 2024"
).split()


@dataclass(frozen=True)
class Question:
    """One scripted question: replies in serving order plus the expected run."""

    question_id: str
    question: str
    gold: str
    replies: tuple[str, ...]
    malformed: tuple[bool, ...]  # per reply: True when it must be rejected
    tool_results: tuple[dict, ...] = ()  # ToolResult dicts, in call order
    hits: tuple[str, ...] = ()  # per tool call: the source id ranked first

    @property
    def steps(self) -> int:
        """Accepted replies, i.e. trajectory steps (planning included)."""
        return self.malformed.count(False)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    size: int
    questions: tuple[Question, ...]
    corpus: tuple[dict, ...] = field(default=())  # eval_batch only

    @property
    def malformed_replies(self) -> int:
        return sum(q.malformed.count(True) for q in self.questions)


def _rng(workload: str, seed: int, size: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{size}")


def words(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(n))


def block(kind: str, payload: dict) -> str:
    return f"<{kind}>{json.dumps(payload, ensure_ascii=False)}</{kind}>"


def _reply(rng: random.Random, kind: str, payload: dict) -> str:
    """A valid reply: a short free-text preamble, then one action block."""
    return f"{words(rng, rng.randint(3, 8)).capitalize()}.\n{block(kind, payload)}"


def _planning(rng: random.Random, tasks: list[dict], edges: list[list[str]]) -> list[str]:
    intent = {
        "refined_goal": words(rng, 14),
        "constraints": [words(rng, 6) for _ in range(2)],
    }
    return [
        _reply(rng, "intent_refinement", intent),
        _reply(rng, "problem_framing", {"tasks": tasks, "edges": edges}),
    ]


def _year(rng: random.Random) -> str:
    return str(rng.randint(1100, 1999))


# ---------------------------------------------------------------------------
# long_horizon: one question, a task chain, many tool/extract pairs
# ---------------------------------------------------------------------------


def long_horizon_questions(rng: random.Random, pairs: int, n_tasks: int = 4) -> tuple[Question, ...]:
    """One question over a chain of ``n_tasks`` tasks; ``pairs`` call/extract pairs in all."""
    task_ids = [f"t{i + 1}" for i in range(n_tasks)]
    tasks = [{"task_id": tid, "description": words(rng, 8)} for tid in task_ids]
    edges = [[a, b] for a, b in zip(task_ids, task_ids[1:])]
    replies = _planning(rng, tasks, edges)
    results: list[dict] = []
    gold = _year(rng)
    for k, tid in enumerate(task_ids):
        share = pairs // n_tasks + (1 if k < pairs % n_tasks else 0)
        for _ in range(share):
            call = len(results) + 1
            docs = [
                {"source_id": f"lh:{call:04d}{suffix}", "title": words(rng, 3), "text": words(rng, n)}
                for suffix, n in (("a", 167), ("b", 167), ("c", 166))
            ]
            results.append({"documents": docs, "raw": None})
            replies.append(
                _reply(
                    rng,
                    "tool_call",
                    {"task_id": tid, "tool_name": "search", "arguments": {"query": words(rng, 6)}},
                )
            )
            replies.append(
                _reply(
                    rng,
                    "doc_extraction",
                    {
                        "task_id": tid,
                        "facts": [words(rng, 25), words(rng, 25)],
                        "source_ids": [docs[0]["source_id"], docs[1]["source_id"]],
                    },
                )
            )
        answer = gold if tid == task_ids[-1] else words(rng, 5)
        replies.append(_reply(rng, "task_answer", {"answers": [{"task_id": tid, "answer": answer}]}))
    replies.append(_reply(rng, "final_answer", {"answer": gold}))
    question = Question(
        question_id="lh-0001",
        question=f"In which year was the {words(rng, 10)} founded?",
        gold=gold,
        replies=tuple(replies),
        malformed=(False,) * len(replies),
        tool_results=tuple(results),
    )
    return (question,)


# ---------------------------------------------------------------------------
# eval_batch: many two-hop questions against a generated fixture corpus
# ---------------------------------------------------------------------------


def _eval_batch(rng: random.Random, n_questions: int) -> tuple[tuple[Question, ...], tuple[dict, ...]]:
    gold_docs: list[dict] = []
    questions = []
    for q in range(1, n_questions + 1):
        qid = f"eb-{q:04d}"
        gold = _year(rng)
        bridge = words(rng, 2)
        tasks = [
            {"task_id": "t1", "description": f"Identify the {words(rng, 5)}"},
            {"task_id": "t2", "description": f"Find the founding year of the {words(rng, 4)}"},
        ]
        replies = _planning(rng, tasks, [["t1", "t2"]])
        hits = []
        for hop, tid in ((1, "t1"), (2, "t2")):
            # A key token only this document carries, plus query words it also
            # contains, so keyword search must rank it first.
            key = f"k{q:04d}h{hop}"
            query_words = words(rng, 3)
            source_id = f"fix:{q:04d}-{hop}"
            answer = gold if hop == 2 else bridge
            text = f"{key} {query_words} {words(rng, 30)} {answer} {words(rng, 20)}"
            gold_docs.append({"source_id": source_id, "title": words(rng, 3), "text": text})
            hits.append(source_id)
            replies.append(
                _reply(
                    rng,
                    "tool_call",
                    {"task_id": tid, "tool_name": "search", "arguments": {"query": f"{key} {query_words}"}},
                )
            )
            replies.append(
                _reply(
                    rng,
                    "doc_extraction",
                    {"task_id": tid, "facts": [f"{words(rng, 12)} {answer}"], "source_ids": [source_id]},
                )
            )
            replies.append(_reply(rng, "task_answer", {"answers": [{"task_id": tid, "answer": answer}]}))
        replies.append(_reply(rng, "final_answer", {"answer": gold}))
        questions.append(
            Question(
                question_id=qid,
                question=f"In which year was the {words(rng, 6)} of the {words(rng, 4)} founded?",
                gold=gold,
                replies=tuple(replies),
                malformed=(False,) * len(replies),
                hits=tuple(hits),
            )
        )
    filler = [
        {"source_id": f"fix:f{i:05d}", "title": words(rng, 3), "text": words(rng, rng.randint(40, 80))}
        for i in range(max(EVAL_CORPUS_DOCS - len(gold_docs), 0))
    ]
    corpus = gold_docs + filler
    rng.shuffle(corpus)
    return tuple(questions), tuple(corpus)


# ---------------------------------------------------------------------------
# revise_churn: wide plans, revisits, replanning rounds, malformed replies
# ---------------------------------------------------------------------------

# Layer sizes of each round's 12-task plan: roots, middles, sinks.
_CHURN_LAYERS = (4, 5, 3)
MALFORMED_RATE = 1 / 15
MALFORMED_MODES = ("truncate", "unknown_tag", "extra_field", "strip_tags", "duplicate", "array_payload")


def _wide_plan(rng: random.Random, round_no: int) -> tuple[list[dict], list[list[str]], list[list[str]]]:
    """Tasks, edges and task-id layers of one 12-task DAG (edges point down a layer)."""
    layers, n = [], 0
    for width in _CHURN_LAYERS:
        layers.append([f"r{round_no}t{n + i + 1:02d}" for i in range(width)])
        n += width
    tasks = [{"task_id": tid, "description": words(rng, 7)} for layer in layers for tid in layer]
    edges = []
    for upper, lower in zip(layers, layers[1:]):
        for tid in lower:
            for src in sorted(rng.sample(upper, 2)):
                edges.append([src, tid])
    return tasks, edges, layers


def malform(rng: random.Random, reply: str, mode: str) -> str:
    """Corrupt a valid reply so the action parser must reject it."""
    start = reply.index("<")
    preamble, action = reply[:start], reply[start:]
    tag = action[1 : action.index(">")]
    body = action[len(tag) + 2 : -(len(tag) + 3)]
    if mode == "truncate":
        return preamble + action[: len(tag) + 2 + rng.randrange(1, len(body))]
    if mode == "unknown_tag":
        return f"{preamble}<conjecture>{body}</conjecture>"
    if mode == "extra_field":
        payload = json.loads(body)
        payload["confidence"] = "high"
        return preamble + block(tag, payload)
    if mode == "strip_tags":
        return preamble + body
    if mode == "duplicate":
        return f"{preamble}{action}\n{action}"
    if mode == "array_payload":
        return f"{preamble}<{tag}>[1, 2, 3]</{tag}>"
    raise ValueError(f"unknown malformation mode {mode!r}")


def _revise_churn(rng: random.Random, rounds: int) -> tuple[Question, ...]:
    gold = _year(rng)
    tasks, edges, layers = _wide_plan(rng, 0)
    valid = _planning(rng, tasks, edges)
    results: list[dict] = []

    def solve_task(tid: str) -> None:
        call = len(results) + 1
        docs = [
            {"source_id": f"rc:{call:04d}{s}", "title": words(rng, 3), "text": words(rng, 60)}
            for s in "ab"
        ]
        results.append({"documents": docs, "raw": None})
        valid.append(
            _reply(
                rng,
                "tool_call",
                {"task_id": tid, "tool_name": "search", "arguments": {"query": words(rng, 5)}},
            )
        )
        valid.append(
            _reply(
                rng,
                "doc_extraction",
                {"task_id": tid, "facts": [words(rng, 20)], "source_ids": [docs[0]["source_id"]]},
            )
        )

    for round_no in range(rounds):
        last = round_no == rounds - 1
        order = [tid for layer in layers for tid in layer]
        for tid in order:
            solve_task(tid)
            answer = gold if last and tid == order[-1] else words(rng, 4)
            valid.append(_reply(rng, "task_answer", {"answers": [{"task_id": tid, "answer": answer}]}))
        # Revisit a root: it and every task downstream of it go back to pending.
        root = rng.choice(layers[0])
        below = {root}
        for src, dst in edges:  # edges are listed layer by layer, so one pass closes them
            if src in below:
                below.add(dst)
        valid.append(_reply(rng, "revisit_task", {"task_id": root, "reason": words(rng, 8)}))
        solve_task(root)
        redo = [tid for tid in order if tid in below]
        answers = [
            {"task_id": tid, "answer": gold if last and tid == order[-1] else words(rng, 4)}
            for tid in redo
        ]
        valid.append(_reply(rng, "task_answer", {"answers": answers}))
        if last:
            valid.append(_reply(rng, "final_answer", {"answer": gold}))
        else:
            tasks, edges, layers = _wide_plan(rng, round_no + 1)
            valid.append(
                _reply(rng, "replanning", {"reason": words(rng, 8), "tasks": tasks, "edges": edges})
            )

    replies, malformed = [], []
    for i, reply in enumerate(valid):
        # Only solving replies are corrupted, never two in a row.
        if i >= 2 and rng.random() < MALFORMED_RATE:
            replies.append(malform(rng, reply, rng.choice(MALFORMED_MODES)))
            malformed.append(True)
        replies.append(reply)
        malformed.append(False)
    question = Question(
        question_id="rc-0001",
        question=f"Which year links the {words(rng, 8)} to the {words(rng, 4)}?",
        gold=gold,
        replies=tuple(replies),
        malformed=tuple(malformed),
        tool_results=tuple(results),
    )
    return (question,)


def generate(workload: str, seed: int, size: int | None = None) -> Workload:
    """The inputs of one workload; equal arguments give equal inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    size = DEFAULT_SIZES[workload] if size is None else size
    if size <= 0:
        raise ValueError("size must be positive")
    rng = _rng(workload, seed, size)
    corpus: tuple[dict, ...] = ()
    if workload == "long_horizon":
        questions = long_horizon_questions(rng, size)
    elif workload == "eval_batch":
        questions, corpus = _eval_batch(rng, size)
    else:
        questions = _revise_churn(rng, size)
    return Workload(name=workload, seed=seed, size=size, questions=questions, corpus=corpus)


def write_inputs(workload: Workload, directory: Path) -> dict[str, Path]:
    """Write the files the program reads; returns their paths by role.

    ``dataset`` is the gold JSONL (the ``eval``/``export`` format) and
    ``backend`` the replies in the ``scripted:`` backend format. A workload
    with a corpus also gets ``tools``, the fixture tool config; the others
    hand their canned tool results to ``ScriptedTool`` in memory.
    """
    directory.mkdir(parents=True, exist_ok=True)
    paths = {"dataset": directory / "dataset.jsonl", "backend": directory / "replies.json"}
    with open(paths["dataset"], "w", encoding="utf-8") as handle:
        for q in workload.questions:
            record = {"question_id": q.question_id, "question": q.question, "answers": [q.gold]}
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
    by_question = {q.question_id: list(q.replies) for q in workload.questions}
    paths["backend"].write_text(json.dumps({"by_question": by_question}, ensure_ascii=False), encoding="utf-8")
    if workload.corpus:
        corpus_path = directory / "corpus.jsonl"
        with open(corpus_path, "w", encoding="utf-8") as handle:
            for doc in workload.corpus:
                handle.write(json.dumps(doc, ensure_ascii=False) + "\n")
        tools = {"tools": [{"name": "search", "kind": "fixture", "corpus": corpus_path.name, "top_k": 3}]}
        paths["tools"] = directory / "tools.json"
        paths["tools"].write_text(json.dumps(tools, ensure_ascii=False), encoding="utf-8")
    return paths
