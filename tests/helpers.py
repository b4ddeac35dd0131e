"""Shared fixtures: action generators, mutations, and scripted runs."""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

from dagsearch.backend import CompletionRequest, ScriptedBackend
from dagsearch.engine import PromptPack, RunConfig, RunResult, run
from dagsearch.plan import DagPlan, build_plan
from dagsearch.protocol import Action, ActionKind, canonical_json, validate_payload
from dagsearch.tools import Document, ScriptedTool, ToolRegistry, ToolResult, search_spec

DATA_DIR = Path(__file__).parent / "data"

WORDS = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima "
    "mike november oscar papa quebec romeo sierra tango uniform victor whiskey "
    "xray yankee zulu café münchen 北京 2024"
).split()


def completion(text: str, system_lines: int = 0) -> CompletionRequest:
    """A request for ``text``'s lines, the first ``system_lines`` the prompt's, decoded as ``RunConfig`` sets."""
    config = RunConfig()
    return CompletionRequest(tuple(text.split("\n")), system_lines, config.max_output_tokens, config.temperature)


def words(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(n))


def brute_force_search(corpus, query, top_k):
    """Score every document against the query, then sort: the reference ranking."""
    query_tokens = set(query.lower().split())
    scored = []
    for doc in corpus:
        doc_tokens = set(f"{doc.title} {doc.text}".lower().split())
        scored.append((-len(query_tokens & doc_tokens), doc.source_id, doc))
    scored.sort(key=lambda item: (item[0], item[1]))
    return [doc for _, _, doc in scored[:top_k]]


def acc_oracle(predicted, gold_set):
    """The reference ACC: 1 iff some normalized gold answer's tokens are a contiguous run of the prediction's."""
    from dagsearch.trajectory import normalize_answer

    tokens = normalize_answer(predicted).split()
    for gold in gold_set:
        run = normalize_answer(gold).split()
        if run and any(tokens[start : start + len(run)] == run for start in range(len(tokens) - len(run) + 1)):
            return 1
    return 0


def fixed_clock():
    """A deterministic clock: 0.0, 1.0, 2.0, ... per call."""
    state = {"t": -1.0}

    def clock() -> float:
        state["t"] += 1.0
        return state["t"]

    return clock


# ---------------------------------------------------------------------------
# Random valid actions
# ---------------------------------------------------------------------------


def _random_dag_fields(rng: random.Random) -> dict:
    n = rng.randint(1, 6)
    ids = [f"t{i + 1}" for i in range(n)]
    tasks = [{"task_id": tid, "description": words(rng, rng.randint(2, 8))} for tid in ids]
    edges = [
        [ids[i], ids[j]]
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.35
    ]
    return {"tasks": tasks, "edges": edges}


def random_payload(rng: random.Random, kind: ActionKind) -> dict:
    if kind is ActionKind.INTENT_REFINEMENT:
        return {
            "refined_goal": words(rng, rng.randint(1, 12)),
            "constraints": [words(rng, rng.randint(1, 6)) for _ in range(rng.randint(0, 4))],
        }
    if kind in (ActionKind.PROBLEM_FRAMING, ActionKind.REPLANNING):
        payload = _random_dag_fields(rng)
        if kind is ActionKind.REPLANNING:
            payload["reason"] = words(rng, rng.randint(1, 8))
        return payload
    if kind is ActionKind.TOOL_CALL:
        arguments: dict = {"query": words(rng, rng.randint(1, 8))}
        if rng.random() < 0.3:
            arguments["filters"] = {"year": rng.randint(1900, 2024), "exact": rng.random() < 0.5}
        return {
            "task_id": f"t{rng.randint(1, 6)}",
            "tool_name": rng.choice(["search", "wiki", "dense_retriever"]),
            "arguments": arguments,
        }
    if kind is ActionKind.DOC_EXTRACTION:
        return {
            "task_id": f"t{rng.randint(1, 6)}",
            "facts": [words(rng, rng.randint(2, 10)) for _ in range(rng.randint(0, 4))],
            "source_ids": [f"search:{rng.randrange(16**8):08x}" for _ in range(rng.randint(0, 3))],
        }
    if kind is ActionKind.TASK_ANSWER:
        n = rng.randint(1, 3)
        ids = rng.sample([f"t{i + 1}" for i in range(6)], n)
        return {"answers": [{"task_id": tid, "answer": words(rng, rng.randint(1, 6))} for tid in ids]}
    if kind is ActionKind.FINAL_ANSWER:
        return {"answer": words(rng, rng.randint(0, 10))}
    if kind is ActionKind.REVISIT_TASK:
        return {"task_id": f"t{rng.randint(1, 6)}", "reason": words(rng, rng.randint(1, 8))}
    raise AssertionError(kind)


def make_action(kind: ActionKind, payload: dict) -> Action:
    """A validated action whose surface form is the canonical block."""
    validate_payload(kind, payload)
    return Action(kind=kind, payload=payload, raw_text=f"<{kind.value}>{canonical_json(payload)}</{kind.value}>")


def make_plan(pairs, edges, plan_id: int = 0) -> DagPlan:
    """``build_plan`` over ``(task_id, description)`` pairs, written as the framing payload's task objects."""
    return build_plan([{"task_id": tid, "description": description} for tid, description in pairs], edges, plan_id)


def random_action(rng: random.Random, kind: ActionKind | None = None) -> Action:
    kind = kind or rng.choice(list(ActionKind))
    return make_action(kind, random_payload(rng, kind))


# ---------------------------------------------------------------------------
# Payload cases for the golden diagnostics
# ---------------------------------------------------------------------------

_DAG = {
    "tasks": [{"task_id": "t1", "description": "first"}, {"task_id": "t2", "description": ""}],
    "edges": [["t1", "t2"]],
}
# One small valid payload per kind; every case below mutates one of them.
BASE_PAYLOADS = {
    ActionKind.INTENT_REFINEMENT: {"refined_goal": "find x", "constraints": ["a", "b c"]},
    ActionKind.PROBLEM_FRAMING: _DAG,
    ActionKind.TOOL_CALL: {"task_id": "t1", "tool_name": "search", "arguments": {"query": "x"}},
    ActionKind.DOC_EXTRACTION: {"task_id": "t1", "facts": ["f"], "source_ids": ["s:1"]},
    ActionKind.TASK_ANSWER: {"answers": [{"task_id": "t1", "answer": "a"}, {"task_id": "t2", "answer": ""}]},
    ActionKind.FINAL_ANSWER: {"answer": "Paris"},
    ActionKind.REVISIT_TASK: {"task_id": "t2", "reason": "r"},
    ActionKind.REPLANNING: {"reason": "r", **_DAG},
}
# One value of each JSON type, and strings that are empty or hold whitespace.
_SWAPS = [None, True, 7, 1.5, "text", [1], {"key": "value"}, [], {}]
_STRINGS = ["", " ", "\t", "a b", " t1", "t1\n", "\u3000"]


def _json_paths(value, path=()):
    """The path of every object member and array item inside a JSON value."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield path + (key,)
        yield from _json_paths(item, path + (key,))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


def _replaced(value, path, new):
    """A copy of ``value`` that holds ``new`` at ``path``."""
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


def _without(value, key):
    return {k: v for k, v in value.items() if k != key} if isinstance(value, dict) else value[:key] + value[key + 1 :]


def payload_cases() -> list[tuple[ActionKind, object]]:
    """A fixed set of (kind, payload) pairs, valid and invalid, for every kind.

    Per kind: seeded random valid payloads; payloads that are not objects;
    every kind's base payload; the base with its fields reversed; and, at
    every member and item of the base payload, a drop, a swap to a value of
    each JSON type, strings that are empty or hold whitespace, and, in each
    object, extra fields, also beside a missing one.
    ``data/payload_diagnostics.jsonl`` records each case's diagnostic.
    """
    rng = random.Random(2020)
    cases: list[tuple[ActionKind, object]] = []
    for kind, base in BASE_PAYLOADS.items():
        cases += [(kind, random_payload(rng, kind)) for _ in range(3)]
        cases += [(kind, value) for value in (None, "text", 7, [], [base], {}, dict(reversed(base.items())))]
        cases += [(kind, other) for other in BASE_PAYLOADS.values()]
        for path in [(), *_json_paths(base)]:
            node = _at(base, path)
            if path:
                cases.append((kind, _replaced(base, path[:-1], _without(_at(base, path[:-1]), path[-1]))))
                cases += [(kind, _replaced(base, path, value)) for value in _SWAPS + _STRINGS]
            if isinstance(node, dict):
                extras = [{**node, "unexpected_extra": True}, {"unexpected_extra": True, "zz_extra": 1, **node}]
                extras.append({**_without(node, next(iter(node))), "unexpected_extra": True})
                cases += [(kind, _replaced(base, path, extra)) for extra in extras]
    return cases


# ---------------------------------------------------------------------------
# Guaranteed-invalid mutations
# ---------------------------------------------------------------------------

MUTATION_MODES = (
    "truncate",
    "unknown_tag",
    "extra_field",
    "duplicate",
    "strip_tags",
    "array_payload",
)


def mutate_action(rng: random.Random, action: Action, mode: str | None = None):
    """Return (text, a fragment of its expected diagnostic) for a corrupted action block.

    Every mode raises a ProtocolError; the fragment tells the modes apart.
    """
    mode = mode or rng.choice(MUTATION_MODES)
    text = action.raw_text
    tag = action.kind.value
    if mode == "truncate":
        first = text.index("{")
        last = text.rindex("}")
        cut = rng.randrange(first + 1, last + 1)
        return text[:cut], "payload is not well-formed JSON"
    if mode == "unknown_tag":
        mutated = text.replace(f"<{tag}>", "<conjecture>").replace(f"</{tag}>", "</conjecture>")
        return mutated, "is not a legal action"
    if mode == "extra_field":
        payload = dict(action.payload)
        payload["unexpected_extra"] = True
        body = json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
        return f"<{tag}>{body}</{tag}>", 'payload invalid: unexpected field "unexpected_extra"'
    if mode == "duplicate":
        return f"{text}\n{text}", "found 2 action blocks"
    if mode == "strip_tags":
        first = text.index("{")
        last = text.rindex("}")
        return text[first : last + 1], "no action block found"
    if mode == "array_payload":
        return f"<{tag}>[1,2,3]</{tag}>", f"payload between <{tag}> and </{tag}> must be a single JSON object"
    raise AssertionError(mode)


# ---------------------------------------------------------------------------
# Random DAGs for the plan oracle
# ---------------------------------------------------------------------------


def random_dag(rng: random.Random, n: int, p: float):
    """Acyclic by construction: edges only point from lower to higher index."""
    ids = [f"n{i}" for i in range(n)]
    edges = [
        (ids[i], ids[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return ids, edges


# ---------------------------------------------------------------------------
# Scripted two-hop fixture (mirrors the shipped data files)
# ---------------------------------------------------------------------------

TWO_HOP_QUESTION = (
    "In which year was the university founded where the inventor of the "
    "World Wide Web earned his degree?"
)
TWO_HOP_GOLD = ["1096"]


def two_hop_responses() -> list[str]:
    with open(DATA_DIR / "two_hop_responses.json", "r", encoding="utf-8") as handle:
        return json.load(handle)["responses"]


def fixture_registry(top_k: int = 3) -> ToolRegistry:
    from dagsearch.tools import FixtureSearchTool, load_corpus

    registry = ToolRegistry()
    registry.register(
        search_spec("search", "Keyword search over the offline fixture corpus."),
        FixtureSearchTool(corpus=load_corpus(DATA_DIR / "corpus.jsonl"), top_k=top_k),
    )
    return registry


def run_two_hop(config: RunConfig | None = None) -> RunResult:
    return run(
        TWO_HOP_QUESTION,
        backend=ScriptedBackend(responses=two_hop_responses()),
        tools=fixture_registry(),
        config=config or RunConfig(),
        prompts=PromptPack.load_default(),
        question_id="two-hop-www",
        clock=fixed_clock(),
    )


# ---------------------------------------------------------------------------
# Synthetic 20-turn fixture: 500-token raw tool outputs, 50-token facts
# ---------------------------------------------------------------------------

TWENTY_TURN_QUESTION = (
    "Which year was the archive founded that preserves the journals of the "
    "expedition that first charted the strait named after its navigator?"
)
TWENTY_TURN_GOLD = ["1877"]

_CALL_TURNS = {1: "t1", 3: "t1", 6: "t2", 8: "t2", 11: "t3", 13: "t3", 15: "t3", 17: "t3"}
_EXTRACT_TURNS = {2: "t1", 4: "t1", 7: "t2", 9: "t2", 12: "t3", 14: "t3", 16: "t3", 18: "t3"}
_ANSWER_TURNS = {
    5: ("t1", "the navigator was Ezra Hollin, honoured by the Hollin Strait"),
    10: ("t2", "the strait was charted by the Meridian expedition of 1843"),
    19: ("t3", "1877"),
}


def _synthetic_document(rng: random.Random, source: str, n_tokens: int) -> Document:
    return Document(
        source_id=source,
        title=f"Synthetic record {source.split(':')[1]}",
        text=words(rng, n_tokens),
    )


def twenty_turn_script():
    """Scripted responses plus canned tool results for the 20-turn run.

    Every tool call returns three documents whose texts total exactly 500
    tokens; every extraction condenses them into exactly 50 tokens of facts.
    """
    rng = random.Random(20_24)
    responses = [
        "Chained lookups: navigator, expedition, archive.\n"
        '<intent_refinement>{"refined_goal": "Find the founding year of the archive '
        "preserving the journals of the expedition that first charted the strait named "
        'after its navigator.", "constraints": ["the answer is a year", '
        '"the archive must hold the expedition journals"]}</intent_refinement>',
        "Three dependent hops.\n"
        '<problem_framing>{"tasks": [{"task_id": "t1", "description": "Identify the '
        'navigator the strait is named after"}, {"task_id": "t2", "description": '
        '"Identify the expedition that first charted the strait"}, {"task_id": "t3", '
        '"description": "Find the founding year of the archive holding the expedition '
        'journals"}], "edges": [["t1", "t2"], ["t2", "t3"]]}</problem_framing>',
    ]
    tool_results = []
    for turn in range(1, 21):
        if turn in _CALL_TURNS:
            task = _CALL_TURNS[turn]
            call_no = len(tool_results) + 1
            docs = (
                _synthetic_document(rng, f"syn:{call_no:02d}a", 167),
                _synthetic_document(rng, f"syn:{call_no:02d}b", 167),
                _synthetic_document(rng, f"syn:{call_no:02d}c", 166),
            )
            tool_results.append(ToolResult(documents=docs))
            responses.append(
                f"Searching for {task}.\n"
                f'<tool_call>{{"task_id": "{task}", "tool_name": "search", '
                f'"arguments": {{"query": "{words(rng, 6)}"}}}}</tool_call>'
            )
        elif turn in _EXTRACT_TURNS:
            task = _EXTRACT_TURNS[turn]
            call_no = len(tool_results)
            fact = words(rng, 50)
            responses.append(
                "Condensing the useful part.\n"
                f'<doc_extraction>{{"task_id": "{task}", "facts": ["{fact}"], '
                f'"source_ids": ["syn:{call_no:02d}a", "syn:{call_no:02d}b"]}}</doc_extraction>'
            )
        elif turn in _ANSWER_TURNS:
            task, answer = _ANSWER_TURNS[turn]
            responses.append(
                f'<task_answer>{{"answers": [{{"task_id": "{task}", "answer": "{answer}"}}]}}</task_answer>'
            )
        else:
            responses.append('All sub-tasks are answered.\n<final_answer>{"answer": "1877"}</final_answer>')
    return responses, tool_results


# ---------------------------------------------------------------------------
# Synthetic trajectories for filter tests
# ---------------------------------------------------------------------------

_KIND_PAYLOADS = {
    ActionKind.INTENT_REFINEMENT: {"refined_goal": "g", "constraints": []},
    ActionKind.PROBLEM_FRAMING: {
        "tasks": [{"task_id": "t1", "description": "d"}],
        "edges": [],
    },
    ActionKind.TOOL_CALL: {"task_id": "t1", "tool_name": "search", "arguments": {"query": "q"}},
    ActionKind.DOC_EXTRACTION: {"task_id": "t1", "facts": ["f"], "source_ids": []},
    ActionKind.TASK_ANSWER: {"answers": [{"task_id": "t1", "answer": "x"}]},
    ActionKind.FINAL_ANSWER: {"answer": "x"},
    ActionKind.REVISIT_TASK: {"task_id": "t1", "reason": "doubt"},
    ActionKind.REPLANNING: {
        "reason": "redo",
        "tasks": [{"task_id": "r1", "description": "d"}],
        "edges": [],
    },
}


def shared_counts(inputs):
    """Each input's ``StepRecord.shared`` as a run records it: its leading lines equal to the previous input's.

    The count stops one line short of the whole input, and the first input shares none.
    """
    return [
        min(len(os.path.commonprefix([before, lines])), len(lines) - 1)
        for before, lines in zip([()] + inputs, inputs)
    ]


def assert_line_deltas(trajectory, own_strings=True):
    """Each step's ``shared`` is its ``shared_counts`` value.

    With ``own_strings``, those lines are the step before's own string objects.
    """
    assert [step.shared for step in trajectory.steps] == shared_counts([step.lines for step in trajectory.steps])
    if own_strings:
        for before, step in zip(trajectory.steps, trajectory.steps[1:]):
            assert all(line is old for line, old in zip(step.lines[: step.shared], before.lines))


def make_trajectory(kinds, *, answer="x", outcome="answered", retries_at=()):
    """Synthetic trajectory whose steps carry the given action kinds; a step in ``retries_at`` holds one diagnostic."""
    from dagsearch.trajectory import StepRecord, Trajectory

    steps = []
    inputs = [(f"state for step {i}",) for i in range(1, len(kinds) + 1)]
    for i, (kind, lines, shared) in enumerate(zip(kinds, inputs, shared_counts(inputs)), start=1):
        action = make_action(kind, _KIND_PAYLOADS[kind])
        steps.append(
            StepRecord(
                index=i,
                stage="planning" if i <= 2 and kind.value.startswith(("intent", "problem")) else "solving",
                lines=lines,
                shared=shared,
                kind=kind.value,
                payload=action.payload,
                raw_text=action.raw_text,
                model_text=action.raw_text,
                token_count=100 + i,
                diagnostics=("rejected",) if i in retries_at else (),
            )
        )
    return Trajectory(
        question="synthetic?",
        question_id="synthetic",
        steps=steps,
        outcome=outcome,
        answer=answer if outcome == "answered" else None,
    )


COMPLIANT_KINDS = [
    ActionKind.INTENT_REFINEMENT,
    ActionKind.PROBLEM_FRAMING,
    ActionKind.TOOL_CALL,
    ActionKind.DOC_EXTRACTION,
    ActionKind.TASK_ANSWER,
    ActionKind.FINAL_ANSWER,
]


def run_twenty_turn() -> RunResult:
    responses, tool_results = twenty_turn_script()
    registry = ToolRegistry()
    registry.register(
        search_spec("search", "Synthetic scripted retrieval."),
        ScriptedTool(results=list(tool_results)),
    )
    return run(
        TWENTY_TURN_QUESTION,
        backend=ScriptedBackend(responses=responses),
        tools=registry,
        config=RunConfig(max_turns=40),
        prompts=PromptPack.load_default(),
        question_id="twenty-turn-synthetic",
        clock=fixed_clock(),
    )


# ---------------------------------------------------------------------------
# Fold fixtures: three chained tasks whose facts pass version 3's FOLD_CHARS
# by the second answer, and version 4's at each of the first two, so that
# both renders fold before the last answer
# ---------------------------------------------------------------------------

FOLD_QUESTION = "Which year closes the chain of three synthetic records?"


def fold_script() -> tuple[list[str], list[ToolResult]]:
    """Responses and tool results: per task one call, one extraction, one answer."""
    rng = random.Random(16)
    tasks = [{"task_id": f"t{i}", "description": f"Resolve synthetic record {i}"} for i in (1, 2, 3)]
    responses = [
        '<intent_refinement>{"refined_goal": "Find the year that closes the chain of records.", '
        '"constraints": ["the answer is a year"]}</intent_refinement>',
        "<problem_framing>"
        + json.dumps({"tasks": tasks, "edges": [["t1", "t2"], ["t2", "t3"]]})
        + "</problem_framing>",
    ]
    tool_results = []
    for number, task in enumerate(tasks, start=1):
        task_id = task["task_id"]
        docs = tuple(_synthetic_document(rng, f"fold:{number}{suffix}", 40) for suffix in "ab")
        tool_results.append(ToolResult(documents=docs))
        call = {"task_id": task_id, "tool_name": "search", "arguments": {"query": words(rng, 4)}}
        # t1's facts alone stay under version 3's FOLD_CHARS, t1's and t2's
        # together pass it; each task's alone pass version 4's
        facts = [words(rng, 20)] if task_id == "t3" else [words(rng, 270) for _ in range(4)]
        extraction = {"task_id": task_id, "facts": facts, "source_ids": [doc.source_id for doc in docs]}
        answer = "1877" if task_id == "t3" else words(rng, 3)
        responses += [
            f"<tool_call>{json.dumps(call)}</tool_call>",
            f"<doc_extraction>{json.dumps(extraction, ensure_ascii=False)}</doc_extraction>",
            f'<task_answer>{{"answers": [{{"task_id": "{task_id}", "answer": "{answer}"}}]}}</task_answer>',
        ]
    responses.append('<final_answer>{"answer": "1877"}</final_answer>')
    return responses, tool_results


def run_fold(version: int = 3) -> RunResult:
    """The scripted run that ``data/fold_trajectory_v<version>.jsonl`` records, for version 3 or 4."""
    responses, tool_results = fold_script()
    registry = ToolRegistry()
    registry.register(search_spec("search", "Synthetic scripted retrieval."), ScriptedTool(results=tool_results))
    return run(
        FOLD_QUESTION,
        backend=ScriptedBackend(responses=responses),
        tools=registry,
        prompts=PromptPack.load_default(),
        question_id="fold-synthetic",
        clock=fixed_clock(),
        version=version,
    )
