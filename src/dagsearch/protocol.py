"""Finite action grammar: deterministic parsing, validation, and rendering.

Every model response must carry exactly one action block of the form
``<kind>{payload-json}</kind>``. The set of kinds is closed; payloads are
single JSON objects validated against a fixed per-kind schema. Parsing and
rendering are pure functions: identical inputs yield byte-identical outputs.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Sequence


class ActionKind(str, Enum):
    """The eight legal action tags."""

    INTENT_REFINEMENT = "intent_refinement"
    PROBLEM_FRAMING = "problem_framing"
    TOOL_CALL = "tool_call"
    DOC_EXTRACTION = "doc_extraction"
    TASK_ANSWER = "task_answer"
    FINAL_ANSWER = "final_answer"
    REVISIT_TASK = "revisit_task"
    REPLANNING = "replanning"


PLANNING_KINDS = frozenset({ActionKind.INTENT_REFINEMENT, ActionKind.PROBLEM_FRAMING})
SOLVING_KINDS = frozenset(
    {
        ActionKind.TOOL_CALL,
        ActionKind.DOC_EXTRACTION,
        ActionKind.TASK_ANSWER,
        ActionKind.FINAL_ANSWER,
    }
)
RETROSPECTION_KINDS = frozenset({ActionKind.REVISIT_TASK, ActionKind.REPLANNING})

_KIND_BY_TAG = {kind.value: kind for kind in ActionKind}


def subspace_of(kind: ActionKind) -> str:
    """Map a kind to its subspace: ``plan``, ``sol``, or ``ret``."""
    if kind in PLANNING_KINDS:
        return "plan"
    if kind in SOLVING_KINDS:
        return "sol"
    return "ret"


class ProtocolError(Exception):
    """Base for grammar failures; ``str(err)`` is a re-prompt-ready diagnostic."""

    @property
    def diagnostic(self) -> str:
        return str(self)


class NoActionBlock(ProtocolError):
    pass


class MultipleActionBlocks(ProtocolError):
    pass


class UnknownActionKind(ProtocolError):
    pass


class MalformedPayload(ProtocolError):
    pass


class SchemaViolation(ProtocolError):
    pass


class ExtraTextOutsideBlock(ProtocolError):
    """Raised only in strict mode when non-whitespace text surrounds the block."""


@dataclass(frozen=True)
class Action:
    """One parsed protocol unit: kind, validated payload, and surface form."""

    kind: ActionKind
    payload: dict
    raw_text: str

    @classmethod
    def create(cls, kind: ActionKind, payload: dict) -> "Action":
        """Build a validated action with the canonical surface form."""
        validate_payload(kind, payload)
        return cls(kind=kind, payload=payload, raw_text=_render(kind, payload))


@dataclass(frozen=True)
class IntentPayload:
    """Refined user intent: a clarified goal plus explicit constraints."""

    refined_goal: str
    constraints: tuple[str, ...] = ()

    @classmethod
    def from_payload(cls, payload: dict) -> "IntentPayload":
        return cls(
            refined_goal=payload["refined_goal"],
            constraints=tuple(payload["constraints"]),
        )

    def to_payload(self) -> dict:
        return {"refined_goal": self.refined_goal, "constraints": list(self.constraints)}


def canonical_json(payload: Any) -> str:
    """Canonical payload encoding: sorted keys, no padding, raw UTF-8."""
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def _render(kind: ActionKind, payload: dict) -> str:
    return f"<{kind.value}>{canonical_json(payload)}</{kind.value}>"


def render_action(action: Action) -> str:
    """Emit the canonical block for a schema-valid action."""
    validate_payload(action.kind, action.payload)
    return _render(action.kind, action.payload)


# ---------------------------------------------------------------------------
# Payload validation
# ---------------------------------------------------------------------------


def _fail(kind: ActionKind, message: str) -> None:
    raise SchemaViolation(f"<{kind.value}> payload invalid: {message}")


def _check_fields(kind: ActionKind, payload: dict, fields: Sequence[str]) -> None:
    if not isinstance(payload, dict):
        _fail(kind, "payload must be a JSON object")
    for name in fields:
        if name not in payload:
            _fail(kind, f'missing required field "{name}"')
    for name in payload:
        if name not in fields:
            _fail(kind, f'unexpected field "{name}"')


def _check_str(kind: ActionKind, value: Any, where: str, non_empty: bool = False) -> None:
    if not isinstance(value, str):
        _fail(kind, f"{where} must be a string")
    if non_empty and not value.strip():
        _fail(kind, f"{where} must be non-empty")


def _check_str_list(kind: ActionKind, value: Any, where: str) -> None:
    if not isinstance(value, list):
        _fail(kind, f"{where} must be an array of strings")
    for i, item in enumerate(value):
        _check_str(kind, item, f"{where}[{i}]")


def _check_task_id(kind: ActionKind, value: Any, where: str) -> None:
    _check_str(kind, value, where, non_empty=True)
    if value != value.strip() or any(ch.isspace() for ch in value):
        _fail(kind, f"{where} must be a short identifier without whitespace")


def find_cycle(task_ids: Iterable[str], edges: Iterable[tuple[str, str]]) -> list[str]:
    """Return task ids on unresolved cycles (empty list when acyclic).

    Kahn's algorithm; the returned ids are sorted for stable diagnostics.
    """
    indegree = {tid: 0 for tid in task_ids}
    out: dict[str, list[str]] = {tid: [] for tid in indegree}
    for src, dst in edges:
        out[src].append(dst)
        indegree[dst] += 1
    ready = sorted(tid for tid, deg in indegree.items() if deg == 0)
    seen = 0
    while ready:
        tid = ready.pop()
        seen += 1
        for nxt in out[tid]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    return sorted(tid for tid, deg in indegree.items() if deg > 0)


def _check_dag(kind: ActionKind, payload: dict) -> None:
    tasks = payload.get("tasks")
    if not isinstance(tasks, list):
        _fail(kind, '"tasks" must be an array of {task_id, description} objects')
    declared: list[str] = []
    for i, task in enumerate(tasks):
        if not isinstance(task, dict):
            _fail(kind, f"tasks[{i}] must be an object")
        for name in ("task_id", "description"):
            if name not in task:
                _fail(kind, f'tasks[{i}] missing required field "{name}"')
        for name in task:
            if name not in ("task_id", "description"):
                _fail(kind, f'tasks[{i}] has unexpected field "{name}"')
        _check_task_id(kind, task["task_id"], f"tasks[{i}].task_id")
        _check_str(kind, task["description"], f"tasks[{i}].description")
        declared.append(task["task_id"])
    if len(set(declared)) != len(declared):
        dupes = sorted({tid for tid in declared if declared.count(tid) > 1})
        _fail(kind, f"duplicate task_id: {', '.join(dupes)}")
    edges = payload.get("edges")
    if not isinstance(edges, list):
        _fail(kind, '"edges" must be an array of [from_task_id, to_task_id] pairs')
    known = set(declared)
    pairs: list[tuple[str, str]] = []
    for i, edge in enumerate(edges):
        if not isinstance(edge, list) or len(edge) != 2:
            _fail(kind, f"edges[{i}] must be a [from_task_id, to_task_id] pair")
        src, dst = edge
        _check_task_id(kind, src, f"edges[{i}][0]")
        _check_task_id(kind, dst, f"edges[{i}][1]")
        if src not in known:
            _fail(kind, f'edges[{i}] references undeclared task "{src}"')
        if dst not in known:
            _fail(kind, f'edges[{i}] references undeclared task "{dst}"')
        pairs.append((src, dst))
    cyclic = find_cycle(declared, pairs)
    if cyclic:
        _fail(kind, f"edges form a cycle through: {', '.join(cyclic)}")


def _validate_intent(kind: ActionKind, payload: dict) -> None:
    _check_fields(kind, payload, ("refined_goal", "constraints"))
    _check_str(kind, payload["refined_goal"], '"refined_goal"', non_empty=True)
    _check_str_list(kind, payload["constraints"], '"constraints"')


def _validate_framing(kind: ActionKind, payload: dict) -> None:
    _check_fields(kind, payload, ("tasks", "edges"))
    _check_dag(kind, payload)


def _validate_tool_call(kind: ActionKind, payload: dict) -> None:
    _check_fields(kind, payload, ("task_id", "tool_name", "arguments"))
    _check_task_id(kind, payload["task_id"], '"task_id"')
    _check_str(kind, payload["tool_name"], '"tool_name"', non_empty=True)
    if not isinstance(payload["arguments"], dict):
        _fail(kind, '"arguments" must be an object')


def _validate_doc_extraction(kind: ActionKind, payload: dict) -> None:
    _check_fields(kind, payload, ("task_id", "facts", "source_ids"))
    _check_task_id(kind, payload["task_id"], '"task_id"')
    _check_str_list(kind, payload["facts"], '"facts"')
    _check_str_list(kind, payload["source_ids"], '"source_ids"')


def _validate_task_answer(kind: ActionKind, payload: dict) -> None:
    _check_fields(kind, payload, ("answers",))
    answers = payload["answers"]
    if not isinstance(answers, list) or not answers:
        _fail(kind, '"answers" must be a non-empty array of {task_id, answer} objects')
    for i, entry in enumerate(answers):
        if not isinstance(entry, dict):
            _fail(kind, f"answers[{i}] must be an object")
        for name in ("task_id", "answer"):
            if name not in entry:
                _fail(kind, f'answers[{i}] missing required field "{name}"')
        for name in entry:
            if name not in ("task_id", "answer"):
                _fail(kind, f'answers[{i}] has unexpected field "{name}"')
        _check_task_id(kind, entry["task_id"], f"answers[{i}].task_id")
        _check_str(kind, entry["answer"], f"answers[{i}].answer")


def _validate_final_answer(kind: ActionKind, payload: dict) -> None:
    _check_fields(kind, payload, ("answer",))
    _check_str(kind, payload["answer"], '"answer"')


def _validate_revisit(kind: ActionKind, payload: dict) -> None:
    _check_fields(kind, payload, ("task_id", "reason"))
    _check_task_id(kind, payload["task_id"], '"task_id"')
    _check_str(kind, payload["reason"], '"reason"')


def _validate_replanning(kind: ActionKind, payload: dict) -> None:
    _check_fields(kind, payload, ("reason", "tasks", "edges"))
    _check_str(kind, payload["reason"], '"reason"')
    _check_dag(kind, payload)


_VALIDATORS = {
    ActionKind.INTENT_REFINEMENT: _validate_intent,
    ActionKind.PROBLEM_FRAMING: _validate_framing,
    ActionKind.TOOL_CALL: _validate_tool_call,
    ActionKind.DOC_EXTRACTION: _validate_doc_extraction,
    ActionKind.TASK_ANSWER: _validate_task_answer,
    ActionKind.FINAL_ANSWER: _validate_final_answer,
    ActionKind.REVISIT_TASK: _validate_revisit,
    ActionKind.REPLANNING: _validate_replanning,
}


def validate_payload(kind: ActionKind, payload: dict) -> None:
    """Raise SchemaViolation unless ``payload`` is valid for ``kind``."""
    _VALIDATORS[kind](kind, payload)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TAG_RE = re.compile(r"<([a-z][a-z0-9_]*)>")
_DECODER = json.JSONDecoder()


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


@dataclass(frozen=True)
class _Block:
    tag: str
    payload: dict
    start: int
    end: int


def _scan_blocks(text: str) -> list[_Block]:
    """Left-to-right scan for action blocks.

    Known tags commit to a block as soon as a JSON object follows (or a
    matching close tag exists); unknown tags followed by a JSON object are
    rejected as out-of-grammar. Anything else is free text and skipped.
    """
    blocks: list[_Block] = []
    last_close: dict[str, int] = {}  # close tag -> its last offset, found once per scan
    pos = 0
    while True:
        match = _TAG_RE.search(text, pos)
        if match is None:
            return blocks
        tag = match.group(1)
        body_start = _skip_ws(text, match.end())
        starts_object = body_start < len(text) and text[body_start] == "{"
        if tag not in _KIND_BY_TAG:
            if starts_object:
                raise UnknownActionKind(
                    f"<{tag}> is not a legal action; legal actions are: "
                    + ", ".join(sorted(_KIND_BY_TAG))
                )
            pos = match.end()
            continue
        close = f"</{tag}>"
        if not starts_object:
            if close not in last_close:
                last_close[close] = text.rfind(close)
            if last_close[close] >= match.end():
                raise MalformedPayload(
                    f"payload between <{tag}> and {close} must be a single JSON object"
                )
            pos = match.end()
            continue
        try:
            payload, consumed = _DECODER.raw_decode(text, body_start)
        except json.JSONDecodeError as exc:
            raise MalformedPayload(
                f"<{tag}> payload is not well-formed JSON: {exc.msg} at position {exc.pos}"
            ) from None
        except RecursionError:
            raise MalformedPayload(f"<{tag}> payload is nested too deeply to decode") from None
        after = _skip_ws(text, consumed)
        if not text.startswith(close, after):
            raise MalformedPayload(f"<{tag}> block is missing its closing {close} tag")
        if not isinstance(payload, dict):
            raise MalformedPayload(f"<{tag}> payload must be a single JSON object")
        blocks.append(_Block(tag=tag, payload=payload, start=match.start(), end=after + len(close)))
        pos = after + len(close)


def parse_action(text: str, strict: bool = False) -> Action:
    """Extract, validate, and return the single action block in ``text``.

    Free text outside the block is discarded (the trajectory keeps the full
    model output for audit); with ``strict=True`` any non-whitespace text
    outside the block is an error.
    """
    blocks = _scan_blocks(text)
    if not blocks:
        raise NoActionBlock(
            "no action block found; emit exactly one <kind>{...}</kind> block"
        )
    if len(blocks) > 1:
        tags = ", ".join(f"<{b.tag}>" for b in blocks)
        raise MultipleActionBlocks(
            f"found {len(blocks)} action blocks ({tags}); emit exactly one per step"
        )
    block = blocks[0]
    if strict:
        outside = text[: block.start] + text[block.end:]
        if outside.strip():
            raise ExtraTextOutsideBlock(
                "strict mode: no text is allowed outside the action block"
            )
    kind = _KIND_BY_TAG[block.tag]
    validate_payload(kind, block.payload)
    return Action(kind=kind, payload=block.payload, raw_text=text[block.start:block.end])
