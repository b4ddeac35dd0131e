"""Finite action grammar: deterministic parsing, validation, and rendering.

Every model response must carry exactly one action block of the form
``<kind>{payload-json}</kind>``. The set of kinds is closed; payloads are
single JSON objects validated against one table of fields per kind. Parsing
and rendering are pure functions: identical inputs yield byte-identical outputs.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, NoReturn


class ActionKind(str, Enum):
    """The eight legal action tags, in the paper's three spaces: planning
    (``PLANNING_KINDS``), task-solving (tool_call, doc_extraction,
    task_answer, final_answer) and retrospection (revisit_task, replanning).
    """

    INTENT_REFINEMENT = "intent_refinement"
    PROBLEM_FRAMING = "problem_framing"
    TOOL_CALL = "tool_call"
    DOC_EXTRACTION = "doc_extraction"
    TASK_ANSWER = "task_answer"
    FINAL_ANSWER = "final_answer"
    REVISIT_TASK = "revisit_task"
    REPLANNING = "replanning"


PLANNING_KINDS = frozenset({ActionKind.INTENT_REFINEMENT, ActionKind.PROBLEM_FRAMING})

_KIND_BY_TAG = {kind.value: kind for kind in ActionKind}


class ProtocolError(Exception):
    """A rejected action; ``str(err)`` is a re-prompt-ready diagnostic.

    The action breaks the grammar, its kind's payload fields, a plan rule,
    the stage's legal kinds or a tool's arguments: the run re-prompts.
    """


@dataclass(frozen=True)
class Action:
    """One parsed protocol unit: kind, validated payload, and surface form."""

    kind: ActionKind
    payload: dict
    raw_text: str


def canonical_json(payload: Any) -> str:
    """Canonical payload encoding: sorted keys, no padding, raw UTF-8."""
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Payload validation
# ---------------------------------------------------------------------------
# A field check takes (kind, value, where); ``where`` names the value in the
# diagnostic: '"task_id"' for a payload field, 'tasks[0].task_id' inside an
# array entry.

Check = Callable[[ActionKind, Any, str], None]


def _fail(kind: ActionKind, message: str) -> NoReturn:
    raise ProtocolError(f"<{kind.value}> payload invalid: {message}")


def _text(kind: ActionKind, value: Any, where: str) -> None:
    if not isinstance(value, str):
        _fail(kind, f"{where} must be a string")


def _non_empty_text(kind: ActionKind, value: Any, where: str) -> None:
    _text(kind, value, where)
    if not value.strip():
        _fail(kind, f"{where} must be non-empty")


def _task_id(kind: ActionKind, value: Any, where: str) -> None:
    _non_empty_text(kind, value, where)
    if any(ch.isspace() for ch in value):
        _fail(kind, f"{where} must be a short identifier without whitespace")


def _texts(kind: ActionKind, value: Any, where: str) -> None:
    if not isinstance(value, list):
        _fail(kind, f"{where} must be an array of strings")
    for i, item in enumerate(value):
        _text(kind, item, f"{where}[{i}]")


def _arguments(kind: ActionKind, value: Any, where: str) -> None:
    if not isinstance(value, dict):
        _fail(kind, f"{where} must be an object")


def _tasks(kind: ActionKind, value: Any, where: str) -> None:
    if not isinstance(value, list):
        _fail(kind, f"{where} must be an array of {{task_id, description}} objects")
    for i, task in enumerate(value):
        _object(kind, task, _TASK_FIELDS, f"tasks[{i}]")


def _edges(kind: ActionKind, value: Any, where: str) -> None:
    """Shape checks only; ``plan.build_plan`` owns the graph rules."""
    if not isinstance(value, list):
        _fail(kind, f"{where} must be an array of [from_task_id, to_task_id] pairs")
    for i, edge in enumerate(value):
        if not isinstance(edge, list) or len(edge) != 2:
            _fail(kind, f"edges[{i}] must be a [from_task_id, to_task_id] pair")
        _task_id(kind, edge[0], f"edges[{i}][0]")
        _task_id(kind, edge[1], f"edges[{i}][1]")


def _answers(kind: ActionKind, value: Any, where: str) -> None:
    if not isinstance(value, list) or not value:
        _fail(kind, f"{where} must be a non-empty array of {{task_id, answer}} objects")
    for i, entry in enumerate(value):
        _object(kind, entry, _ANSWER_FIELDS, f"answers[{i}]")


_TASK_FIELDS: dict[str, Check] = {"task_id": _task_id, "description": _text}
_ANSWER_FIELDS: dict[str, Check] = {"task_id": _task_id, "answer": _text}
# Each kind's payload fields, in the order their checks run.
PAYLOAD_FIELDS: dict[ActionKind, dict[str, Check]] = {
    ActionKind.INTENT_REFINEMENT: {"refined_goal": _non_empty_text, "constraints": _texts},
    ActionKind.PROBLEM_FRAMING: {"tasks": _tasks, "edges": _edges},
    ActionKind.TOOL_CALL: {"task_id": _task_id, "tool_name": _non_empty_text, "arguments": _arguments},
    ActionKind.DOC_EXTRACTION: {"task_id": _task_id, "facts": _texts, "source_ids": _texts},
    ActionKind.TASK_ANSWER: {"answers": _answers},
    ActionKind.FINAL_ANSWER: {"answer": _text},
    ActionKind.REVISIT_TASK: {"task_id": _task_id, "reason": _text},
    ActionKind.REPLANNING: {"reason": _text, "tasks": _tasks, "edges": _edges},
}


def _object(kind: ActionKind, value: Any, fields: dict[str, Check], where: str = "") -> None:
    """Require exactly ``fields``, a missing one before an unexpected one, then run each field's check in order.

    ``where`` locates an array entry; the payload itself has none.
    """
    if not isinstance(value, dict):
        _fail(kind, f"{where} must be an object" if where else "payload must be a JSON object")
    if value.keys() != fields.keys():
        prefix = f"{where} " if where else ""
        for name in fields:
            if name not in value:
                _fail(kind, f'{prefix}missing required field "{name}"')
        for name in value:
            if name not in fields:
                _fail(kind, f'{prefix}unexpected field "{name}"')
    for name, check in fields.items():
        check(kind, value[name], f"{where}.{name}" if where else f'"{name}"')


def validate_payload(kind: ActionKind, payload: dict) -> None:
    """Raise ProtocolError unless ``payload`` is valid for ``kind``."""
    _object(kind, payload, PAYLOAD_FIELDS[kind])


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TAG_RE = re.compile(r"<([a-z][a-z0-9_]*)>")
_DECODER = json.JSONDecoder()
# A lone surrogate: JSON can escape one, but it is not Unicode, so UTF-8
# cannot encode it and no trajectory holding one could be saved.
SURROGATE_RE = re.compile("[\ud800-\udfff]")
_SURROGATE_DIAGNOSTIC = "the reply holds a lone surrogate (U+D800-U+DFFF); emit valid Unicode text"


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
                raise ProtocolError(
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
                raise ProtocolError(f"payload between <{tag}> and {close} must be a single JSON object")
            pos = match.end()
            continue
        try:  # the body starts with "{", so a payload that decodes is an object
            payload, consumed = _DECODER.raw_decode(text, body_start)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"<{tag}> payload is not well-formed JSON: {exc.msg} at position {exc.pos}") from None
        except RecursionError:
            raise ProtocolError(f"<{tag}> payload is nested too deeply to decode") from None
        after = _skip_ws(text, consumed)
        if not text.startswith(close, after):
            raise ProtocolError(f"<{tag}> block is missing its closing {close} tag")
        blocks.append(_Block(tag=tag, payload=payload, start=match.start(), end=after + len(close)))
        pos = after + len(close)


def parse_action(text: str, strict: bool = False) -> Action:
    """Extract, validate, and return the single action block in ``text``.

    Free text outside the block is discarded (the trajectory keeps the full
    model output for audit); with ``strict=True`` any non-whitespace text
    outside the block is an error. A lone surrogate anywhere is malformed.
    """
    if not text.isascii() and SURROGATE_RE.search(text):  # isascii is O(1)
        raise ProtocolError(_SURROGATE_DIAGNOSTIC)
    blocks = _scan_blocks(text)
    if not blocks:
        raise ProtocolError("no action block found; emit exactly one <kind>{...}</kind> block")
    if len(blocks) > 1:
        tags = ", ".join(f"<{b.tag}>" for b in blocks)
        raise ProtocolError(f"found {len(blocks)} action blocks ({tags}); emit exactly one per step")
    block = blocks[0]
    if strict:
        outside = text[: block.start] + text[block.end:]
        if outside.strip():
            raise ProtocolError("strict mode: no text is allowed outside the action block")
    raw_text = text[block.start:block.end]
    if "\\u" in raw_text and SURROGATE_RE.search(json.dumps(block.payload, ensure_ascii=False)):
        raise ProtocolError(_SURROGATE_DIAGNOSTIC)
    kind = _KIND_BY_TAG[block.tag]
    validate_payload(kind, block.payload)
    return Action(kind=kind, payload=block.payload, raw_text=raw_text)
