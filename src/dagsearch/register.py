"""Context register: the compact, deterministic surrogate for the transcript.

The register holds {refined intent, archived plans, current plan state} and
is updated by pure code from parsed actions, never by another model call.
Raw tool documents are visible for exactly one turn (the "latest tool
output" section) and then vanish; only extracted facts persist. Rendering
puts the most stable sections first so consecutive model inputs share long
token prefixes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

from . import plan as planmod
from .plan import DagPlan, plan_from_dict, plan_to_dict
from .protocol import Action, ActionKind, IntentPayload, canonical_json
from .tools import ToolResult

SNAPSHOT_VERSION = 1


class RegisterError(Exception):
    """Base for register failures; ``str(err)`` is a re-prompt-ready diagnostic."""

    @property
    def diagnostic(self) -> str:
        return str(self)


class IllegalActionInStage(RegisterError):
    pass


class ContextOverflow(RegisterError):
    pass


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------

Tokenizer = Callable[[str], list[str]]

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


def default_tokenizer(text: str) -> list[str]:
    """Approximate tokens: word runs and individual punctuation marks."""
    return _TOKEN_RE.findall(text)


def token_length(text: str, tokenizer: Tokenizer | None = None) -> int:
    return len((tokenizer or default_tokenizer)(text))


class LineTokenCounter:
    """Token counts of successive texts, tokenizing only lines not seen last time.

    No ``default_tokenizer`` token spans whitespace, so a text's count is
    exactly the sum of the counts of its newline-split lines. Only the
    previous text's ``{line: count}`` is kept, so memory stays bounded by
    one input. Consecutive model inputs share most lines, so a turn pays
    for the lines that changed, not for the whole context.
    """

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}  # the last text's {line: count}

    def __call__(self, text: str) -> int:
        return self.count_lines(text.split("\n"))

    def count_lines(self, lines: Sequence[str]) -> int:
        """Token count of a text given as its newline-split ``lines``; ``counts`` then maps them."""
        previous = self.counts
        current: dict[str, int] = {}
        total = 0
        for line in lines:
            count = current.get(line)
            if count is None:
                count = previous.get(line)
                if count is None:
                    count = token_length(line)
                current[line] = count
            total += count
        self.counts = current
        return total


def capped_token_length(
    text: str, max_tokens: int, counter: Callable[[str], int] = token_length
) -> int:
    """Token count of a model input, raising ContextOverflow over the cap.

    The one count of each model input: the same number is the cap check
    and the step's recorded ``token_count``. ``counter`` is ``token_length``
    or a :class:`LineTokenCounter`, which gives the same number.
    """
    count = counter(text)
    if count > max_tokens:
        raise ContextOverflow(f"rendered context is {count} tokens, over the {max_tokens}-token cap")
    return count


# ---------------------------------------------------------------------------
# Register state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToolLogEntry:
    """One tool call with the facts later condensed out of its documents."""

    step_index: int
    task_id: str
    tool_name: str
    arguments: dict
    condensed_facts: tuple[str, ...] = ()
    source_ids: tuple[str, ...] = ()
    extracted: bool = False

    @cached_property
    def rendered_lines(self) -> tuple[str, ...]:
        """This entry's tool-log lines, rendered once per entry.

        ``replace`` builds a new entry, so an extraction never sees stale
        lines; equality and snapshots compare fields only. The positional
        "(no facts extracted)" marker is added by the log renderer.
        """
        lines = [
            f"Step {self.step_index}: {self.tool_name} for {self.task_id} "
            f"with {canonical_json(self.arguments)}"
        ]
        if self.extracted:
            sources = ", ".join(self.source_ids) if self.source_ids else "(none)"
            lines.append(f"  sources: {sources}")
            if self.condensed_facts:
                lines.append("  facts:")
                lines.extend(f"  * {fact}" for fact in self.condensed_facts)
            else:
                lines.append("  facts: (none)")
        return tuple(lines)


@dataclass(frozen=True)
class RevisitRecord:
    task_id: str
    discarded_answer: str
    reason: str


@dataclass(frozen=True)
class PlanSnapshot:
    plan: DagPlan
    reason: str


@dataclass(frozen=True)
class Register:
    intent: IntentPayload
    plan_history: tuple[PlanSnapshot, ...]
    plan: DagPlan
    revisit_history: tuple[RevisitRecord, ...]
    tool_log: tuple[ToolLogEntry, ...]
    step: int = 0
    pending_tool_result: ToolResult | None = None


def init_register(intent: IntentPayload, plan: DagPlan) -> Register:
    """The initial register: given intent, fresh plan, empty history slots."""
    return Register(
        intent=intent,
        plan_history=(),
        plan=plan,
        revisit_history=(),
        tool_log=(),
    )


def apply_action(
    register: Register,
    action: Action,
    tool_result: ToolResult | None = None,
) -> Register:
    """Pure register update for one solving-stage action.

    ``tool_result`` must be passed exactly when the action is a tool call;
    the raw documents live in the register only until the next update, as
    the one-turn "latest tool output" section.
    """
    kind = action.kind
    if kind in (ActionKind.INTENT_REFINEMENT, ActionKind.PROBLEM_FRAMING):
        raise IllegalActionInStage(
            f"<{kind.value}> is a planning action; only task-solving and "
            "retrospection actions are legal while solving"
        )
    if (tool_result is not None) != (kind is ActionKind.TOOL_CALL):
        raise ValueError("tool_result must be passed exactly for tool_call actions")
    if kind is ActionKind.FINAL_ANSWER:
        return register

    payload = action.payload
    step = register.step + 1

    if kind is ActionKind.TOOL_CALL:
        new_plan = planmod.mark_active(register.plan, payload["task_id"])
        entry = ToolLogEntry(
            step_index=step,
            task_id=payload["task_id"],
            tool_name=payload["tool_name"],
            arguments=payload["arguments"],
        )
        return replace(
            register,
            plan=new_plan,
            tool_log=register.tool_log + (entry,),
            step=step,
            pending_tool_result=tool_result,
        )

    if kind is ActionKind.DOC_EXTRACTION:
        task_id = payload["task_id"]
        facts = tuple(payload["facts"])
        source_ids = tuple(payload["source_ids"])
        new_plan = planmod.attach_evidence(register.plan, task_id, facts)
        log = list(register.tool_log)
        for i in range(len(log) - 1, -1, -1):
            if log[i].task_id == task_id:
                log[i] = replace(
                    log[i],
                    condensed_facts=log[i].condensed_facts + facts,
                    source_ids=log[i].source_ids + source_ids,
                    extracted=True,
                )
                break
        return replace(
            register,
            plan=new_plan,
            tool_log=tuple(log),
            step=step,
            pending_tool_result=None,
        )

    if kind is ActionKind.TASK_ANSWER:
        pairs = [(entry["task_id"], entry["answer"]) for entry in payload["answers"]]
        new_plan = planmod.apply_task_answer(register.plan, pairs)
        return replace(register, plan=new_plan, step=step, pending_tool_result=None)

    if kind is ActionKind.REVISIT_TASK:
        target = payload["task_id"]
        new_plan, discarded = planmod.reset_for_revisit(register.plan, target)
        records = []
        for item in discarded:
            if item["task_id"] == target:
                reason = payload["reason"]
            else:
                reason = f'invalidated by revisiting "{target}"'
            records.append(
                RevisitRecord(
                    task_id=item["task_id"],
                    discarded_answer=item["old_answer"],
                    reason=reason,
                )
            )
        return replace(
            register,
            plan=new_plan,
            revisit_history=register.revisit_history + tuple(records),
            step=step,
            pending_tool_result=None,
        )

    # Replanning: archive the current plan with its statuses, start a fresh
    # epoch (new revisit history and tool log); answers do not carry over.
    snapshot = PlanSnapshot(plan=register.plan, reason=payload["reason"])
    new_plan = planmod.build_plan(
        payload["tasks"], [tuple(e) for e in payload["edges"]], plan_id=register.plan.plan_id + 1
    )
    return replace(
        register,
        plan_history=register.plan_history + (snapshot,),
        plan=new_plan,
        revisit_history=(),
        tool_log=(),
        step=step,
        pending_tool_result=None,
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _plan_lines(plan: DagPlan, include_status: bool = True) -> list[str]:
    lines = ["Tasks:"]
    for tid in sorted(plan.nodes):
        lines.append(f"- {tid}: {plan.nodes[tid].description}")
    lines.append("Dependencies:")
    if plan.edges:
        lines.extend(f"- {src} -> {dst}" for src, dst in plan.edges)
    else:
        lines.append("- (none)")
    if include_status:
        lines.append("Status:")
        for tid in sorted(plan.nodes):
            node = plan.nodes[tid]
            if node.status == planmod.ANSWERED:
                lines.append(f"- {tid}: answered = {node.answer}")
            else:
                lines.append(f"- {tid}: {node.status}")
    return lines


def _tool_log_lines(log: Sequence[ToolLogEntry]) -> list[str]:
    lines: list[str] = []
    for i, entry in enumerate(log):
        lines.extend(entry.rendered_lines)
        if not entry.extracted and i < len(log) - 1:
            lines.append("  (no facts extracted)")
    return lines


def render_context(register: Register, question: str, stage_prompt: str) -> str:
    """Deterministic model input for one solving step.

    Section order is stable-first: prompt, question, intent, archived plans,
    current plan (static structure before volatile statuses), revisit
    history, tool log, and finally the one-turn raw tool output if a call
    just happened. Empty sections are omitted entirely.
    """
    sections: list[str] = [stage_prompt.rstrip()]
    sections.append(f"## Question\n{question}")

    intent_lines = [f"Goal: {register.intent.refined_goal}"]
    if register.intent.constraints:
        intent_lines.append("Constraints:")
        intent_lines.extend(f"- {c}" for c in register.intent.constraints)
    else:
        intent_lines.append("Constraints: (none)")
    sections.append("## Refined intent\n" + "\n".join(intent_lines))

    if register.plan_history:
        lines = []
        for snapshot in register.plan_history:
            lines.append(f"Plan {snapshot.plan.plan_id} (archived: {snapshot.reason})")
            lines.extend(_plan_lines(snapshot.plan))
        sections.append("## Archived plans\n" + "\n".join(lines))

    sections.append(
        f"## Current plan {register.plan.plan_id}\n" + "\n".join(_plan_lines(register.plan))
    )

    if register.revisit_history:
        lines = [
            f'- {rec.task_id}: discarded answer "{rec.discarded_answer}" ({rec.reason})'
            for rec in register.revisit_history
        ]
        sections.append("## Revisited tasks\n" + "\n".join(lines))

    if register.tool_log:
        sections.append("## Tool log\n" + "\n".join(_tool_log_lines(register.tool_log)))

    if register.pending_tool_result is not None:
        lines = []
        for doc in register.pending_tool_result.documents:
            lines.append(f"[{doc.source_id}] {doc.title}")
            lines.append(doc.text)
        if not lines:
            lines.append("(no documents returned)")
        sections.append("## Latest tool output\n" + "\n".join(lines))

    return "\n\n".join(sections)


def register_tokens(
    register: Register,
    question: str,
    stage_prompt: str,
    tokenizer: Tokenizer | None = None,
) -> int:
    """Token count of the persistent render (ephemeral tool output excluded).

    This is the quantity that is non-decreasing within a plan epoch; the full
    model input additionally carries the one-turn raw tool output and may
    shrink when that section expires.
    """
    stripped = replace(register, pending_tool_result=None)
    return token_length(render_context(stripped, question, stage_prompt), tokenizer)


# ---------------------------------------------------------------------------
# Snapshots (versioned JSON documents)
# ---------------------------------------------------------------------------


def register_to_dict(register: Register) -> dict:
    return {
        "version": SNAPSHOT_VERSION,
        "intent": register.intent.to_payload(),
        "plan_history": [
            {"plan": plan_to_dict(s.plan), "reason": s.reason} for s in register.plan_history
        ],
        "current": {
            "plan": plan_to_dict(register.plan),
            "revisit_history": [
                {
                    "task_id": r.task_id,
                    "discarded_answer": r.discarded_answer,
                    "reason": r.reason,
                }
                for r in register.revisit_history
            ],
            "tool_log": [
                {
                    "step_index": e.step_index,
                    "task_id": e.task_id,
                    "tool_name": e.tool_name,
                    "arguments": e.arguments,
                    "condensed_facts": list(e.condensed_facts),
                    "source_ids": list(e.source_ids),
                    "extracted": e.extracted,
                }
                for e in register.tool_log
            ],
        },
        "step": register.step,
        "pending_tool_result": (
            register.pending_tool_result.to_dict()
            if register.pending_tool_result is not None
            else None
        ),
    }


def register_from_dict(data: dict) -> Register:
    if data.get("version") != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported register snapshot version: {data.get('version')}")
    current = data["current"]
    pending = data.get("pending_tool_result")
    return Register(
        intent=IntentPayload.from_payload(data["intent"]),
        plan_history=tuple(
            PlanSnapshot(plan=plan_from_dict(s["plan"]), reason=s["reason"])
            for s in data["plan_history"]
        ),
        plan=plan_from_dict(current["plan"]),
        revisit_history=tuple(
            RevisitRecord(
                task_id=r["task_id"],
                discarded_answer=r["discarded_answer"],
                reason=r["reason"],
            )
            for r in current["revisit_history"]
        ),
        tool_log=tuple(
            ToolLogEntry(
                step_index=e["step_index"],
                task_id=e["task_id"],
                tool_name=e["tool_name"],
                arguments=e["arguments"],
                condensed_facts=tuple(e["condensed_facts"]),
                source_ids=tuple(e["source_ids"]),
                extracted=e["extracted"],
            )
            for e in current["tool_log"]
        ),
        step=data["step"],
        pending_tool_result=ToolResult.from_dict(pending) if pending is not None else None,
    )
