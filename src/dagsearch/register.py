"""Context register: the compact, deterministic surrogate for the transcript.

The register holds {archived plans, current plan state}, rendered after a
head holding the refined intent, and is updated by pure code from parsed
actions, never by another model call.
Raw tool documents are visible for exactly one turn (the "latest tool
output" section) and then vanish; only extracted facts persist, until they
are folded: from trajectory version 3 on, the tool-log entries of answered
tasks leave the model input in batches (see ``FOLD_CHARS``). The register
knows the trajectory version it is recorded under, which selects both the
fold rule and the layout of the solving input. Rendering
puts the most stable sections first and the current plan's task statuses,
which change on most turns, after the append-only tool log, so consecutive
model inputs share long token prefixes. This module renders every model
input: the two planning inputs, each solving input, and the correction
block appended after a rejected reply.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from . import plan as planmod
from .plan import DagPlan
from .protocol import PLANNING_KINDS, Action, ActionKind, ProtocolError, canonical_json
from .tools import ToolResult

# A task_answer folds the answered tasks' tool-log entries that are still
# shown out of the model input, once they render to more than the
# version's threshold and a task is still open. With no task open, a fold
# would break the prefix of the final answer's input, which no later turn
# reuses. Versions 1 and 2 never fold.
#
# The cost model. A fold re-sends once, uncached, the S characters after
# its first hidden line, which that turn would otherwise have read from
# the cache. In return, each of the R later turns leaves out the H hidden
# characters, which it would have read at the cached price: a fraction c
# of the uncached one. The fold pays when H * c * R > S * (1 - c). S is at
# most H plus the rest T of the input: the open tasks' entries and the
# Status paragraph. So the fold has paid for itself after
# (1 + T / H) * (1 - c) / c later turns: 18 at c = 0.1 and 2 at c = 0.5
# when T <= H. The threshold is a floor on H that keeps T / H small, and
# keeps each break of the prefix worth its price at a cache that reuses
# whole blocks, which also loses the partial block at the break (up to
# 128 tokens, about 640 characters at 5 characters a token).
#
# Version 4's 4,000 characters (about 800 tokens) lie in the plateau
# measured on the benchmark's workloads: from 3,000 to 6,000, long_horizon
# folds at every answer turn with a task open (each task's entries render
# to about 9,500 characters and T is the Status paragraph), while
# revise_churn and eval_batch never fold. Version 3's 12,000 folds two
# tasks at a time. Characters, not tokens: the decision must not
# tokenize. The trajectory version pins each value: a new value needs a
# new version.
FOLD_CHARS = {3: 12_000, 4: 4_000}


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


def default_tokenizer(text: str) -> list[str]:
    """Approximate tokens: word runs and individual punctuation marks."""
    return _TOKEN_RE.findall(text)


def token_length(text: str) -> int:
    return len(default_tokenizer(text))


def common_prefix_length(a: Sequence, b: Sequence) -> int:
    """Length of the longest common prefix of ``a`` and ``b``: two strings, or two tuples of lines.

    Compares the whole common length once, then bisects with slice
    compares: every item is compared in C, none in a Python loop. A line
    that is the same object in both compares equal without reading its
    characters.
    """
    low, high = 0, min(len(a), len(b))
    if a[:high] == b[:high]:
        return high
    # a[:low] == b[:low] and a[:high] != b[:high]
    while high - low > 1:
        middle = (low + high) // 2
        if a[low:middle] == b[low:middle]:
            low = middle
        else:
            high = middle
    return low


# Distinct prompt texts kept: a process uses one pack, or a few.
_PROMPTS_KEPT = 8
_prompts_lock = threading.Lock()


class PromptLines(NamedTuple):
    """The lines of a stage prompt's ``rstrip()``, which open every input of its stage, and their token counts."""

    lines: tuple[str, ...]
    counts: Mapping[str, int]


@lru_cache(maxsize=_PROMPTS_KEPT)
def _prompt_lines(prompt: str) -> PromptLines:
    lines = tuple(prompt.rstrip().split("\n"))
    return PromptLines(lines, MappingProxyType({line: token_length(line) for line in dict.fromkeys(lines)}))


def prompt_lines(prompt: str) -> PromptLines:
    """``prompt``'s lines and counts, split and counted once per prompt text for the process.

    Both renderers open each input with these very string objects, so the
    head two inputs share compares by identity. Read-only: eval's threads
    share both. The lock makes threads that ask for a new prompt at once
    split and count it once.
    """
    with _prompts_lock:
        return _prompt_lines(prompt)


prompt_lines.cache_clear = _prompt_lines.cache_clear


class LineTokenCounter:
    """Token counts of successive inputs, given as their lines, tokenizing each distinct line once.

    No ``default_tokenizer`` token spans whitespace, so an input's count is
    the sum of its lines' counts. The counter keeps the current input's
    ``lines``, their running ``totals`` (``totals[i]``: tokens in the first
    ``i`` lines) as far as a count has reached, ``same``: how many leading
    lines ``lines`` shares with the input before it, and ``known``: a copy
    of its seed (the stage prompts' ``prompt_lines`` counts) plus every line
    it has counted. The head a new input shares with ``lines``, found with
    ``common_prefix_length`` by a call and given to ``head``, keeps its
    totals and the previous lines' own strings. A call counts the whole
    input, ``head`` the shared head only.
    """

    def __init__(self, known: Mapping[str, int] = MappingProxyType({})) -> None:
        self.known = dict(known)
        self.lines: tuple[str, ...] = ()
        self.totals: list[int] = [0]
        self.same = 0

    def __call__(self, lines: tuple[str, ...]) -> int:
        """The token count of the input ``lines``, which becomes the current input."""
        self._follow(lines, common_prefix_length(self.lines, lines))
        return self._total(len(lines))

    def head(self, lines: tuple[str, ...], same: int) -> int:
        """Tokens in the first ``same`` lines of ``lines``, which must be the current input's; ``lines`` becomes it."""
        self._follow(lines, same)
        return self._total(same)

    def _follow(self, lines: tuple[str, ...], same: int) -> None:
        """Make ``lines``, whose first ``same`` lines equal the current input's, the current input."""
        self.same = same
        del self.totals[same + 1 :]
        self.lines = self.lines[:same] + lines[same:]

    def _total(self, end: int) -> int:
        """Tokens in the current input's first ``end`` lines, extending ``totals`` that far."""
        totals, known = self.totals, self.known
        for line in self.lines[len(totals) - 1 : end]:
            count = known.get(line)
            if count is None:
                count = known[line] = token_length(line)
            totals.append(totals[-1] + count)
        return totals[end]


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
        lines; equality compares fields only. The positional
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

    @cached_property
    def lines(self) -> tuple[str, ...]:
        """``rendered_lines`` split on the newlines inside them: the lines this entry adds to a solving input."""
        if any("\n" in line for line in self.rendered_lines):
            return _split(self.rendered_lines)
        return self.rendered_lines


@dataclass(frozen=True)
class RevisitRecord:
    task_id: str
    discarded_answer: str
    reason: str


@dataclass(frozen=True)
class PlanSnapshot:
    plan: DagPlan
    reason: str

    @cached_property
    def lines(self) -> tuple[str, ...]:
        """This archived plan's block in every later solving input, with its final statuses, rendered once."""
        heading = f"Plan {self.plan.plan_id} (archived: {self.reason})"
        return _split([heading, *_plan_lines(self.plan), *_status_lines(self.plan)])


@dataclass(frozen=True)
class Register:
    """A run's register; ``Register(plan, version)`` opens a run recorded in trajectory ``version``."""

    plan: DagPlan
    version: int  # the trajectory version: fold rule and solving-input layout
    plan_history: tuple[PlanSnapshot, ...] = ()
    revisit_history: tuple[RevisitRecord, ...] = ()
    tool_log: tuple[ToolLogEntry, ...] = ()
    step: int = 0
    pending_tool_result: ToolResult | None = None
    # The log keeps every entry; the render leaves out folded ones, by step
    # index. Version 3 folds every entry logged by its last fold and hides
    # those whose task is answered now; version 4 folds and hides the
    # entries answered at some fold. A replan empties both log and ``folded``.
    folded: frozenset[int] = frozenset()


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
    if kind in PLANNING_KINDS:
        raise ProtocolError(
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
        return _fold(replace(register, plan=new_plan, step=step, pending_tool_result=None))

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
    new_plan = planmod.build_plan(payload["tasks"], payload["edges"], plan_id=register.plan.plan_id + 1)
    return replace(
        register,
        plan_history=register.plan_history + (snapshot,),
        plan=new_plan,
        revisit_history=(),
        tool_log=(),
        step=step,
        pending_tool_result=None,
        folded=frozenset(),
    )


def _fold(register: Register) -> Register:
    """``register`` after a task_answer, folded when its version's FOLD_CHARS says so.

    The fold is due when a task is still open and the answered tasks'
    entries still shown render to more than the threshold. Version 3 then
    adds every entry logged so far to ``folded``; version 4 adds exactly
    those answered entries.
    """
    threshold = FOLD_CHARS.get(register.version)
    if threshold is None or planmod.is_complete(register.plan):
        return register
    nodes, hidden = register.plan.nodes, _folded_steps(register)
    answered = [
        entry
        for entry in register.tool_log
        if entry.step_index not in hidden and nodes[entry.task_id].status == planmod.ANSWERED
    ]
    # Measured on ``rendered_lines``, so a newline inside a fact counts as
    # a character: the trajectory version pins this measure with the threshold.
    if sum(len(line) for entry in answered for line in entry.rendered_lines) <= threshold:
        return register
    folding = register.tool_log if register.version == 3 else answered
    return replace(register, folded=register.folded.union(entry.step_index for entry in folding))


def _folded_steps(register: Register) -> frozenset[int]:
    """Step indices of the tool-log entries that the render leaves out."""
    if register.version >= 4:
        return register.folded
    if register.version < 3:
        return frozenset()
    nodes = register.plan.nodes
    return frozenset(
        entry.step_index
        for entry in register.tool_log
        if entry.step_index in register.folded and nodes[entry.task_id].status == planmod.ANSWERED
    )


# ---------------------------------------------------------------------------
# Rendering (every model input)
# ---------------------------------------------------------------------------


def _plan_lines(plan: DagPlan) -> list[str]:
    lines = ["Tasks:"]
    for tid in sorted(plan.nodes):
        lines.append(f"- {tid}: {plan.nodes[tid].description}")
    lines.append("Dependencies:")
    if plan.edges:
        lines.extend(f"- {src} -> {dst}" for src, dst in plan.edges)
    else:
        lines.append("- (none)")
    return lines


def _status_lines(plan: DagPlan) -> list[str]:
    lines = ["Status:"]
    for tid in sorted(plan.nodes):
        node = plan.nodes[tid]
        if node.status == planmod.ANSWERED:
            lines.append(f"- {tid}: answered = {node.answer}")
        else:
            lines.append(f"- {tid}: {node.status}")
    return lines


def _split(lines: Sequence[str]) -> tuple[str, ...]:
    """The lines of ``lines`` joined on newlines: each one split on the newlines inside it."""
    return tuple("\n".join(lines).split("\n"))


def render_head(prompt: str, question: str, intent: dict | None) -> tuple[str, ...]:
    """The lines a model input opens with: the prompt's ``prompt_lines``, the question, the intent payload if known."""
    lines = ["", "## Question", question]
    if intent is not None:
        lines += ("", "## Refined intent", f"Goal: {intent['refined_goal']}")
        if intent["constraints"]:
            lines.append("Constraints:")
            lines += (f"- {c}" for c in intent["constraints"])
        else:
            lines.append("Constraints: (none)")
    return (*prompt_lines(prompt).lines, *_split(lines))


def render_planning_context(prompt: str, question: str, intent: dict | None = None) -> tuple[str, ...]:
    """Model input for a planning turn, as its lines: intent refinement, or framing once ``intent`` is known."""
    kind = "intent_refinement" if intent is None else "problem_framing"
    return (*render_head(prompt, question, intent), "", f"Emit exactly one <{kind}> action now.")


def render_correction(diagnostic: str) -> tuple[str, ...]:
    """The ``## Correction`` block appended to an input re-sent after a rejected reply, as its lines."""
    rejected = f"Your previous response was rejected: {diagnostic}".split("\n")
    return ("", "## Correction", *rejected, "Emit exactly one corrected action block now.")


def render_context(register: Register, head: tuple[str, ...]) -> tuple[str, ...]:
    """Deterministic model input for one solving step after its ``render_head``, in the register's version's layout.

    The input's text is the lines joined on newlines. Section order is
    stable-first: prompt, question, intent, archived plans (each with its
    final statuses), current plan (tasks and dependencies), revisit
    history, tool log, then the current plan's "Status:" paragraph, and
    finally the one-turn raw tool output if a call just happened. A status
    flip therefore leaves everything before it a prefix of the next input.
    Version 1 renders the statuses inside the current plan section, before
    the revisit history. Versions 3 and 4 are version 2 without the folded
    tool-log entries (``_folded_steps``): the Status line states their
    answers. Empty sections are omitted entirely, and a blank line
    separates the sections. The head (prompt, question and intent) is
    built once per run, and each archived plan's and each tool-log entry's
    lines once per value: all are the same objects on every turn.
    """
    version = register.version
    lines = list(head)

    if register.plan_history:
        lines += ("", "## Archived plans")
        for snapshot in register.plan_history:
            lines += snapshot.lines

    plan_lines = _plan_lines(register.plan)
    status_lines = _status_lines(register.plan)
    if version == 1:
        plan_lines += status_lines
    lines += ("", f"## Current plan {register.plan.plan_id}", *_split(plan_lines))

    if register.revisit_history:
        revisits = [
            f'- {rec.task_id}: discarded answer "{rec.discarded_answer}" ({rec.reason})'
            for rec in register.revisit_history
        ]
        lines += ("", "## Revisited tasks", *_split(revisits))

    hidden = _folded_steps(register)
    log = [entry for entry in register.tool_log if entry.step_index not in hidden]
    if log:
        lines += ("", "## Tool log")
        for i, entry in enumerate(log):
            lines += entry.lines
            if not entry.extracted and i < len(log) - 1:
                lines.append("  (no facts extracted)")

    if version != 1:
        lines += ("", *_split(status_lines))

    if register.pending_tool_result is not None:
        documents: list[str] = []
        for doc in register.pending_tool_result.documents:
            documents += (f"[{doc.source_id}] {doc.title}", doc.text)
        lines += ("", "## Latest tool output", *_split(documents or ["(no documents returned)"]))

    return tuple(lines)
