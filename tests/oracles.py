"""Test-only oracles: plain restatements of quantities the program computes another way.

Nothing in ``dagsearch`` reads these; the tests check the program against
them, and the acceptance criteria are stated in their terms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from dagsearch.plan import ANSWERED, DagPlan, build_plan
from dagsearch.protocol import Action, ActionKind
from dagsearch.register import (
    Register,
    ToolLogEntry,
    _folded_steps,
    apply_action,
    render_context,
    render_head,
    token_length,
)
from dagsearch.tools import InputError
from dagsearch.trajectory import StepRecord, Trajectory
from helpers import make_action

def register_tokens(register: Register, question: str, stage_prompt: str, intent: dict) -> int:
    """Token count of the persistent render (ephemeral tool output excluded).

    In the version 1 and 2 layouts this quantity is non-decreasing within a
    plan epoch; the version 3 and 4 renders also shrink when answered tasks'
    entries are folded out. The full model input additionally carries the
    one-turn raw tool output and may shrink when that section expires.
    """
    stripped = replace(register, pending_tool_result=None)
    return token_length("\n".join(render_context(stripped, render_head(stage_prompt, question, intent))))


def _tool_log_lines(log: Sequence[ToolLogEntry]) -> list[str]:
    lines: list[str] = []
    for i, entry in enumerate(log):
        lines.extend(entry.rendered_lines)
        if not entry.extracted and i < len(log) - 1:
            lines.append("  (no facts extracted)")
    return lines


def _intent_section(intent: dict) -> str:
    lines = [f"Goal: {intent['refined_goal']}"]
    if intent["constraints"]:
        lines.append("Constraints:")
        lines.extend(f"- {c}" for c in intent["constraints"])
    else:
        lines.append("Constraints: (none)")
    return "## Refined intent\n" + "\n".join(lines)


def _plan_lines(plan: DagPlan) -> list[str]:
    lines = ["Tasks:"]
    lines.extend(f"- {tid}: {plan.nodes[tid].description}" for tid in sorted(plan.nodes))
    lines.append("Dependencies:")
    lines.extend([f"- {src} -> {dst}" for src, dst in plan.edges] or ["- (none)"])
    return lines


def _status_lines(plan: DagPlan) -> list[str]:
    lines = ["Status:"]
    for tid in sorted(plan.nodes):
        node = plan.nodes[tid]
        lines.append(f"- {tid}: answered = {node.answer}" if node.status == ANSWERED else f"- {tid}: {node.status}")
    return lines


def reference_planning_render(prompt: str, question: str, intent: dict | None = None) -> str:
    """A planning input as one text, sections joined on blank lines: the reference for ``render_planning_context``."""
    sections = [prompt.rstrip(), f"## Question\n{question}"]
    if intent is None:
        sections.append("Emit exactly one <intent_refinement> action now.")
    else:
        sections.append(_intent_section(intent))
        sections.append("Emit exactly one <problem_framing> action now.")
    return "\n\n".join(sections)


def reference_render(register: Register, question: str, stage_prompt: str, intent: dict | None) -> str:
    """The solving input as one text, built section by section: the reference for ``render_context``'s lines.

    Its head is ``render_head``'s with ``intent``, whose section is left out when it is None.

    Each section is its lines joined on newlines, and the sections are
    joined on blank lines; a value holding a newline is never split.
    """
    version = register.version
    sections: list[str] = [stage_prompt.rstrip()]
    sections.append(f"## Question\n{question}")
    if intent is not None:
        sections.append(_intent_section(intent))

    if register.plan_history:
        lines = []
        for snapshot in register.plan_history:
            lines.append(f"Plan {snapshot.plan.plan_id} (archived: {snapshot.reason})")
            lines.extend(_plan_lines(snapshot.plan))
            lines.extend(_status_lines(snapshot.plan))
        sections.append("## Archived plans\n" + "\n".join(lines))

    plan_lines = _plan_lines(register.plan)
    status_lines = _status_lines(register.plan)
    if version == 1:
        plan_lines += status_lines
    sections.append(f"## Current plan {register.plan.plan_id}\n" + "\n".join(plan_lines))

    if register.revisit_history:
        lines = [
            f'- {rec.task_id}: discarded answer "{rec.discarded_answer}" ({rec.reason})'
            for rec in register.revisit_history
        ]
        sections.append("## Revisited tasks\n" + "\n".join(lines))

    hidden = _folded_steps(register)
    log = [entry for entry in register.tool_log if entry.step_index not in hidden]
    if log:
        sections.append("## Tool log\n" + "\n".join(_tool_log_lines(log)))

    if version != 1:
        sections.append("\n".join(status_lines))

    if register.pending_tool_result is not None:
        lines = []
        for doc in register.pending_tool_result.documents:
            lines.append(f"[{doc.source_id}] {doc.title}")
            lines.append(doc.text)
        if not lines:
            lines.append("(no documents returned)")
        sections.append("## Latest tool output\n" + "\n".join(lines))

    return "\n\n".join(sections)


def reference_correction(context: str, diagnostic: str) -> str:
    """An input re-sent after a rejected reply, as one text: the reference for ``render_correction``'s lines."""
    return (
        f"{context}\n\n## Correction\nYour previous response was rejected: "
        f"{diagnostic}\nEmit exactly one corrected action block now."
    )


def reference_messages(context: str, system: str) -> list[dict]:
    """The chat messages of an input sent as one text: the reference for ``chat_messages``.

    The stage prompt ``system``, stripped of trailing whitespace, is found
    again at the start of ``context`` and sent as the system message, and
    the rest, its leading newlines stripped, as the user message. A prompt
    that is empty or not found sends ``context`` as one user message.
    """
    system = system.rstrip()
    if system and context.startswith(system):
        user = context[len(system) :].lstrip("\n")
        return [{"role": "system", "content": system}, {"role": "user", "content": user}]
    return [{"role": "user", "content": context}]


def _recorded(step: StepRecord) -> Action:
    """The action a recorded step took, validated as when it was parsed."""
    return make_action(ActionKind(step.kind), step.payload)


def rebuild_registers(trajectory: Trajectory) -> list[Register]:
    """Recompute the register after every solving step, from the record alone.

    The register update is pure, so this is exactly the state sequence the
    original run went through. Registers are frozen values that compare
    field by field, so audits and determinism checks compare these lists
    with ``==``.
    """
    planning = [_recorded(step) for step in trajectory.steps if step.stage == "planning"]
    if len(planning) < 2:
        raise ValueError("trajectory lacks the two planning steps")
    framing = planning[1].payload
    register = Register(build_plan(framing["tasks"], framing["edges"], plan_id=0), trajectory.version)
    registers = [register]
    for step in trajectory.steps:
        if step.stage != "solving":
            continue
        register = apply_action(register, _recorded(step), step.tool_result)
        registers.append(register)
    return registers


def cache_ratio(prev_tokens: Sequence, cur_tokens: Sequence) -> float:
    """Longest-common-prefix length over the current sequence length."""
    if len(cur_tokens) == 0:
        raise InputError("current token sequence is empty")
    shared = 0
    for a, b in zip(prev_tokens, cur_tokens):
        if a != b:
            break
        shared += 1
    return shared / len(cur_tokens)


def sft_corpus(trajectories: Iterable[Trajectory]) -> bytes:
    """The SFT corpus as ``json.dumps`` writes it: one record per step, each state joined whole."""
    return "".join(
        json.dumps(
            {"question_id": t.question_id, "step_index": s.index, "state": s.state, "action_raw_text": s.raw_text},
            ensure_ascii=False,
            sort_keys=True,
        )
        + "\n"
        for t in trajectories
        for s in t.steps
    ).encode("utf-8")


def naive_transcript(trajectory: Trajectory) -> str:
    """The full-history rendering a transcript-accumulating agent would carry.

    Prompt, question, then every raw model output and every raw tool document
    appended in order: the baseline the register rendering is compared to.
    """
    parts = [trajectory.prompts["solving"], f"## Question\n{trajectory.question}"]
    for step in trajectory.steps:
        parts.append(f"### Step {step.index}\n{step.model_text}")
        if step.tool_result is not None:
            lines = ["Observation:"]
            for doc in step.tool_result.documents:
                lines.append(f"[{doc.source_id}] {doc.title}")
                lines.append(doc.text)
            parts.append("\n".join(lines))
    return "\n\n".join(parts)


@dataclass(frozen=True)
class CompactnessReport:
    register_tokens: int
    transcript_tokens: int

    @property
    def ratio(self) -> float:
        return self.register_tokens / self.transcript_tokens


def context_compactness(trajectory: Trajectory) -> CompactnessReport:
    """Compare the final register-rendered input against the naive transcript."""
    solving = trajectory.solving_steps()
    if not solving:
        raise InputError("trajectory has no solving steps to compare")
    final_state = solving[-1].state
    return CompactnessReport(
        register_tokens=token_length(final_state),
        transcript_tokens=token_length(naive_transcript(trajectory)),
    )
