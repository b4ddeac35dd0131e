"""The run loop: holistic planning, then proactive solving, in one ``run``.

Two planning turns produce the refined intent and the initial DAG; solving
turns render the register, ask the model for one action each, execute tool
calls, and apply each action with deterministic code until a final answer,
the turn budget, or a context overflow ends the run. Every turn of either
stage goes through one pipeline (``_turn``) and one token counter, and
every typed failure is captured into the RunResult at one boundary instead
of escaping it. Every model input is rendered in ``register``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Callable, TypeVar

from .backend import Backend, BackendError, CompletionRequest, ReplayBackend
from .plan import DagPlan, build_plan, is_complete
from .protocol import Action, ActionKind, ProtocolError, parse_action
from .register import (
    LineTokenCounter,
    Register,
    apply_action,
    common_prefix_length,
    prompt_lines,
    render_context,
    render_correction,
    render_head,
    render_planning_context,
    token_length,
)
from .tools import ScriptedTool, ToolRegistry, ToolResult, ToolTransportError, search_spec
# RunConfig is re-exported: it describes the header of the trajectory it is recorded in.
from .trajectory import TRAJECTORY_VERSION, RunConfig, StepRecord, Trajectory

Clock = Callable[[], float]
T = TypeVar("T")


class EngineError(Exception):
    """A run that gave up: its retry budget is spent."""


class ContextOverflow(Exception):
    """A rendered input over the context cap: the run ends ``context_overflow``."""


# Typed failures captured into an aborted RunResult at the loop boundary.
_ABORTING = (EngineError, BackendError, ToolTransportError)


@dataclass(frozen=True)
class PromptPack:
    """Stage prompts are config, not code: defaults ship as text files."""

    holistic: str
    solving: str

    @classmethod
    def load_default(cls) -> "PromptPack":
        root = resources.files("dagsearch") / "prompts"
        return cls(
            holistic=(root / "holistic.txt").read_text(encoding="utf-8"),
            solving=(root / "solving.txt").read_text(encoding="utf-8"),
        )

    @classmethod
    def load(cls, holistic_path: str, solving_path: str) -> "PromptPack":
        return cls(*(Path(path).read_text(encoding="utf-8") for path in (holistic_path, solving_path)))


@dataclass
class RunResult:
    """Outcome of one run, read from its trajectory; ``answered`` iff the last action is final_answer."""

    trajectory: Trajectory

    @property
    def outcome(self) -> str:  # answered | budget_exhausted | context_overflow | aborted
        return self.trajectory.outcome

    @property
    def answer(self) -> str | None:
        return self.trajectory.answer

    @property
    def error(self) -> str | None:
        return self.trajectory.error


def _turn(
    backend: Backend,
    trajectory: Trajectory,
    config: RunConfig,
    counter: LineTokenCounter,
    stage: str,
    system_lines: int,
    lines: tuple[str, ...],
    check: Callable[[Action], tuple[ToolResult | None, T]],
) -> tuple[Action, T]:
    """One turn of either stage: cap, complete, parse, check, execute, apply, record.

    The model input comes as its ``lines``, the first ``system_lines`` of
    them the stage prompt's. The run's ``counter``, which tokenizes only
    lines it has never counted, counts them once for the cap and the
    step's ``token_count``; the step records, and the request sends, the
    counter's ``lines``, whose unchanged head is the previous step's own
    strings; the step's ``shared`` is that head's length, found once by
    the counter. ``check`` takes the parsed action, runs the stage's checks and
    its tool call, and returns (tool result, applied update). A
    ProtocolError re-sends the input with ``render_correction``'s lines,
    whose tokens the cap counts too; once the budget is spent, 0 included,
    EngineError. An input over the cap raises ContextOverflow before its
    completion is requested.
    """
    token_count = count = counter(lines)
    lines = request = counter.lines
    shared = min(counter.same, len(lines) - 1)
    diagnostics: list[str] = []
    while True:
        if count > config.max_context_tokens:
            raise ContextOverflow(f"rendered context is {count} tokens, over the {config.max_context_tokens}-token cap")
        raw = backend.complete(CompletionRequest(request, system_lines, config.max_output_tokens, config.temperature))
        try:
            action = parse_action(raw, strict=config.strict_protocol)
            tool_result, update = check(action)
            break
        except ProtocolError as exc:
            diagnostics.append(str(exc))
        if len(diagnostics) > config.max_malformed_retries:
            raise EngineError(
                f"gave up after {len(diagnostics)} rejected responses; last problem: {diagnostics[-1]}"
            )
        correction = render_correction(diagnostics[-1])
        request, count = lines + correction, token_count + sum(map(token_length, correction))
    trajectory.steps.append(
        StepRecord(
            index=len(trajectory.steps) + 1,
            stage=stage,
            lines=lines,
            shared=shared,
            kind=action.kind.value,
            payload=action.payload,
            raw_text=action.raw_text,
            model_text=raw,
            token_count=token_count,
            diagnostics=tuple(diagnostics),
            tool_result=tool_result,
        )
    )
    return action, update


def _payload_of(kind: ActionKind, action: Action) -> dict:
    """The payload of ``action``, which must be the one kind the stage allows."""
    if action.kind is not kind:
        raise ProtocolError(f"expected a <{kind.value}> action in this stage, got <{action.kind.value}>")
    return action.payload


def _refined_intent(action: Action) -> tuple[None, dict]:
    return None, _payload_of(ActionKind.INTENT_REFINEMENT, action)


def _framing(action: Action) -> tuple[None, DagPlan]:
    payload = _payload_of(ActionKind.PROBLEM_FRAMING, action)
    return None, build_plan(payload["tasks"], payload["edges"], plan_id=0)


def _finish(
    trajectory: Trajectory,
    clock: Clock,
    outcome: str,
    *,
    answer: str | None = None,
    error: str | None = None,
) -> RunResult:
    trajectory.outcome = outcome
    trajectory.answer = answer
    trajectory.error = error
    trajectory.finished_at = clock()
    return RunResult(trajectory)


def run(
    question: str,
    *,
    backend: Backend,
    tools: ToolRegistry,
    config: RunConfig | None = None,
    prompts: PromptPack | None = None,
    question_id: str = "",
    clock: Clock = time.time,
    version: int = TRAJECTORY_VERSION,
) -> RunResult:
    """One run: intent refinement, problem framing, then the solving loop.

    Every turn goes through ``_turn`` with one token counter for the run,
    and every typed failure of either stage ends the run at one boundary.
    ``version`` is the trajectory version the run is recorded in, which
    also selects the solving-input layout; replay passes the recorded one.
    A question or question id that no trajectory file could hold (a lone
    surrogate) raises UnicodeEncodeError, a ValueError, before any turn.
    """
    question.encode("utf-8")
    question_id.encode("utf-8")
    config = config or RunConfig()
    prompts = prompts or PromptPack.load_default()
    trajectory = Trajectory(
        question=question,
        question_id=question_id,
        prompts={"holistic": prompts.holistic, "solving": prompts.solving},
        config=config,
        started_at=clock(),
        version=version,
    )
    holistic, solving = prompt_lines(prompts.holistic), prompt_lines(prompts.solving)
    # Local to this call: parallel evals run on several threads. It opens
    # knowing both stage prompts' lines, counted once per prompt text.
    counter = LineTokenCounter({**holistic.counts, **solving.counts})

    turn = partial(_turn, backend, trajectory, config, counter)

    def solving_check(action: Action) -> tuple[ToolResult | None, Register]:
        # ``register`` is the current turn's: the loop below rebinds it.
        tool_result: ToolResult | None = None
        if action.kind is ActionKind.TOOL_CALL:
            register.plan.task(action.payload["task_id"])  # an unknown task fails before the tool runs
            tool_result = tools.invoke(action.payload["tool_name"], action.payload["arguments"])
        if action.kind is ActionKind.FINAL_ANSWER and not is_complete(register.plan):
            pending = [
                tid
                for tid in sorted(register.plan.nodes)
                if register.plan.nodes[tid].status != "answered"
            ]
            raise ProtocolError(
                "final_answer is only legal once every sub-task is answered; "
                f"still open: {', '.join(pending)}"
            )
        return tool_result, apply_action(register, action, tool_result)

    try:
        planning = render_planning_context(prompts.holistic, question)
        _, intent = turn("planning", len(holistic.lines), planning, _refined_intent)
        planning = render_planning_context(prompts.holistic, question, intent)
        _, plan = turn("planning", len(holistic.lines), planning, _framing)
        register = Register(plan, trajectory.version)
        head = render_head(prompts.solving, question, intent)
        for _ in range(config.max_turns):
            action, register = turn("solving", len(solving.lines), render_context(register, head), solving_check)
            if action.kind is ActionKind.FINAL_ANSWER:
                return _finish(trajectory, clock, "answered", answer=action.payload["answer"])
    except ContextOverflow as exc:
        return _finish(trajectory, clock, "context_overflow", error=str(exc))
    except _ABORTING as exc:
        return _finish(trajectory, clock, "aborted", error=f"{type(exc).__name__}: {exc}")
    return _finish(
        trajectory, clock, "budget_exhausted", error=f"no final answer within {config.max_turns} turns"
    )


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def replay_tools(trajectory: Trajectory) -> ToolRegistry:
    """A registry serving the recorded tool results in recorded order."""
    queues: dict[str, ScriptedTool] = {}  # in order of first call
    for step in trajectory.steps:
        if step.kind == ActionKind.TOOL_CALL.value:  # load checked it has a tool result
            queues.setdefault(step.payload["tool_name"], ScriptedTool()).results.append(step.tool_result)
    registry = ToolRegistry()
    for name, tool in queues.items():
        registry.register(search_spec(name, "Replay of recorded tool results."), tool)
    return registry


# Step fields a replay cannot reproduce yet: it re-serves only each step's
# accepted reply, so every replayed step has no diagnostics, and so no
# retries. A trajectory version that records the rejected replies (ROADMAP
# item 2, planned for version 5) deletes this tuple.
UNREPLAYED_FIELDS = ("diagnostics",)
_REPLAYED_FIELDS = tuple(f.name for f in fields(StepRecord) if f.name not in UNREPLAYED_FIELDS)


def replay_divergence(recorded: Trajectory, replayed: Trajectory, strict: bool) -> str | None:
    """The first way ``replayed`` departs from ``recorded``, or None if it does not.

    With ``strict``, every step field but UNREPLAYED_FIELDS, step by step,
    then the step count; a text field also gives the character where it
    first differs. Always, the outcome and the answer.
    """
    if strict:
        for number, (old, new) in enumerate(zip(recorded.steps, replayed.steps), start=1):
            for name in _REPLAYED_FIELDS:
                was, now = getattr(old, name), getattr(new, name)
                if was != now:
                    if name == "lines":  # the recorded field is the input text
                        name, was, now = "state", old.state, new.state
                    where = ""
                    if isinstance(was, str) and isinstance(now, str):
                        where = f", character {common_prefix_length(was, now)}"
                    return f"step {number}: {name} diverges from the recording{where}"
        if len(recorded.steps) != len(replayed.steps):
            return f"steps: recorded {len(recorded.steps)}, replayed {len(replayed.steps)}"
    if recorded.outcome != replayed.outcome:
        return f"outcome: recorded {recorded.outcome}, replayed {replayed.outcome}"
    if recorded.answer != replayed.answer:
        return f"answer: recorded {recorded.answer!r}, replayed {replayed.answer!r}"
    return None


def replay_run(
    trajectory: Trajectory,
    *,
    strict: bool = False,
    clock: Clock = time.time,
) -> RunResult:
    """Re-execute a recorded run against its own model outputs and tool results.

    With ``strict=True`` a replay that ``replay_divergence`` finds departing
    from the recording ends ``aborted``, its error starting
    ``ReplayDivergence:``. The run renders under the recorded trajectory
    version's layout, so a version 1 recording replays as it was recorded.
    """
    result = run(
        trajectory.question,
        backend=ReplayBackend(outputs=[step.model_text for step in trajectory.steps]),
        tools=replay_tools(trajectory),
        config=trajectory.config,
        prompts=PromptPack(**trajectory.prompts),
        question_id=trajectory.question_id,
        clock=clock,
        version=trajectory.version,
    )
    if strict and (divergence := replay_divergence(trajectory, result.trajectory, strict=True)):
        return _finish(result.trajectory, clock, "aborted", error=f"ReplayDivergence: {divergence}")
    return result
