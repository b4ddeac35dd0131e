"""Two-stage agentic loop: holistic planning, then proactive solving.

Planning produces the refined intent and the initial DAG; solving renders
the register, asks the model for one action per turn, executes tool calls,
and applies each action with deterministic code until a final answer, the
turn budget, or a context overflow ends the run. Every typed failure is
captured into the RunResult instead of escaping the boundary.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from importlib import resources
from typing import Callable

from .backend import Backend, BackendError, CompletionRequest, ReplayBackend
from .plan import DagPlan, PlanError, build_plan, is_complete
from .protocol import (
    Action,
    ActionKind,
    IntentPayload,
    ProtocolError,
    parse_action,
)
from .register import (
    ContextOverflow,
    LineTokenCounter,
    Register,
    RegisterError,
    apply_action,
    capped_token_length,
    init_register,
    render_context,
)
from .tools import (
    ArgumentSchemaViolation,
    ScriptedTool,
    ToolError,
    ToolRegistry,
    ToolResult,
    UnknownTool,
    search_spec,
)
from .trajectory import StepRecord, Trajectory

Clock = Callable[[], float]


class EngineError(Exception):
    @property
    def diagnostic(self) -> str:
        return str(self)


class WrongActionKind(EngineError):
    pass


class FinalBeforeComplete(EngineError):
    pass


class RetriesExhausted(EngineError):
    pass


# Failures the model can plausibly fix when shown the diagnostic.
_REPROMPTABLE = (
    ProtocolError,
    PlanError,
    RegisterError,
    UnknownTool,
    ArgumentSchemaViolation,
    WrongActionKind,
    FinalBeforeComplete,
)

# Typed failures captured into an aborted RunResult at the loop boundary.
_ABORTING = (EngineError, BackendError, ToolError, ProtocolError, PlanError, RegisterError)


@dataclass
class RunConfig:
    max_turns: int = 40
    max_context_tokens: int = 32_000
    max_malformed_retries: int = 2
    top_k: int = 3
    temperature: float = 0.0
    max_output_tokens: int = 1024
    strict_protocol: bool = False

    def __post_init__(self) -> None:
        for name in ("max_turns", "max_context_tokens", "top_k", "max_output_tokens"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_malformed_retries < 0:
            raise ValueError("max_malformed_retries must be non-negative")


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
        with open(holistic_path, "r", encoding="utf-8") as handle:
            holistic = handle.read()
        with open(solving_path, "r", encoding="utf-8") as handle:
            solving = handle.read()
        return cls(holistic=holistic, solving=solving)


@dataclass
class RunResult:
    """Outcome of one run; ``answered`` iff the last action is final_answer."""

    outcome: str  # answered | budget_exhausted | context_overflow | aborted
    answer: str | None
    error: str | None
    trajectory: Trajectory


def render_planning_context(
    prompt: str, question: str, intent: IntentPayload | None = None
) -> str:
    sections = [prompt.rstrip(), f"## Question\n{question}"]
    if intent is None:
        sections.append("Emit exactly one <intent_refinement> action now.")
    else:
        lines = [f"Goal: {intent.refined_goal}"]
        if intent.constraints:
            lines.append("Constraints:")
            lines.extend(f"- {c}" for c in intent.constraints)
        else:
            lines.append("Constraints: (none)")
        sections.append("## Refined intent\n" + "\n".join(lines))
        sections.append("Emit exactly one <problem_framing> action now.")
    return "\n\n".join(sections)


def _request(context: str, system: str, config: RunConfig) -> CompletionRequest:
    return CompletionRequest(
        context=context,
        system=system,
        max_output_tokens=config.max_output_tokens,
        temperature=config.temperature,
    )


def _with_correction(base_context: str, diagnostic: str) -> str:
    return (
        f"{base_context}\n\n## Correction\nYour previous response was rejected: "
        f"{diagnostic}\nEmit exactly one corrected action block now."
    )


def handle_malformed(
    backend: Backend,
    base_context: str,
    diagnostic: str,
    retries_left: int,
    *,
    system: str,
    config: RunConfig,
    validate: Callable[[str], object],
):
    """Re-issue the completion with the diagnostic appended until it validates.

    Returns (validated result, raw model text, diagnostics consumed); raises
    RetriesExhausted once the budget is spent.
    """
    diagnostics = [diagnostic]
    while True:
        if retries_left <= 0:
            raise RetriesExhausted(
                f"gave up after {len(diagnostics)} rejected responses; last problem: {diagnostics[-1]}"
            )
        retries_left -= 1
        raw = backend.complete(_request(_with_correction(base_context, diagnostics[-1]), system, config))
        try:
            return validate(raw), raw, diagnostics
        except _REPROMPTABLE as exc:
            diagnostics.append(str(exc))


def _complete_validated(
    backend: Backend,
    base_context: str,
    *,
    system: str,
    config: RunConfig,
    validate: Callable[[str], object],
):
    raw = backend.complete(_request(base_context, system, config))
    try:
        return validate(raw), raw, []
    except _REPROMPTABLE as exc:
        if config.max_malformed_retries == 0:
            raise
        return handle_malformed(
            backend,
            base_context,
            str(exc),
            config.max_malformed_retries,
            system=system,
            config=config,
            validate=validate,
        )


def holistic_planning(
    backend: Backend,
    question: str,
    prompts: PromptPack,
    config: RunConfig | None = None,
    trajectory: Trajectory | None = None,
) -> tuple[IntentPayload, DagPlan]:
    """Intent refinement followed by problem framing, both validated.

    The second completion's context includes the refined intent. Each stage
    re-prompts on protocol or plan errors within the retry budget. Each
    input is checked against the context cap before it is sent; over the
    cap, ContextOverflow is raised and no completion is requested.
    """
    config = config or RunConfig()

    def expect(kind: ActionKind) -> Callable[[str], Action]:
        def validate(raw: str) -> Action:
            action = parse_action(raw, strict=config.strict_protocol)
            if action.kind is not kind:
                raise WrongActionKind(
                    f"expected a <{kind.value}> action in this stage, got <{action.kind.value}>"
                )
            return action

        return validate

    intent_context = render_planning_context(prompts.holistic, question)
    intent_tokens = capped_token_length(intent_context, config.max_context_tokens)
    intent_action, raw, diags = _complete_validated(
        backend,
        intent_context,
        system=prompts.holistic,
        config=config,
        validate=expect(ActionKind.INTENT_REFINEMENT),
    )
    intent = IntentPayload.from_payload(intent_action.payload)
    if trajectory is not None:
        trajectory.steps.append(
            StepRecord(
                index=len(trajectory.steps) + 1,
                stage="planning",
                state=intent_context,
                kind=intent_action.kind.value,
                payload=intent_action.payload,
                raw_text=intent_action.raw_text,
                model_text=raw,
                token_count=intent_tokens,
                retries=len(diags),
                diagnostics=tuple(diags),
            )
        )

    framing_context = render_planning_context(prompts.holistic, question, intent)
    framing_tokens = capped_token_length(framing_context, config.max_context_tokens)

    def validate_framing(raw_text: str) -> tuple[Action, DagPlan]:
        action = expect(ActionKind.PROBLEM_FRAMING)(raw_text)
        plan = build_plan(action.payload["tasks"], [tuple(e) for e in action.payload["edges"]], plan_id=0)
        return action, plan

    (framing_action, plan), raw, diags = _complete_validated(
        backend,
        framing_context,
        system=prompts.holistic,
        config=config,
        validate=validate_framing,
    )
    if trajectory is not None:
        trajectory.steps.append(
            StepRecord(
                index=len(trajectory.steps) + 1,
                stage="planning",
                state=framing_context,
                kind=framing_action.kind.value,
                payload=framing_action.payload,
                raw_text=framing_action.raw_text,
                model_text=raw,
                token_count=framing_tokens,
                retries=len(diags),
                diagnostics=tuple(diags),
            )
        )
    return intent, plan


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
    return RunResult(outcome=outcome, answer=answer, error=error, trajectory=trajectory)


def solve(
    backend: Backend,
    tools: ToolRegistry,
    question: str,
    config: RunConfig,
    *,
    register: Register,
    prompts: PromptPack,
    trajectory: Trajectory,
    clock: Clock = time.time,
) -> RunResult:
    """The proactive solving loop over an initialized register.

    Each turn renders the model input once and counts its tokens once,
    tokenizing only the lines the previous turn's input lacked; that one
    count is both the context-cap check and the step's ``token_count``.
    """

    # Local to this call: parallel evals run solve on several threads.
    counter = LineTokenCounter()
    for _ in range(config.max_turns):
        context = render_context(register, question, prompts.solving)
        try:
            token_count = capped_token_length(context, config.max_context_tokens, counter)
        except ContextOverflow as exc:
            return _finish(trajectory, clock, "context_overflow", error=str(exc))

        def validate(raw: str) -> tuple[Action, ToolResult | None, Register]:
            action = parse_action(raw, strict=config.strict_protocol)
            tool_result: ToolResult | None = None
            if action.kind is ActionKind.TOOL_CALL:
                task_id = action.payload["task_id"]
                if task_id not in register.plan.nodes:
                    raise PlanError(f'task "{task_id}" is not in the current plan')
                tool_result = tools.invoke(action.payload["tool_name"], action.payload["arguments"])
            if action.kind is ActionKind.FINAL_ANSWER and not is_complete(register.plan):
                pending = [
                    tid
                    for tid in sorted(register.plan.nodes)
                    if register.plan.nodes[tid].status != "answered"
                ]
                raise FinalBeforeComplete(
                    "final_answer is only legal once every sub-task is answered; "
                    f"still open: {', '.join(pending)}"
                )
            new_register = apply_action(register, action, tool_result)
            return action, tool_result, new_register

        try:
            (action, tool_result, new_register), raw, diags = _complete_validated(
                backend, context, system=prompts.solving, config=config, validate=validate
            )
        except _ABORTING as exc:
            return _finish(trajectory, clock, "aborted", error=f"{type(exc).__name__}: {exc}")

        trajectory.steps.append(
            StepRecord(
                index=len(trajectory.steps) + 1,
                stage="solving",
                state=context,
                kind=action.kind.value,
                payload=action.payload,
                raw_text=action.raw_text,
                model_text=raw,
                token_count=token_count,
                retries=len(diags),
                diagnostics=tuple(diags),
                tool_result=tool_result,
            )
        )
        register = new_register
        if action.kind is ActionKind.FINAL_ANSWER:
            return _finish(trajectory, clock, "answered", answer=action.payload["answer"])

    return _finish(
        trajectory, clock, "budget_exhausted", error=f"no final answer within {config.max_turns} turns"
    )


def run(
    question: str,
    *,
    backend: Backend,
    tools: ToolRegistry,
    config: RunConfig | None = None,
    prompts: PromptPack | None = None,
    question_id: str = "",
    clock: Clock = time.time,
) -> RunResult:
    """Programmatic entry point: plan, initialize the register, and solve."""
    config = config or RunConfig()
    prompts = prompts or PromptPack.load_default()
    trajectory = Trajectory(
        question=question,
        question_id=question_id,
        prompts={"holistic": prompts.holistic, "solving": prompts.solving},
        config=asdict(config),
        started_at=clock(),
    )
    try:
        intent, plan = holistic_planning(backend, question, prompts, config, trajectory)
    except ContextOverflow as exc:
        return _finish(trajectory, clock, "context_overflow", error=str(exc))
    except _ABORTING as exc:
        return _finish(trajectory, clock, "aborted", error=f"{type(exc).__name__}: {exc}")
    register = init_register(intent, plan)
    return solve(
        backend,
        tools,
        question,
        config,
        register=register,
        prompts=prompts,
        trajectory=trajectory,
        clock=clock,
    )


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def rebuild_registers(trajectory: Trajectory) -> list[Register]:
    """Recompute the register after every solving step, from the record alone.

    The register update is pure, so this is exactly the state sequence the
    original run went through; audits and determinism checks compare these
    snapshots byte for byte.
    """
    planning = [step for step in trajectory.steps if step.stage == "planning"]
    if len(planning) < 2:
        raise ValueError("trajectory lacks the two planning steps")
    intent = IntentPayload.from_payload(planning[0].payload)
    plan = build_plan(
        planning[1].payload["tasks"],
        [tuple(e) for e in planning[1].payload["edges"]],
        plan_id=0,
    )
    register = init_register(intent, plan)
    registers = [register]
    for step in trajectory.steps:
        if step.stage != "solving":
            continue
        action = Action.create(ActionKind(step.kind), step.payload)
        register = apply_action(register, action, step.tool_result)
        registers.append(register)
    return registers


def replay_tools(trajectory: Trajectory) -> ToolRegistry:
    """A registry serving the recorded tool results in recorded order."""
    queues: dict[str, ScriptedTool] = {}
    order: list[str] = []
    for step in trajectory.steps:
        if step.kind == ActionKind.TOOL_CALL.value and step.tool_result is not None:
            name = step.payload["tool_name"]
            if name not in queues:
                queues[name] = ScriptedTool()
                order.append(name)
            queues[name].results.append(step.tool_result)
    registry = ToolRegistry()
    for name in order:
        registry.register(search_spec(name, "Replay of recorded tool results."), queues[name])
    return registry


def replay_run(
    trajectory: Trajectory,
    *,
    strict: bool = False,
    clock: Clock = time.time,
) -> RunResult:
    """Re-execute a recorded run against its own actions and tool results.

    With ``strict=True`` the re-rendered context at every step must equal
    the recorded one; drift raises ReplayDivergence (captured as an aborted
    RunResult).
    """
    backend = ReplayBackend(
        steps=[(step.state, step.model_text) for step in trajectory.steps],
        strict=strict,
    )
    prompts = PromptPack(
        holistic=trajectory.prompts.get("holistic", ""),
        solving=trajectory.prompts.get("solving", ""),
    )
    config = RunConfig(**trajectory.config) if trajectory.config else RunConfig()
    return run(
        trajectory.question,
        backend=backend,
        tools=replay_tools(trajectory),
        config=config,
        prompts=prompts,
        question_id=trajectory.question_id,
        clock=clock,
    )
