import dataclasses
import hashlib
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dagsearch.engine
import dagsearch.register
import dagsearch.tools
from dagsearch.backend import Backend, ScriptedBackend
from dagsearch.engine import (
    UNREPLAYED_FIELDS,
    PromptPack,
    RunConfig,
    replay_divergence,
    replay_run,
    run,
)
from dagsearch.plan import ACTIVE, ANSWERED, PENDING, mark_active
from dagsearch.protocol import ProtocolError, parse_action
from dagsearch.register import default_tokenizer, render_correction, render_planning_context, token_length
from dagsearch.tools import (
    Document,
    InputError,
    ScriptedTool,
    ToolRegistry,
    ToolResult,
    ToolTransportError,
    search_spec,
    validate_arguments,
)
from dagsearch.trajectory import Trajectory
from helpers import (
    DATA_DIR,
    TWO_HOP_QUESTION,
    assert_line_deltas,
    fixed_clock,
    fixture_registry,
    make_plan,
    mutate_action,
    random_action,
    run_fold,
    run_twenty_turn,
    run_two_hop,
    two_hop_responses,
)
from oracles import rebuild_registers, register_tokens

PROMPTS = PromptPack.load_default()

INTENT = '<intent_refinement>{"refined_goal": "Find it.", "constraints": []}</intent_refinement>'
FRAMING = (
    '<problem_framing>{"tasks": [{"task_id": "t1", "description": "only task"}], '
    '"edges": []}</problem_framing>'
)
CYCLIC = (
    '<problem_framing>{"tasks": [{"task_id": "a", "description": "d"}, '
    '{"task_id": "b", "description": "d"}], "edges": [["a","b"],["b","a"]]}</problem_framing>'
)
ANSWER_T1 = '<task_answer>{"answers": [{"task_id": "t1", "answer": "x"}]}</task_answer>'
FINAL = '<final_answer>{"answer": "x"}</final_answer>'
# The error of a run whose one rejected reply spent a retry budget of 0.
GAVE_UP = "EngineError: gave up after 1 rejected responses; last problem: "


class RecordingBackend(Backend):
    """Wraps a scripted backend and keeps every request's text: its lines joined on newlines."""

    def __init__(self, responses):
        self.inner = ScriptedBackend(responses=responses)
        self.contexts = []

    def complete(self, request):
        self.contexts.append("\n".join(request.lines))
        return self.inner.complete(request)


def empty_registry():
    return ToolRegistry()


def run_once(responses, config=None):
    """A run over scripted ``responses`` that records every request context."""
    backend = RecordingBackend(responses)
    result = run(
        "q?",
        backend=backend,
        tools=empty_registry(),
        config=config or RunConfig(),
        prompts=PROMPTS,
        clock=fixed_clock(),
    )
    return result, backend.contexts


class TestHolisticPlanning:
    def test_happy_path(self):
        result, _ = run_once([INTENT, FRAMING, ANSWER_T1, FINAL])
        assert result.outcome == "answered"
        assert [step.stage for step in result.trajectory.steps[:2]] == ["planning", "planning"]
        initial = rebuild_registers(result.trajectory)[0]
        assert "Goal: Find it." in result.trajectory.solving_steps()[0].lines
        assert initial.plan.plan_id == 0
        assert set(initial.plan.nodes) == {"t1"}

    def test_wrong_kind_surfaces_without_retries(self):
        tool = '<tool_call>{"task_id": "t1", "tool_name": "search", "arguments": {}}</tool_call>'
        result, contexts = run_once([tool], RunConfig(max_malformed_retries=0))
        assert result.outcome == "aborted"
        assert result.error.startswith(f"{GAVE_UP}expected a <intent_refinement> action")
        assert len(contexts) == 1
        assert result.trajectory.steps == []

    def test_recovers_from_cyclic_framing_within_retry_budget(self):
        result, contexts = run_once([INTENT, CYCLIC, FRAMING, ANSWER_T1, FINAL], RunConfig(max_malformed_retries=1))
        assert result.outcome == "answered"
        assert set(rebuild_registers(result.trajectory)[0].plan.nodes) == {"t1"}
        assert "## Correction" in contexts[2]
        assert "cycle" in contexts[2]
        # with no retry budget the first rejected framing spends it: the run gives up
        aborted, _ = run_once([INTENT, CYCLIC], RunConfig(max_malformed_retries=0))
        assert aborted.outcome == "aborted"
        assert aborted.error == f"{GAVE_UP}dependency edges form a cycle through: a, b"
        assert [step.kind for step in aborted.trajectory.steps] == ["intent_refinement"]

    def test_second_context_includes_refined_intent(self):
        _, contexts = run_once([INTENT, FRAMING, ANSWER_T1, FINAL])
        assert "Find it." in contexts[1]
        assert "<problem_framing>" in contexts[1]


class TestSolveEndToEnd:
    def test_two_hop_scripted_run(self):
        result = run_two_hop()
        assert result.outcome == "answered"
        assert result.answer == "1096"
        kinds = [step.kind for step in result.trajectory.steps]
        assert kinds == [
            "intent_refinement",
            "problem_framing",
            "tool_call",
            "doc_extraction",
            "task_answer",
            "tool_call",
            "doc_extraction",
            "task_answer",
            "final_answer",
        ]
        tool_steps = [s for s in result.trajectory.steps if s.kind == "tool_call"]
        assert all(s.tool_result is not None for s in tool_steps)
        assert all(len(s.tool_result.documents) == 3 for s in tool_steps)
        solving = result.trajectory.solving_steps()
        assert len(solving) == 7
        assert solving[-1].kind == "final_answer"

    def test_retrospection_flow_end_to_end(self):
        framing_chain = (
            '<problem_framing>{"tasks": [{"task_id": "t1", "description": "first hop"}, '
            '{"task_id": "t2", "description": "second hop"}], "edges": [["t1", "t2"]]}</problem_framing>'
        )
        responses = [
            INTENT,
            framing_chain,
            '<task_answer>{"answers": [{"task_id": "t1", "answer": "guess"}]}</task_answer>',
            '<task_answer>{"answers": [{"task_id": "t2", "answer": "derived"}]}</task_answer>',
            '<revisit_task>{"task_id": "t1", "reason": "the guess contradicts the evidence"}</revisit_task>',
            '<replanning>{"reason": "one lookup suffices", "tasks": [{"task_id": "r1", '
            '"description": "single lookup"}], "edges": []}</replanning>',
            '<task_answer>{"answers": [{"task_id": "r1", "answer": "direct"}]}</task_answer>',
            '<final_answer>{"answer": "direct"}</final_answer>',
        ]
        result = run(
            "q?",
            backend=ScriptedBackend(responses=responses),
            tools=empty_registry(),
            config=RunConfig(),
            prompts=PROMPTS,
            clock=fixed_clock(),
        )
        assert result.outcome == "answered"
        registers = rebuild_registers(result.trajectory)
        after_revisit = registers[3]
        assert len(after_revisit.revisit_history) == 2
        assert {r.task_id for r in after_revisit.revisit_history} == {"t1", "t2"}
        assert after_revisit.plan.nodes["t1"].status == "pending"
        after_replan = registers[4]
        assert len(after_replan.plan_history) == 1
        assert after_replan.plan.plan_id == 1
        assert after_replan.revisit_history == ()
        # the run's rendered states surface both retrospection sections
        states = [s.state for s in result.trajectory.solving_steps()]
        assert any("## Revisited tasks" in s and "guess" in s for s in states)
        assert any("## Archived plans" in s for s in states)

    def test_budget_exhausted(self):
        loop = [
            '<tool_call>{"task_id": "t1", "tool_name": "search", "arguments": {"query": "q"}}</tool_call>',
            '<doc_extraction>{"task_id": "t1", "facts": ["f"], "source_ids": []}</doc_extraction>',
        ] * 21
        backend = ScriptedBackend(responses=[INTENT, FRAMING] + loop)
        registry = ToolRegistry()
        registry.register(
            search_spec("search", "endless"), lambda args: ToolResult(documents=())
        )
        result = run(
            "q?",
            backend=backend,
            tools=registry,
            config=RunConfig(max_turns=40),
            prompts=PROMPTS,
            clock=fixed_clock(),
        )
        assert result.outcome == "budget_exhausted"
        assert len(result.trajectory.solving_steps()) == 40

    def test_premature_final_reprompted_once_then_aborted(self):
        backend = RecordingBackend([INTENT, FRAMING, FINAL, FINAL])
        result = run(
            "q?",
            backend=backend,
            tools=empty_registry(),
            config=RunConfig(max_malformed_retries=1),
            prompts=PROMPTS,
            clock=fixed_clock(),
        )
        assert result.outcome == "aborted"
        assert result.error.startswith(
            "EngineError: gave up after 2 rejected responses; last problem: final_answer is only legal once"
        )
        # exactly one re-prompt happened
        assert len(backend.contexts) == 4
        assert "## Correction" in backend.contexts[3]

    def test_premature_final_then_corrected(self):
        backend = ScriptedBackend(responses=[INTENT, FRAMING, FINAL, ANSWER_T1, FINAL])
        result = run(
            "q?",
            backend=backend,
            tools=empty_registry(),
            config=RunConfig(max_malformed_retries=1),
            prompts=PROMPTS,
            clock=fixed_clock(),
        )
        assert result.outcome == "answered"
        first_solving = result.trajectory.solving_steps()[0]
        assert first_solving.kind == "task_answer"
        assert first_solving.retries == 1

    def test_planning_action_mid_solve_is_reprompted(self):
        backend = RecordingBackend([INTENT, FRAMING, INTENT, ANSWER_T1, FINAL])
        result = run(
            "q?",
            backend=backend,
            tools=empty_registry(),
            config=RunConfig(max_malformed_retries=1),
            prompts=PROMPTS,
            clock=fixed_clock(),
        )
        assert result.outcome == "answered"
        assert "planning action" in backend.contexts[3]

    def test_malformed_then_recovered(self):
        backend = RecordingBackend([INTENT, FRAMING, "no block here", "<bad", ANSWER_T1, FINAL])
        result = run(
            "q?",
            backend=backend,
            tools=empty_registry(),
            config=RunConfig(max_malformed_retries=2),
            prompts=PROMPTS,
            clock=fixed_clock(),
        )
        assert result.outcome == "answered"
        assert result.trajectory.solving_steps()[0].retries == 2
        assert "## Correction" in backend.contexts[3]
        assert "no action block" in backend.contexts[3]

    def test_retries_exhausted_aborts(self):
        backend = ScriptedBackend(responses=[INTENT, FRAMING, "bad", "bad", "bad"])
        result = run(
            "q?",
            backend=backend,
            tools=empty_registry(),
            config=RunConfig(max_malformed_retries=2),
            prompts=PROMPTS,
            clock=fixed_clock(),
        )
        assert result.outcome == "aborted"
        assert result.error.startswith("EngineError: gave up after 3 rejected responses; last problem: no action block")

    def test_context_overflow_outcome(self):
        backend = ScriptedBackend(responses=[INTENT, FRAMING, FINAL])
        result = run(
            "q?",
            backend=backend,
            tools=empty_registry(),
            config=RunConfig(max_context_tokens=50),
            prompts=PROMPTS,
            clock=fixed_clock(),
        )
        assert result.outcome == "context_overflow"
        assert "over the 50-token cap" in result.error

    def test_planning_input_over_cap_requests_no_completion(self):
        backend = RecordingBackend([INTENT, FRAMING, FINAL])
        result = run(
            "q?",
            backend=backend,
            tools=empty_registry(),
            config=RunConfig(max_context_tokens=50),
            prompts=PROMPTS,
            clock=fixed_clock(),
        )
        assert result.outcome == "context_overflow"
        assert "over the 50-token cap" in result.error
        assert backend.contexts == []
        assert result.trajectory.steps == []

    def test_cap_one_below_an_input_overflows_and_a_cap_equal_to_it_runs_the_turn(self):
        count = token_length("\n".join(render_planning_context(PROMPTS.holistic, "q?")))
        below, at = (
            run(
                "q?",
                backend=ScriptedBackend(responses=[INTENT, FRAMING, FINAL]),
                tools=empty_registry(),
                config=RunConfig(max_context_tokens=cap),
                prompts=PROMPTS,
                clock=fixed_clock(),
            )
            for cap in (count - 1, count)
        )
        assert below.outcome == "context_overflow"
        assert below.error == f"rendered context is {count} tokens, over the {count - 1}-token cap"
        assert below.trajectory.steps == []
        # the first turn runs; the second planning input is longer and overflows
        assert at.outcome == "context_overflow"
        assert [step.token_count for step in at.trajectory.steps] == [count]

    def test_cap_above_planning_inputs_overflows_at_first_solving_turn(self):
        largest = largest_planning_input()
        backend = RecordingBackend([INTENT, FRAMING, FINAL])
        result = run(
            "q?",
            backend=backend,
            tools=empty_registry(),
            config=RunConfig(max_context_tokens=largest + 1),
            prompts=PROMPTS,
            clock=fixed_clock(),
        )
        assert result.outcome == "context_overflow"
        assert f"over the {largest + 1}-token cap" in result.error
        assert len(backend.contexts) == 2
        assert [step.stage for step in result.trajectory.steps] == ["planning", "planning"]

    @pytest.mark.parametrize("stage", ["planning", "solving"])
    def test_a_correction_over_the_cap_overflows_before_the_re_prompt(self, stage):
        before = [] if stage == "planning" else [INTENT, FRAMING]
        replies = before + ["no block here", ANSWER_T1 if before else INTENT, FRAMING, ANSWER_T1, FINAL]
        # The input that the malformed reply answers, and the correction it earns.
        _, contexts = run_once(replies, RunConfig(max_malformed_retries=0))
        cap = token_length(contexts[-1])
        assert all(token_length(context) <= cap for context in contexts)
        correction = token_length("\n".join(render_correction(str(protocol_error("no block here")))))
        assert correction > 0
        result, contexts = run_once(replies, RunConfig(max_context_tokens=cap))
        assert result.outcome == "context_overflow"
        assert result.error == f"rendered context is {cap + correction} tokens, over the {cap}-token cap"
        assert len(contexts) == len(before) + 1
        assert len(result.trajectory.steps) == len(before)
        # At a cap equal to the corrected count, the re-prompt is sent, and
        # the step records the uncorrected input and count.
        result, contexts = run_once(replies, RunConfig(max_context_tokens=cap + correction))
        step = result.trajectory.steps[len(before)]
        assert contexts[len(before) + 1].startswith(contexts[len(before)] + "\n\n## Correction\n")
        assert (step.retries, step.token_count, step.state) == (1, cap, contexts[len(before)])

    @pytest.mark.parametrize(
        "nested",
        [
            '<tool_call>{"a":' + "[" * 100_000 + "]" * 100_000 + "}</tool_call>",
            '<tool_call>{"task_id": "t1", "tool_name": "search", "arguments": '
            + '{"a":' * 5_000 + "1" + "}" * 5_000 + "}</tool_call>",
        ],
        ids=["deep-array", "deep-arguments"],
    )
    def test_deeply_nested_payload_is_reprompted(self, nested):
        backend = RecordingBackend([INTENT, FRAMING, nested, ANSWER_T1, FINAL])
        result = run(
            "q?",
            backend=backend,
            tools=empty_registry(),
            config=RunConfig(max_malformed_retries=1),
            prompts=PROMPTS,
            clock=fixed_clock(),
        )
        assert result.outcome == "answered"
        assert result.trajectory.solving_steps()[0].retries == 1
        assert "nested too deeply" in backend.contexts[3]

    def test_tool_transport_failure_aborts(self):
        registry = ToolRegistry()
        registry.register(search_spec("search", "broken"), failing_search)
        call = '<tool_call>{"task_id": "t1", "tool_name": "search", "arguments": {"query": "q"}}</tool_call>'
        backend = ScriptedBackend(responses=[INTENT, FRAMING, call])
        result = run(
            "q?",
            backend=backend,
            tools=registry,
            config=RunConfig(),
            prompts=PROMPTS,
            clock=fixed_clock(),
        )
        assert result.outcome == "aborted"
        assert "retriever is down" in result.error

    def test_unknown_tool_is_reprompted(self):
        bad_call = '<tool_call>{"task_id": "t1", "tool_name": "crawler", "arguments": {"query": "q"}}</tool_call>'
        backend = RecordingBackend([INTENT, FRAMING, bad_call, ANSWER_T1, FINAL])
        result = run(
            "q?",
            backend=backend,
            tools=empty_registry(),
            config=RunConfig(max_malformed_retries=1),
            prompts=PROMPTS,
            clock=fixed_clock(),
        )
        assert result.outcome == "answered"
        assert "unknown tool" in backend.contexts[3]

    @pytest.mark.parametrize("arguments", [{}, {"query": "q", "limit": 3}], ids=["missing", "extra"])
    def test_bad_arguments_are_reprompted_without_invoking_the_tool(self, arguments):
        executed = []
        spec = search_spec("search", "never runs")
        registry = ToolRegistry().register(spec, executed.append)
        with pytest.raises(ProtocolError, match='^tool "search" ') as expected:
            validate_arguments(spec, arguments)
        call = json.dumps({"task_id": "t1", "tool_name": "search", "arguments": arguments})
        backend = RecordingBackend([INTENT, FRAMING, f"<tool_call>{call}</tool_call>", ANSWER_T1, FINAL])
        result = run(
            "q?",
            backend=backend,
            tools=registry,
            config=RunConfig(max_malformed_retries=1),
            prompts=PROMPTS,
            clock=fixed_clock(),
        )
        assert result.outcome == "answered"
        assert result.trajectory.solving_steps()[0].diagnostics == (str(expected.value),)
        assert str(expected.value) in backend.contexts[3]
        assert executed == []

    def test_tool_call_for_unknown_task_is_reprompted_without_invoking_the_tool(self):
        executed = []
        registry = ToolRegistry().register(search_spec("search", "never runs"), executed.append)
        with pytest.raises(ProtocolError, match='^task "t9" is not in the current plan$') as expected:
            mark_active(make_plan([("t1", "only task")], []), "t9")
        call = '<tool_call>{"task_id": "t9", "tool_name": "search", "arguments": {"query": "q"}}</tool_call>'
        backend = RecordingBackend([INTENT, FRAMING, call, ANSWER_T1, FINAL])
        result = run(
            "q?",
            backend=backend,
            tools=registry,
            config=RunConfig(max_malformed_retries=1),
            prompts=PROMPTS,
            clock=fixed_clock(),
        )
        assert result.outcome == "answered"
        assert result.trajectory.solving_steps()[0].diagnostics == (str(expected.value),)
        assert str(expected.value) in backend.contexts[3]
        # with no retry budget the first rejected reply spends it: the run gives up
        aborted = run(
            "q?",
            backend=ScriptedBackend(responses=[INTENT, FRAMING, call]),
            tools=registry,
            config=RunConfig(max_malformed_retries=0),
            prompts=PROMPTS,
            clock=fixed_clock(),
        )
        assert aborted.error == f"{GAVE_UP}{expected.value}"
        assert executed == []

    def test_backend_exhaustion_aborts(self):
        backend = ScriptedBackend(responses=[INTENT, FRAMING])
        result = run(
            "q?",
            backend=backend,
            tools=empty_registry(),
            config=RunConfig(),
            prompts=PROMPTS,
            clock=fixed_clock(),
        )
        assert result.outcome == "aborted"
        assert result.error == "BackendError: scripted backend exhausted after 2 responses"


# Rejected replies, each with a different protocol error.
BAD_REPLIES = ["no block here", '<final_answer>{"answer": </final_answer>', FINAL + FINAL]


def protocol_error(reply):
    with pytest.raises(ProtocolError) as caught:
        parse_action(reply)
    return caught.value


class TestRetryLoop:
    """Both stages re-prompt through one loop with the same budget semantics."""

    @pytest.mark.parametrize("bad", [0, 1, 2, 3])
    @pytest.mark.parametrize("budget", [0, 1, 2])
    @pytest.mark.parametrize("stage", ["planning", "solving"])
    def test_budget_and_corrections(self, stage, budget, bad):
        rejected = BAD_REPLIES[:bad]
        # both stages go through run(); ``after`` starts with the stage's accepted reply
        if stage == "planning":
            before, after = [], [INTENT, FRAMING, ANSWER_T1, FINAL]
        else:
            before, after = [INTENT, FRAMING], [ANSWER_T1, FINAL]
        backend = RecordingBackend(before + rejected + after)
        config = RunConfig(max_malformed_retries=budget)
        result = run(
            "q?", backend=backend, tools=empty_registry(), config=config, prompts=PROMPTS, clock=fixed_clock()
        )
        error, trajectory = result.error, result.trajectory

        diagnostics = [str(protocol_error(reply)) for reply in rejected]
        retried = min(bad, budget)
        contexts = backend.contexts[len(before) :]
        # the first input, one per allowed retry, then, if it passed, one per later reply
        assert len(contexts) == retried + (len(after) if bad <= budget else 1)
        for diagnostic, context in zip(diagnostics, contexts[1 : retried + 1]):
            assert context == (
                f"{contexts[0]}\n\n## Correction\nYour previous response was rejected: "
                f"{diagnostic}\nEmit exactly one corrected action block now."
            )
        recorded = [step for step in trajectory.steps if step.stage == stage]
        if bad <= budget:
            assert error is None
            assert recorded[0].retries == bad
            assert recorded[0].diagnostics == tuple(diagnostics)
        else:
            assert recorded == []
            assert error == (
                f"EngineError: gave up after {budget + 1} rejected responses; "
                f"last problem: {diagnostics[budget]}"
            )


def failing_search(arguments):
    raise ToolTransportError("retriever is down")


def call_reply(task_id="t1", tool_name="search", arguments=None):
    arguments = {"query": "q"} if arguments is None else arguments
    payload = {"task_id": task_id, "tool_name": tool_name, "arguments": arguments}
    return f"<tool_call>{json.dumps(payload)}</tool_call>"


PLANNED = [("intent_refinement", 0), ("problem_framing", 0)]
SOLVED = [("task_answer", 0), ("final_answer", 0)]
# A solving turn that one retry recovers.
RECOVERED = ("answered", None, PLANNED + [("task_answer", 1), ("final_answer", 0)])


def largest_planning_input():
    """The token count of the longer of the two planning inputs."""
    intent = {"refined_goal": "Find it.", "constraints": []}
    return max(
        token_length("\n".join(render_planning_context(PROMPTS.holistic, "q?", *given))) for given in ((), (intent,))
    )


def _either_budget(expected):
    return {0: expected, 1: expected}


DEFAULT_CAP = RunConfig().max_context_tokens
# Each failure source: its replies, the context cap, and the (outcome,
# error prefix, recorded (kind, retries) steps) at retry budgets 0 and 1.
# A re-promptable source's bad reply is followed by the replies that
# finish the run, so one retry recovers. The one registered
# tool, "search", fails with ToolTransportError: a row that names it and
# does not abort shows the tool never ran.
FAILURE_SOURCES = {
    "malformed-reply": (
        [INTENT, FRAMING, "no block here", ANSWER_T1, FINAL],
        DEFAULT_CAP,
        {0: ("aborted", f"{GAVE_UP}no action block found", PLANNED), 1: RECOVERED},
    ),
    "wrong-planning-kind": (
        [call_reply(), INTENT, FRAMING, ANSWER_T1, FINAL],
        DEFAULT_CAP,
        {
            0: ("aborted", f"{GAVE_UP}expected a <intent_refinement> action in this stage, got <tool_call>", []),
            1: ("answered", None, [("intent_refinement", 1), ("problem_framing", 0)] + SOLVED),
        },
    ),
    "cyclic-framing": (
        [INTENT, CYCLIC, FRAMING, ANSWER_T1, FINAL],
        DEFAULT_CAP,
        {
            0: ("aborted", f"{GAVE_UP}dependency edges form a cycle through: a, b", PLANNED[:1]),
            1: ("answered", None, [("intent_refinement", 0), ("problem_framing", 1)] + SOLVED),
        },
    ),
    "tool-call-for-unknown-task": (
        [INTENT, FRAMING, call_reply(task_id="t9"), ANSWER_T1, FINAL],
        DEFAULT_CAP,
        {0: ("aborted", f'{GAVE_UP}task "t9" is not in the current plan', PLANNED), 1: RECOVERED},
    ),
    "unknown-tool": (
        [INTENT, FRAMING, call_reply(tool_name="crawler"), ANSWER_T1, FINAL],
        DEFAULT_CAP,
        {0: ("aborted", f'{GAVE_UP}unknown tool "crawler"; registered tools: search', PLANNED), 1: RECOVERED},
    ),
    "bad-arguments": (
        [INTENT, FRAMING, call_reply(arguments={}), ANSWER_T1, FINAL],
        DEFAULT_CAP,
        {0: ("aborted", f'{GAVE_UP}tool "search" requires argument "query"', PLANNED), 1: RECOVERED},
    ),
    "final-before-complete": (
        [INTENT, FRAMING, FINAL, ANSWER_T1, FINAL],
        DEFAULT_CAP,
        {
            0: (
                "aborted",
                f"{GAVE_UP}final_answer is only legal once every sub-task is answered; still open: t1",
                PLANNED,
            ),
            1: RECOVERED,
        },
    ),
    "backend-exhausted": (
        [INTENT, FRAMING],
        DEFAULT_CAP,
        _either_budget(("aborted", "BackendError: scripted backend exhausted after 2 responses", PLANNED)),
    ),
    "tool-transport-failure": (
        [INTENT, FRAMING, call_reply(), ANSWER_T1, FINAL],
        DEFAULT_CAP,
        _either_budget(("aborted", "ToolTransportError: retriever is down", PLANNED)),
    ),
    "context-cap": (
        [INTENT, FRAMING, ANSWER_T1, FINAL],
        largest_planning_input() + 1,
        _either_budget(("context_overflow", "rendered context is ", PLANNED)),
    ),
}


class TestFailureSources:
    """Each failure source ends a run, or is re-prompted, the same way whatever its stage."""

    @pytest.mark.parametrize("budget", [0, 1])
    @pytest.mark.parametrize("source", FAILURE_SOURCES)
    def test_outcome_error_and_steps(self, source, budget):
        replies, cap, expected = FAILURE_SOURCES[source]
        outcome, prefix, steps = expected[budget]
        config = RunConfig(max_malformed_retries=budget, max_context_tokens=cap)
        result = run(
            "q?",
            backend=ScriptedBackend(responses=replies),
            tools=ToolRegistry().register(search_spec("search", "always down"), failing_search),
            config=config,
            prompts=PROMPTS,
            clock=fixed_clock(),
        )
        assert result.outcome == outcome
        if prefix is None:
            assert result.error is None
        else:
            assert result.error.startswith(prefix), result.error
        assert [(step.kind, step.retries) for step in result.trajectory.steps] == steps


class TestDeterminism:
    def test_identical_serializations_across_runs(self, tmp_path):
        run_two_hop().trajectory.save(tmp_path / "a.jsonl")
        run_two_hop().trajectory.save(tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_arguments_are_validated_once_per_tool_call(self, monkeypatch):
        calls = []

        def spy(spec, arguments):
            calls.append(dict(arguments))
            validate_arguments(spec, arguments)

        # wherever validate_arguments is bound, so that a second check shows
        for module in (dagsearch.tools, dagsearch.engine):
            monkeypatch.setattr(module, "validate_arguments", spy, raising=False)
        steps = run_two_hop().trajectory.steps
        assert calls == [step.payload["arguments"] for step in steps if step.kind == "tool_call"]
        assert len(calls) == 2

    def test_register_tokens_non_decreasing_within_epoch(self):
        # the two-hop run never replans, so the persistent render only grows
        trajectory = run_two_hop().trajectory
        solving = trajectory.solving_steps()
        # the register each solving step was rendered from
        registers = rebuild_registers(trajectory)[: len(solving)]
        intent = trajectory.steps[0].payload
        counts = [register_tokens(r, TWO_HOP_QUESTION, PROMPTS.solving, intent) for r in registers]
        assert counts == sorted(counts)
        assert all(step.token_count >= count for step, count in zip(solving, counts))

    def test_run_tokenizes_each_recorded_step_once(self, monkeypatch):
        calls = []

        def spy(text):
            calls.append(text)
            return default_tokenizer(text)

        monkeypatch.setattr(dagsearch.register, "default_tokenizer", spy)
        prompts = PromptPack.load_default()
        prompt_lines = [
            line
            for prompt in (prompts.holistic, prompts.solving)
            for line in dict.fromkeys(prompt.rstrip().split("\n"))
        ]
        # The first run counts each stage prompt's distinct lines, once each;
        # the second finds them counted.
        for memo in (prompt_lines, []):
            calls.clear()
            steps = run_two_hop().trajectory.steps
            assert [step.stage for step in steps].count("planning") == 2
            assert len(steps) == 9
            assert calls[: len(memo)] == memo
            # the run's counter tokenizes each distinct line that is not a
            # prompt line once, when it first appears in an input
            run_lines = dict.fromkeys(line for step in steps for line in step.lines)
            assert calls[len(memo) :] == [line for line in run_lines if line not in prompt_lines]
        monkeypatch.undo()
        assert all(step.token_count == token_length(step.state) for step in steps)
        tokenized = sum(token_length(text) for text in calls)
        assert tokenized < sum(step.token_count for step in steps)

    def test_every_input_opens_with_its_stage_prompts_memoized_lines(self):
        prompts = PromptPack.load_default()
        heads = {
            "planning": dagsearch.register.prompt_lines(prompts.holistic).lines,
            "solving": dagsearch.register.prompt_lines(prompts.solving).lines,
        }
        # two runs of one pack in one process: both share the memo's strings
        for _ in range(2):
            for step in run_two_hop().trajectory.steps:
                head = heads[step.stage]
                assert len(step.lines) > len(head)
                assert all(line is prompt_line for line, prompt_line in zip(step.lines, head))

    def test_the_solving_head_is_built_once_per_run(self, monkeypatch):
        heads = []
        render_head = dagsearch.engine.render_head
        monkeypatch.setattr(dagsearch.engine, "render_head", lambda *args: heads.append(render_head(*args)) or heads[-1])
        solving = run_two_hop().trajectory.solving_steps()
        assert len(heads) == 1 and len(solving) == 7
        # every solving input opens with the head's own line objects
        for step in solving:
            assert len(step.lines) > len(heads[0])
            assert all(line is head_line for line, head_line in zip(step.lines, heads[0]))

    def test_rebuilt_registers_are_stable(self):
        result = run_two_hop()
        registers = rebuild_registers(result.trajectory)
        # 6 solving updates before final, plus the initial state and the final no-op
        assert len(registers) == 8
        assert registers[-1] == registers[-2]
        assert registers == rebuild_registers(run_two_hop().trajectory)

    @pytest.mark.parametrize("make_run", [run_two_hop, run_twenty_turn, run_fold])
    def test_rebuilt_registers_keep_their_invariants(self, make_run):
        for register in rebuild_registers(make_run().trajectory):
            for plan in [snapshot.plan for snapshot in register.plan_history] + [register.plan]:
                for node in plan.nodes.values():
                    assert node.status in (PENDING, ACTIVE, ANSWERED)
                    if node.status == ANSWERED:
                        assert isinstance(node.answer, str)
            steps = [entry.step_index for entry in register.tool_log]
            assert all(step >= 1 for step in steps)
            assert steps == sorted(set(steps))


class TestReplay:
    def test_record_then_strict_replay(self, tmp_path):
        result = run_two_hop()
        path = tmp_path / "run.jsonl"
        result.trajectory.save(path)
        loaded = Trajectory.load(path)
        replayed = replay_run(loaded, strict=True, clock=fixed_clock())
        assert replayed.outcome == "answered"
        assert replayed.answer == result.answer
        assert [s.kind for s in replayed.trajectory.steps] == [
            s.kind for s in result.trajectory.steps
        ]

    def test_v1_recording_replays_byte_for_byte(self):
        # recorded before the tokenize-once engine; rendering must not drift
        recorded = Trajectory.load(DATA_DIR / "two_hop_trajectory_v1.jsonl")
        replayed = replay_run(recorded, strict=True, clock=fixed_clock())
        assert replayed.outcome == "answered"
        assert [s.to_dict() for s in replayed.trajectory.steps] == [s.to_dict() for s in recorded.steps]

    def test_v1_fixture_is_unchanged(self):
        # regenerating the fixture would hide a v1 replay regression
        digest = hashlib.sha256((DATA_DIR / "two_hop_trajectory_v1.jsonl").read_bytes()).hexdigest()
        assert digest == "05b773110af1c6b5ee6ee385bb4fcda627a43189d33cd52dae736fe7ade47441"

    def test_v2_recording_replays_byte_for_byte(self, tmp_path):
        fixture = DATA_DIR / "two_hop_trajectory_v2.jsonl"
        recorded = Trajectory.load(fixture)
        assert recorded.version == 2
        replayed = replay_run(recorded, strict=True, clock=fixed_clock())
        assert replayed.outcome == "answered"
        assert replayed.trajectory.version == 2
        path = tmp_path / "replayed.jsonl"
        replayed.trajectory.save(path)
        assert path.read_bytes() == fixture.read_bytes()

    def test_v3_fold_recording_replays_byte_for_byte(self, tmp_path):
        # recorded by helpers.run_fold: t2's answer folds t1's and t2's
        # entries out of the input while t3 is still open
        fixture = DATA_DIR / "fold_trajectory_v3.jsonl"
        recorded = Trajectory.load(fixture)
        assert recorded.version == 3
        folds = [register.folded for register in rebuild_registers(recorded)]
        assert folds == [set()] * 6 + [{1, 4}] * (len(folds) - 6)  # registers[6] follows step 6
        solving = recorded.solving_steps()
        assert "Step 1: " in solving[5].state and "Step 4: " in solving[5].state
        assert "Step 1: " not in solving[6].state and "Step 4: " not in solving[6].state
        assert solving[6].token_count < solving[5].token_count / 2
        replayed = replay_run(recorded, strict=True, clock=fixed_clock())
        assert replayed.outcome == "answered"
        path = tmp_path / "replayed.jsonl"
        replayed.trajectory.save(path)
        assert path.read_bytes() == fixture.read_bytes()

    def test_v3_fold_fixture_is_unchanged(self):
        digest = hashlib.sha256((DATA_DIR / "fold_trajectory_v3.jsonl").read_bytes()).hexdigest()
        assert digest == "e0a333031cc0c6081fbf0f6f7f1456c54611fef57f1dff6bca0fafd4ab250596"

    def test_v3_fold_hides_an_open_tasks_entry_once_that_task_is_answered(self):
        # Version 3's fold takes every entry logged so far, not only the
        # answered ones: t1's answer folds while t2, still open, has an entry
        # logged, so t2's answer hides that entry from the next input
        # although no fold follows it (the plan is then complete).
        framing = {"tasks": [{"task_id": t, "description": f"Resolve {t}"} for t in ("t1", "t2")], "edges": []}
        facts = [f"fact {i}: " + "word " * 500 for i in range(6)]  # past version 3's FOLD_CHARS
        responses = [
            INTENT,
            f"<problem_framing>{json.dumps(framing)}</problem_framing>",
            '<tool_call>{"task_id": "t1", "tool_name": "search", "arguments": {"query": "one"}}</tool_call>',
            f'<doc_extraction>{json.dumps({"task_id": "t1", "facts": facts, "source_ids": ["s:1"]})}</doc_extraction>',
            '<tool_call>{"task_id": "t2", "tool_name": "search", "arguments": {"query": "two"}}</tool_call>',
            ANSWER_T1,
            '<task_answer>{"answers": [{"task_id": "t2", "answer": "y"}]}</task_answer>',
            FINAL,
        ]
        results = [ToolResult(documents=(Document(f"s:{n}", "Record", "text"),)) for n in (1, 2)]
        registry = ToolRegistry().register(search_spec("search", "scripted"), ScriptedTool(results=results))
        result = run(
            "q?",
            backend=ScriptedBackend(responses=responses),
            tools=registry,
            prompts=PROMPTS,
            clock=fixed_clock(),
            version=3,
        )
        assert result.outcome == "answered"
        solving = result.trajectory.solving_steps()
        assert [step.kind for step in solving][3:] == ["task_answer", "task_answer", "final_answer"]
        t1_entry, t2_entry = 'search for t1 with {"query":"one"}', 'search for t2 with {"query":"two"}'
        assert t1_entry in solving[3].state and t2_entry in solving[3].state
        assert t1_entry not in solving[4].state and t2_entry in solving[4].state  # t1's answer folded
        assert t2_entry not in solving[5].state

    def test_v4_fold_recording_replays_byte_for_byte(self, tmp_path):
        # recorded by helpers.run_fold(4): t1's answer folds t1's entry
        # while t2 and t3 are open, then t2's answer folds t2's
        fixture = DATA_DIR / "fold_trajectory_v4.jsonl"
        recorded = Trajectory.load(fixture)
        assert recorded.version == 4
        folds = [register.folded for register in rebuild_registers(recorded)]
        assert folds == [set()] * 3 + [{1}] * 3 + [{1, 4}] * (len(folds) - 6)  # registers[3] follows step 3
        solving = recorded.solving_steps()
        assert "Step 1: " in solving[2].state and "Step 1: " not in solving[3].state
        assert "Step 4: " in solving[5].state and "Step 4: " not in solving[6].state
        assert solving[3].token_count < solving[2].token_count / 1.5
        assert solving[6].token_count < solving[5].token_count / 1.5
        replayed = replay_run(recorded, strict=True, clock=fixed_clock())
        assert replayed.outcome == "answered"
        path = tmp_path / "replayed.jsonl"
        replayed.trajectory.save(path)
        assert path.read_bytes() == fixture.read_bytes()
        # a fresh run records the same bytes
        run_fold(4).trajectory.save(path)
        assert path.read_bytes() == fixture.read_bytes()

    def test_v4_fold_fixture_is_unchanged(self):
        digest = hashlib.sha256((DATA_DIR / "fold_trajectory_v4.jsonl").read_bytes()).hexdigest()
        assert digest == "d5f26e3c168fee8c27653ad8787382b6a54f007ee4686b8ec9bb6e0bc9401c4b"

    def test_tampered_recording_diverges(self, tmp_path):
        result = run_two_hop()
        trajectory = result.trajectory
        steps = trajectory.steps
        tampered = steps[3]
        end = len(tampered.state)
        object.__setattr__(tampered, "lines", (*tampered.lines[:-1], tampered.lines[-1] + " TAMPERED"))
        replayed = replay_run(trajectory, strict=True, clock=fixed_clock())
        assert replayed.outcome == "aborted"
        assert replayed.error == f"ReplayDivergence: step 4: state diverges from the recording, character {end}"

    def test_strict_divergence_skips_only_the_unreplayed_fields(self):
        recorded = run_two_hop().trajectory
        steps = recorded.steps
        edited = dataclasses.replace(recorded, steps=list(steps))
        edited.steps[2] = dataclasses.replace(steps[2], diagnostics=("rejected",))
        assert replay_divergence(recorded, edited, strict=True) is None
        for field in dataclasses.fields(steps[2]):
            if field.name in UNREPLAYED_FIELDS:
                continue
            value = getattr(steps[0], field.name)
            if field.name == "shared":  # steps 1 and 3 both share no line with the step before
                value = steps[2].shared + 1
            edited.steps[2] = dataclasses.replace(steps[2], **{field.name: value})
            name = "state" if field.name == "lines" else field.name  # the input is recorded as text
            assert replay_divergence(recorded, edited, strict=True).startswith(f"step 3: {name} diverges")
        edited.steps[2] = steps[2]
        edited.steps.pop()
        assert replay_divergence(recorded, edited, strict=True) == "steps: recorded 9, replayed 8"
        assert replay_divergence(recorded, edited, strict=False) is None
        edited.answer = "1097"
        assert replay_divergence(recorded, edited, strict=False) == "answer: recorded '1096', replayed '1097'"

    def test_non_strict_replay_ignores_drift(self):
        result = run_two_hop()
        steps = result.trajectory.steps
        object.__setattr__(steps[3], "lines", (*steps[3].lines[:-1], steps[3].lines[-1] + " TAMPERED"))
        replayed = replay_run(result.trajectory, strict=False, clock=fixed_clock())
        assert replayed.outcome == "answered"


# A lone surrogate is not valid Unicode, so no trajectory file could hold it.
SURROGATE = re.compile("[\ud800-\udfff]")
SURROGATE_REPLIES = {
    "escape-in-payload": '<final_answer>{"answer": "x\\ud800y"}</final_answer>',
    "raw-in-free-text": 'note \ud800 <final_answer>{"answer": "x"}</final_answer>',
    "raw-in-payload": '<final_answer>{"answer": "x\udfffy"}</final_answer>',
}


@pytest.mark.parametrize("reply", SURROGATE_REPLIES.values(), ids=SURROGATE_REPLIES.keys())
def test_lone_surrogate_reply_is_reprompted_and_the_run_saves(tmp_path, reply):
    responses = two_hop_responses()
    responses.insert(len(responses) - 1, reply)
    result = run(
        TWO_HOP_QUESTION,
        backend=ScriptedBackend(responses=responses),
        tools=fixture_registry(),
        prompts=PROMPTS,
        question_id="two-hop-www",
        clock=fixed_clock(),
    )
    assert (result.outcome, result.answer) == ("answered", "1096")
    final = result.trajectory.steps[-1]
    assert final.retries == 1
    assert "lone surrogate" in final.diagnostics[0]
    assert not SURROGATE.search(final.diagnostics[0])
    path = tmp_path / "run.jsonl"
    result.trajectory.save(path)
    replayed = replay_run(Trajectory.load(path), strict=True, clock=fixed_clock())
    assert (replayed.outcome, replayed.answer) == ("answered", "1096")


@pytest.mark.parametrize(
    "question, question_id",
    [("In which year \udcff", "q1"), (TWO_HOP_QUESTION, "q\ud800")],
    ids=["question", "question-id"],
)
def test_unsaveable_question_is_rejected_before_any_completion(question, question_id):
    backend = ScriptedBackend(responses=[])
    with pytest.raises(UnicodeEncodeError):
        run(question, backend=backend, tools=fixture_registry(), prompts=PROMPTS, question_id=question_id)
    assert backend.served == 0


# ---------------------------------------------------------------------------
# Run-level closure: any reply sequence runs, saves, loads and replays
# ---------------------------------------------------------------------------

OUTCOMES = {"answered", "budget_exhausted", "context_overflow", "aborted"}

randoms = st.randoms(use_true_random=False)
any_text = st.text(st.one_of(st.characters(), st.integers(0xD800, 0xDFFF).map(chr)), max_size=20)
replies = st.one_of(
    randoms.map(lambda rng: random_action(rng).raw_text),
    randoms.map(lambda rng: mutate_action(rng, random_action(rng))[0]),
    st.sampled_from(two_hop_responses()),
    any_text,
)
# JSON \u escapes, weighted towards U+D800-U+DFFF.
escapes = st.lists(st.one_of(st.integers(0, 0xFFFF), st.integers(0xD800, 0xDFFF)), max_size=3).map(
    lambda points: "".join(f"\\u{point:04x}" for point in points)
)


def into_last_string(reply, text):
    """``reply`` with ``text`` at the start of its last ``"key": "value"`` string."""
    head, sep, tail = reply.rpartition('": "')
    return head + sep + text + tail if sep else reply


def record_and_replay(directory, responses, config):
    """Run ``responses``; save, load, strictly replay and save again. Both trajectories."""
    result = run(
        TWO_HOP_QUESTION,
        backend=ScriptedBackend(responses=responses),
        tools=fixture_registry(),
        config=config,
        prompts=PROMPTS,
        question_id="closure",
        clock=fixed_clock(),
    )
    assert result.outcome in OUTCOMES
    path = directory / "closure.jsonl"
    result.trajectory.save(path)
    recorded = Trajectory.load(path)
    replayed = replay_run(recorded, strict=True, clock=fixed_clock())
    assert replay_divergence(recorded, replayed.trajectory, strict=True) is None
    replayed.trajectory.save(path)
    return result.trajectory, Trajectory.load(path)


def run_facts(trajectory):
    steps = [(s.stage, s.state, s.kind, s.payload, s.raw_text) for s in trajectory.steps]
    return steps, trajectory.answer, trajectory.outcome


@settings(max_examples=200, deadline=None)
@given(
    cut=st.integers(0, len(two_hop_responses()) - 1),
    noise=st.lists(replies, max_size=4),
    lead=any_text,
    escape=escapes,
    retries=st.integers(0, 2),
    strict=st.booleans(),
)
def test_any_reply_sequence_runs_saves_and_replays(tmp_path_factory, cut, noise, lead, escape, retries, strict):
    script = two_hop_responses()
    if strict:  # strict mode allows no text outside the block
        script = [reply[reply.index("<"):] for reply in script]
    # Garbage before the next scripted reply, which is itself edited.
    edited = lead + into_last_string(script[cut], escape)
    responses = script[:cut] + noise + [edited] + script[cut + 1:]
    config = RunConfig(max_malformed_retries=retries, strict_protocol=strict)
    original, again = record_and_replay(tmp_path_factory.getbasetemp(), responses, config)
    assert run_facts(again) == run_facts(original)


@settings(max_examples=100, deadline=None)
@given(
    cut=st.integers(0, len(two_hop_responses())),
    noise=st.lists(replies, max_size=4),
    retries=st.integers(0, 4),
    version=st.integers(1, 4),
)
def test_every_step_records_its_line_delta_and_a_save_keeps_it(tmp_path_factory, cut, noise, retries, version):
    # Rejected replies re-send an input, which the next step's delta ignores.
    script = two_hop_responses()
    result = run(
        TWO_HOP_QUESTION,
        backend=ScriptedBackend(responses=script[:cut] + noise + script[cut:]),
        tools=fixture_registry(),
        config=RunConfig(max_malformed_retries=retries),
        prompts=PROMPTS,
        clock=fixed_clock(),
        version=version,
    )
    assert_line_deltas(result.trajectory)
    path = tmp_path_factory.getbasetemp() / "deltas.jsonl"
    result.trajectory.save(path)
    loaded = Trajectory.load(path)
    assert loaded.steps == result.trajectory.steps
    assert_line_deltas(loaded, own_strings=version >= 2)


@pytest.mark.xfail(
    strict=True,
    reason="replay re-serves only accepted replies; recording rejected ones is ROADMAP item 2, planned for "
    "trajectory v5 because re-serving them breaks the benchmark's one-cut-per-completion replay test",
)
def test_replay_keeps_retries_and_diagnostics(tmp_path):
    responses = two_hop_responses()
    responses.insert(3, "no action block here")
    original, again = record_and_replay(tmp_path, responses, RunConfig())
    assert [(s.retries, s.diagnostics) for s in again.steps] == [
        (s.retries, s.diagnostics) for s in original.steps
    ]


class TestRunConfig:
    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            RunConfig(max_turns=0)
        with pytest.raises(ValueError):
            RunConfig(max_context_tokens=-1)
        with pytest.raises(ValueError):
            RunConfig(max_malformed_retries=-1)

    @pytest.mark.parametrize(
        "settings",
        [{"strict_protocol": "no"}, {"strict_protocol": 1}, {"temperature": "hot"}, {"temperature": True}]
        + [{"temperature": float("nan")}, {"temperature": float("inf")}, {"max_output_tokens": 1.0}],
    )
    def test_rejects_a_setting_of_the_wrong_type(self, settings):
        with pytest.raises(InputError):
            RunConfig(**settings)

    def test_defaults_match_contract(self):
        config = RunConfig()
        assert config.max_turns == 40
        assert config.max_context_tokens == 32_000
        assert config.max_malformed_retries == 2
        # tools own top_k; --top-k overrides it in the tool config
        assert not hasattr(config, "top_k")

    def test_from_dict_rejects_top_k_like_any_key_that_is_not_a_field(self):
        # only Trajectory.load drops the "top_k" a version 1 header carries
        assert RunConfig.from_dict({"max_turns": 5}) == RunConfig(max_turns=5)
        with pytest.raises(InputError, match='^unknown run setting "top_k"$'):
            RunConfig.from_dict({"max_turns": 5, "top_k": 3})
