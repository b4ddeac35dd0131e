import json

import pytest

import dagsearch.engine
import dagsearch.register
import dagsearch.tools
from dagsearch.backend import Backend, ScriptedBackend
from dagsearch.engine import (
    PromptPack,
    RetriesExhausted,
    RunConfig,
    WrongActionKind,
    holistic_planning,
    rebuild_registers,
    render_planning_context,
    replay_run,
    run,
)
from dagsearch.protocol import ActionKind, IntentPayload
from dagsearch.register import default_tokenizer, register_to_dict, register_tokens, token_length
from dagsearch.tools import (
    ArgumentSchemaViolation,
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
    fixed_clock,
    fixture_registry,
    run_two_hop,
    two_hop_responses,
)

PROMPTS = PromptPack.load_default()

INTENT = '<intent_refinement>{"refined_goal": "Find it.", "constraints": []}</intent_refinement>'
FRAMING = (
    '<problem_framing>{"tasks": [{"task_id": "t1", "description": "only task"}], '
    '"edges": []}</problem_framing>'
)
ANSWER_T1 = '<task_answer>{"answers": [{"task_id": "t1", "answer": "x"}]}</task_answer>'
FINAL = '<final_answer>{"answer": "x"}</final_answer>'


class RecordingBackend(Backend):
    """Wraps a scripted backend and keeps every request context."""

    def __init__(self, responses):
        self.inner = ScriptedBackend(responses=responses)
        self.contexts = []

    def complete(self, request):
        self.contexts.append(request.context)
        return self.inner.complete(request)


def empty_registry():
    return ToolRegistry()


class TestHolisticPlanning:
    def test_happy_path(self):
        backend = ScriptedBackend(responses=[INTENT, FRAMING])
        intent, plan = holistic_planning(backend, "q?", PROMPTS, RunConfig())
        assert intent.refined_goal == "Find it."
        assert plan.plan_id == 0
        assert set(plan.nodes) == {"t1"}

    def test_wrong_kind_surfaces_without_retries(self):
        tool = '<tool_call>{"task_id": "t1", "tool_name": "search", "arguments": {}}</tool_call>'
        backend = ScriptedBackend(responses=[tool])
        with pytest.raises(WrongActionKind):
            holistic_planning(backend, "q?", PROMPTS, RunConfig(max_malformed_retries=0))

    def test_recovers_from_cyclic_framing_within_retry_budget(self):
        cyclic = (
            '<problem_framing>{"tasks": [{"task_id": "a", "description": "d"}, '
            '{"task_id": "b", "description": "d"}], "edges": [["a","b"],["b","a"]]}</problem_framing>'
        )
        backend = RecordingBackend([INTENT, cyclic, FRAMING])
        intent, plan = holistic_planning(
            backend, "q?", PROMPTS, RunConfig(max_malformed_retries=1)
        )
        assert set(plan.nodes) == {"t1"}
        assert "## Correction" in backend.contexts[2]
        assert "cycle" in backend.contexts[2]

    def test_second_context_includes_refined_intent(self):
        backend = RecordingBackend([INTENT, FRAMING])
        holistic_planning(backend, "q?", PROMPTS, RunConfig())
        assert "Find it." in backend.contexts[1]
        assert "<problem_framing>" in backend.contexts[1] or "problem_framing" in backend.contexts[1]


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
        assert "RetriesExhausted" in result.error
        assert "final_answer" in result.error
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
        assert "RetriesExhausted" in result.error

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

    def test_cap_above_planning_inputs_overflows_at_first_solving_turn(self):
        intent = IntentPayload(refined_goal="Find it.", constraints=())
        largest = max(
            token_length(render_planning_context(PROMPTS.holistic, "q?")),
            token_length(render_planning_context(PROMPTS.holistic, "q?", intent)),
        )
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
        def failing(args):
            raise ToolTransportError("retriever is down")

        registry = ToolRegistry()
        registry.register(search_spec("search", "broken"), failing)
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
        with pytest.raises(ArgumentSchemaViolation) as expected:
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
        assert "BackendExhausted" in result.error


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
        counts = [register_tokens(r, TWO_HOP_QUESTION, PROMPTS.solving) for r in registers]
        assert counts == sorted(counts)
        assert all(step.token_count >= count for step, count in zip(solving, counts))

    def test_run_tokenizes_each_recorded_step_once(self, monkeypatch):
        calls = []

        def spy(text):
            calls.append(text)
            return default_tokenizer(text)

        monkeypatch.setattr(dagsearch.register, "default_tokenizer", spy)
        steps = run_two_hop().trajectory.steps
        assert [step.stage for step in steps].count("planning") == 2
        assert len(steps) == 9
        # each planning input is tokenized whole, once
        assert calls[:2] == [step.state for step in steps[:2]]
        # a solving turn tokenizes only the lines its previous input lacked
        solving_calls = calls[2:]
        previous: set[str] = set()
        for step in steps[2:]:
            lines = step.state.split("\n")
            new_lines = [line for line in dict.fromkeys(lines) if line not in previous]
            assert solving_calls[: len(new_lines)] == new_lines
            solving_calls = solving_calls[len(new_lines) :]
            previous = set(lines)
        assert solving_calls == []
        monkeypatch.undo()
        assert all(step.token_count == token_length(step.state) for step in steps)
        tokenized = sum(token_length(text) for text in calls)
        assert tokenized < sum(step.token_count for step in steps)

    def test_rebuilt_registers_are_stable(self):
        result = run_two_hop()
        registers = rebuild_registers(result.trajectory)
        # 6 solving updates before final, plus the initial state and the final no-op
        assert len(registers) == 8
        assert registers[-1] == registers[-2]
        snapshots = [json.dumps(register_to_dict(r), sort_keys=True) for r in registers]
        again = [
            json.dumps(register_to_dict(r), sort_keys=True)
            for r in rebuild_registers(run_two_hop().trajectory)
        ]
        assert snapshots == again


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

    def test_tampered_recording_diverges(self, tmp_path):
        result = run_two_hop()
        trajectory = result.trajectory
        steps = trajectory.steps
        tampered = steps[3]
        object.__setattr__(tampered, "state", tampered.state + " TAMPERED")
        replayed = replay_run(trajectory, strict=True, clock=fixed_clock())
        assert replayed.outcome == "aborted"
        assert "ReplayDivergence" in replayed.error

    def test_non_strict_replay_ignores_drift(self):
        result = run_two_hop()
        steps = result.trajectory.steps
        object.__setattr__(steps[3], "state", steps[3].state + " TAMPERED")
        replayed = replay_run(result.trajectory, strict=False, clock=fixed_clock())
        assert replayed.outcome == "answered"


class TestRunConfig:
    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            RunConfig(max_turns=0)
        with pytest.raises(ValueError):
            RunConfig(max_context_tokens=-1)
        with pytest.raises(ValueError):
            RunConfig(max_malformed_retries=-1)

    def test_defaults_match_contract(self):
        config = RunConfig()
        assert config.max_turns == 40
        assert config.max_context_tokens == 32_000
        assert config.max_malformed_retries == 2
        assert config.top_k == 3
