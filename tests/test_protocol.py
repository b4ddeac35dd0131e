import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagsearch.protocol import (
    Action,
    ActionKind,
    ExtraTextOutsideBlock,
    IntentPayload,
    MalformedPayload,
    MultipleActionBlocks,
    NoActionBlock,
    PLANNING_KINDS,
    ProtocolError,
    RETROSPECTION_KINDS,
    SOLVING_KINDS,
    SchemaViolation,
    UnknownActionKind,
    parse_action,
    render_action,
    subspace_of,
)
from helpers import MUTATION_MODES, mutate_action, random_action


class TestParse:
    def test_minimal_block(self):
        action = parse_action('<final_answer>{"answer":"Paris"}</final_answer>')
        assert action.kind is ActionKind.FINAL_ANSWER
        assert action.payload == {"answer": "Paris"}

    def test_unterminated_payload(self):
        text = 'I think we need more info. <tool_call>{"task_id":"t1","tool_name":"search"'
        with pytest.raises(MalformedPayload):
            parse_action(text)

    def test_unknown_tag(self):
        with pytest.raises(UnknownActionKind):
            parse_action('<guess>{"answer":"x"}</guess>')

    def test_no_block(self):
        with pytest.raises(NoActionBlock):
            parse_action("I will answer Paris.")

    def test_multiple_blocks(self):
        text = (
            '<final_answer>{"answer":"a"}</final_answer>'
            '<final_answer>{"answer":"b"}</final_answer>'
        )
        with pytest.raises(MultipleActionBlocks):
            parse_action(text)

    def test_free_text_around_block_is_discarded(self):
        text = 'Let me answer now.\n<final_answer>{"answer":"Paris"}</final_answer>\nDone.'
        action = parse_action(text)
        assert action.payload["answer"] == "Paris"
        assert action.raw_text == '<final_answer>{"answer":"Paris"}</final_answer>'

    def test_thinking_tags_without_json_are_free_text(self):
        text = '<think>maybe search first</think><final_answer>{"answer":"x"}</final_answer>'
        assert parse_action(text).kind is ActionKind.FINAL_ANSWER

    def test_known_tag_mentioned_in_prose_is_ignored(self):
        text = 'I could use <tool_call> here. <final_answer>{"answer":"x"}</final_answer>'
        assert parse_action(text).kind is ActionKind.FINAL_ANSWER

    def test_known_tag_with_non_json_body_and_close_tag(self):
        with pytest.raises(MalformedPayload):
            parse_action("<final_answer>Paris</final_answer>")

    def test_close_tag_only_before_open_tag_is_free_text(self):
        with pytest.raises(NoActionBlock):
            parse_action("</final_answer> then <final_answer> Paris")

    def test_many_unclosed_known_tags_scan_in_linear_time(self):
        started = time.perf_counter()
        with pytest.raises(NoActionBlock):
            parse_action("<tool_call> x" * 20_000)
        assert time.perf_counter() - started < 1.0

    def test_array_payload_rejected(self):
        with pytest.raises(MalformedPayload):
            parse_action("<final_answer>[1]</final_answer>")

    def test_deeply_nested_array_is_malformed(self):
        text = '<tool_call>{"a":' + "[" * 100_000 + "]" * 100_000 + "}</tool_call>"
        with pytest.raises(MalformedPayload, match="nested too deeply"):
            parse_action(text)

    def test_deeply_nested_arguments_are_malformed(self):
        arguments = '{"a":' * 5_000 + "1" + "}" * 5_000
        text = (
            '<tool_call>{"task_id": "t1", "tool_name": "search", "arguments": '
            + arguments
            + "}</tool_call>"
        )
        with pytest.raises(MalformedPayload, match="nested too deeply"):
            parse_action(text)

    def test_missing_close_tag_after_valid_json(self):
        with pytest.raises(MalformedPayload):
            parse_action('<final_answer>{"answer":"x"} trailing')

    def test_tag_inside_consumed_payload_is_not_a_second_block(self):
        text = (
            '<doc_extraction>{"task_id":"t1","facts":["see <tool_call> docs"],'
            '"source_ids":[]}</doc_extraction>'
        )
        action = parse_action(text)
        assert action.kind is ActionKind.DOC_EXTRACTION

    def test_strict_mode_rejects_surrounding_text(self):
        text = 'thinking... <final_answer>{"answer":"x"}</final_answer>'
        assert parse_action(text).kind is ActionKind.FINAL_ANSWER
        with pytest.raises(ExtraTextOutsideBlock):
            parse_action(text, strict=True)

    def test_strict_mode_accepts_whitespace(self):
        assert parse_action('\n  <final_answer>{"answer":"x"}</final_answer>\n', strict=True)

    def test_whitespace_between_tag_and_payload(self):
        action = parse_action('<final_answer> {"answer": "x"} </final_answer>')
        assert action.payload["answer"] == "x"


class TestSchemas:
    def test_empty_final_answer_is_legal(self):
        action = Action.create(ActionKind.FINAL_ANSWER, {"answer": ""})
        assert render_action(action) == '<final_answer>{"answer":""}</final_answer>'

    def test_missing_field(self):
        with pytest.raises(SchemaViolation):
            parse_action("<final_answer>{}</final_answer>")

    def test_unexpected_field(self):
        with pytest.raises(SchemaViolation):
            parse_action('<final_answer>{"answer":"x","note":"y"}</final_answer>')

    def test_empty_refined_goal(self):
        with pytest.raises(SchemaViolation):
            parse_action('<intent_refinement>{"refined_goal":"  ","constraints":[]}</intent_refinement>')

    def test_empty_answers_list(self):
        with pytest.raises(SchemaViolation):
            parse_action('<task_answer>{"answers":[]}</task_answer>')

    def test_framing_duplicate_task_ids(self):
        payload = {
            "tasks": [
                {"task_id": "t1", "description": "a"},
                {"task_id": "t1", "description": "b"},
            ],
            "edges": [],
        }
        with pytest.raises(SchemaViolation, match="duplicate"):
            Action.create(ActionKind.PROBLEM_FRAMING, payload)

    def test_framing_undeclared_edge_endpoint(self):
        payload = {
            "tasks": [{"task_id": "t1", "description": "a"}],
            "edges": [["t1", "t9"]],
        }
        with pytest.raises(SchemaViolation, match="undeclared"):
            Action.create(ActionKind.PROBLEM_FRAMING, payload)

    def test_framing_cyclic_edges(self):
        payload = {
            "tasks": [
                {"task_id": "t1", "description": "a"},
                {"task_id": "t2", "description": "b"},
            ],
            "edges": [["t1", "t2"], ["t2", "t1"]],
        }
        with pytest.raises(SchemaViolation, match="cycle"):
            Action.create(ActionKind.PROBLEM_FRAMING, payload)

    def test_task_id_with_whitespace(self):
        with pytest.raises(SchemaViolation):
            parse_action('<revisit_task>{"task_id":"t 1","reason":"r"}</revisit_task>')

    def test_arguments_must_be_object(self):
        with pytest.raises(SchemaViolation):
            parse_action(
                '<tool_call>{"task_id":"t1","tool_name":"search","arguments":"q"}</tool_call>'
            )

    def test_diagnostics_are_reprompt_ready(self):
        try:
            parse_action("<final_answer>{}</final_answer>")
        except SchemaViolation as exc:
            assert "answer" in exc.diagnostic
        else:
            pytest.fail("expected SchemaViolation")


class TestRender:
    def test_canonical_key_order(self):
        action = Action.create(
            ActionKind.REVISIT_TASK, {"task_id": "t2", "reason": "contradiction"}
        )
        assert (
            render_action(action)
            == '<revisit_task>{"reason":"contradiction","task_id":"t2"}</revisit_task>'
        )

    def test_render_validates(self):
        bogus = Action(kind=ActionKind.FINAL_ANSWER, payload={}, raw_text="")
        with pytest.raises(SchemaViolation):
            render_action(bogus)

    def test_round_trip_seeded_sample(self):
        rng = random.Random(7)
        for _ in range(300):
            action = random_action(rng)
            assert parse_action(render_action(action)) == action

    def test_parse_then_render_canonicalizes(self):
        loose = '<revisit_task> {"task_id": "t2",  "reason": "contradiction"} </revisit_task>'
        action = parse_action(loose)
        assert (
            render_action(action)
            == '<revisit_task>{"reason":"contradiction","task_id":"t2"}</revisit_task>'
        )
        # idempotent once canonical
        assert render_action(parse_action(render_action(action))) == render_action(action)

    def test_unicode_payload_round_trip(self):
        action = Action.create(ActionKind.FINAL_ANSWER, {"answer": "北京 café"})
        parsed = parse_action(render_action(action))
        assert parsed.payload["answer"] == "北京 café"

    def test_render_is_deterministic(self):
        rng = random.Random(11)
        action = random_action(rng)
        assert render_action(action) == render_action(action)


class TestMutations:
    @pytest.mark.parametrize("mode", MUTATION_MODES)
    def test_each_mutation_mode_yields_typed_error(self, mode):
        rng = random.Random(hash(mode) % 2**32)
        for _ in range(20):
            action = random_action(rng)
            text, expected = mutate_action(rng, action, mode)
            with pytest.raises(expected):
                parse_action(text)


class TestSubspaces:
    def test_examples(self):
        assert subspace_of(ActionKind.PROBLEM_FRAMING) == "plan"
        assert subspace_of(ActionKind.DOC_EXTRACTION) == "sol"
        assert subspace_of(ActionKind.REPLANNING) == "ret"

    def test_partition_is_total_and_disjoint(self):
        union = PLANNING_KINDS | SOLVING_KINDS | RETROSPECTION_KINDS
        assert union == frozenset(ActionKind)
        assert not (PLANNING_KINDS & SOLVING_KINDS)
        assert not (PLANNING_KINDS & RETROSPECTION_KINDS)
        assert not (SOLVING_KINDS & RETROSPECTION_KINDS)
        for kind in ActionKind:
            assert subspace_of(kind) in {"plan", "sol", "ret"}


class TestIntentPayload:
    def test_round_trip(self):
        intent = IntentPayload(refined_goal="find x", constraints=("a", "b"))
        assert IntentPayload.from_payload(intent.to_payload()) == intent


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=400))
def test_closure_arbitrary_text_never_escapes_typed_errors(text):
    try:
        action = parse_action(text)
    except ProtocolError:
        pass
    else:
        assert isinstance(action, Action)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_property(seed):
    rng = random.Random(seed)
    action = random_action(rng)
    rendered = render_action(action)
    assert parse_action(rendered) == action
    # canonical payload text embeds as valid JSON between the tags
    body = rendered[rendered.index(">") + 1 : rendered.rindex("<")]
    assert json.loads(body) == action.payload
