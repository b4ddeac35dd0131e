import json
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagsearch.engine import PromptPack
from dagsearch.protocol import (
    _ANSWER_FIELDS,
    _TASK_FIELDS,
    PAYLOAD_FIELDS,
    Action,
    ActionKind,
    PLANNING_KINDS,
    ProtocolError,
    parse_action,
    validate_payload,
)
from dagsearch.plan import build_plan
from helpers import DATA_DIR, MUTATION_MODES, make_action, mutate_action, payload_cases, random_action


class TestParse:
    def test_minimal_block(self):
        action = parse_action('<final_answer>{"answer":"Paris"}</final_answer>')
        assert action.kind is ActionKind.FINAL_ANSWER
        assert action.payload == {"answer": "Paris"}

    def test_unterminated_payload(self):
        text = 'I think we need more info. <tool_call>{"task_id":"t1","tool_name":"search"'
        with pytest.raises(ProtocolError, match="^<tool_call> payload is not well-formed JSON: Expecting ','"):
            parse_action(text)

    def test_unknown_tag(self):
        with pytest.raises(ProtocolError, match="^<guess> is not a legal action; legal actions are: doc_extraction, "):
            parse_action('<guess>{"answer":"x"}</guess>')

    def test_no_block(self):
        with pytest.raises(ProtocolError, match="^no action block found; "):
            parse_action("I will answer Paris.")

    def test_multiple_blocks(self):
        text = (
            '<final_answer>{"answer":"a"}</final_answer>'
            '<final_answer>{"answer":"b"}</final_answer>'
        )
        with pytest.raises(ProtocolError, match=re.escape("found 2 action blocks (<final_answer>, <final_answer>);")):
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
        with pytest.raises(ProtocolError, match="^payload between <final_answer> and </final_answer> must be"):
            parse_action("<final_answer>Paris</final_answer>")

    def test_close_tag_only_before_open_tag_is_free_text(self):
        with pytest.raises(ProtocolError, match="^no action block found; "):
            parse_action("</final_answer> then <final_answer> Paris")

    def test_many_unclosed_known_tags_scan_in_linear_time(self):
        started = time.perf_counter()
        with pytest.raises(ProtocolError, match="^no action block found; "):
            parse_action("<tool_call> x" * 20_000)
        assert time.perf_counter() - started < 1.0

    def test_array_payload_rejected(self):
        with pytest.raises(ProtocolError, match="^payload between <final_answer> and </final_answer> must be"):
            parse_action("<final_answer>[1]</final_answer>")

    def test_deeply_nested_array_is_malformed(self):
        text = '<tool_call>{"a":' + "[" * 100_000 + "]" * 100_000 + "}</tool_call>"
        with pytest.raises(ProtocolError, match="^<tool_call> payload is nested too deeply to decode$"):
            parse_action(text)

    def test_deeply_nested_arguments_are_malformed(self):
        arguments = '{"a":' * 5_000 + "1" + "}" * 5_000
        text = (
            '<tool_call>{"task_id": "t1", "tool_name": "search", "arguments": '
            + arguments
            + "}</tool_call>"
        )
        with pytest.raises(ProtocolError, match="^<tool_call> payload is nested too deeply to decode$"):
            parse_action(text)

    def test_missing_close_tag_after_valid_json(self):
        with pytest.raises(ProtocolError, match="^<final_answer> block is missing its closing </final_answer> tag$"):
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
        with pytest.raises(ProtocolError, match="^strict mode: no text is allowed outside the action block$"):
            parse_action(text, strict=True)

    def test_strict_mode_accepts_whitespace(self):
        assert parse_action('\n  <final_answer>{"answer":"x"}</final_answer>\n', strict=True)

    def test_whitespace_between_tag_and_payload(self):
        action = parse_action('<final_answer> {"answer": "x"} </final_answer>')
        assert action.payload["answer"] == "x"

    @pytest.mark.parametrize(
        "text",
        [
            '<final_answer>{"answer": "x\\ud800y"}</final_answer>',
            '<final_answer>{"answer": "\\udfff"}</final_answer>',
            'note \ud800 <final_answer>{"answer": "x"}</final_answer>',
            '<final_answer>{"answer": "x\udc00"}</final_answer>',
            '<final_answer>{"x\\ud800": 1}</final_answer>',
        ],
        ids=["escape", "low-escape", "free-text", "raw-in-payload", "escape-in-key"],
    )
    def test_lone_surrogate_is_malformed_and_not_echoed(self, text):
        with pytest.raises(ProtocolError, match=r"^the reply holds a lone surrogate \(U\+D800-U\+DFFF\)") as info:
            parse_action(text)
        assert not any("\ud800" <= ch <= "\udfff" for ch in str(info.value))

    def test_escaped_surrogate_pair_is_one_character(self):
        action = parse_action('<final_answer>{"answer": "\\ud83d\\ude00"}</final_answer>')
        assert action.payload["answer"] == "\U0001F600"


class TestSchemas:
    def test_empty_final_answer_is_legal(self):
        action = make_action(ActionKind.FINAL_ANSWER, {"answer": ""})
        assert make_action(action.kind, action.payload).raw_text == '<final_answer>{"answer":""}</final_answer>'

    def test_missing_field(self):
        with pytest.raises(ProtocolError, match='^<final_answer> payload invalid: missing required field "answer"$'):
            parse_action("<final_answer>{}</final_answer>")

    def test_unexpected_field(self):
        with pytest.raises(ProtocolError, match='^<final_answer> payload invalid: unexpected field "note"$'):
            parse_action('<final_answer>{"answer":"x","note":"y"}</final_answer>')

    def test_empty_refined_goal(self):
        with pytest.raises(ProtocolError, match='^<intent_refinement> payload invalid: "refined_goal" must be non-'):
            parse_action('<intent_refinement>{"refined_goal":"  ","constraints":[]}</intent_refinement>')

    def test_empty_answers_list(self):
        with pytest.raises(ProtocolError, match='^<task_answer> payload invalid: "answers" must be a non-empty '):
            parse_action('<task_answer>{"answers":[]}</task_answer>')

    # The graph rules belong to build_plan: these payloads are shape-valid,
    # and the plan built from them is rejected with a re-promptable ProtocolError.
    def test_framing_duplicate_task_ids(self):
        payload = {
            "tasks": [
                {"task_id": "t1", "description": "a"},
                {"task_id": "t1", "description": "b"},
            ],
            "edges": [],
        }
        action = make_action(ActionKind.PROBLEM_FRAMING, payload)
        with pytest.raises(ProtocolError, match='^task "t1" is declared more than once$'):
            build_plan(action.payload["tasks"], action.payload["edges"])

    def test_framing_undeclared_edge_endpoint(self):
        payload = {
            "tasks": [{"task_id": "t1", "description": "a"}],
            "edges": [["t1", "t9"]],
        }
        action = make_action(ActionKind.PROBLEM_FRAMING, payload)
        with pytest.raises(ProtocolError, match='^edge endpoint "t9" is not a declared task$'):
            build_plan(action.payload["tasks"], action.payload["edges"])

    def test_framing_cyclic_edges(self):
        payload = {
            "tasks": [
                {"task_id": "t1", "description": "a"},
                {"task_id": "t2", "description": "b"},
            ],
            "edges": [["t1", "t2"], ["t2", "t1"]],
        }
        action = make_action(ActionKind.PROBLEM_FRAMING, payload)
        with pytest.raises(ProtocolError, match="^dependency edges form a cycle through: t1, t2$"):
            build_plan(action.payload["tasks"], action.payload["edges"])

    @pytest.mark.parametrize(
        "text, diagnostic",
        [
            (
                '<problem_framing>{"tasks":[{"task_id":"t1","description":"a","x":1}],"edges":[]}</problem_framing>',
                '<problem_framing> payload invalid: tasks[0] unexpected field "x"',
            ),
            (
                '<problem_framing>{"tasks":[{"task_id":"t1"}],"edges":[]}</problem_framing>',
                '<problem_framing> payload invalid: tasks[0] missing required field "description"',
            ),
            (
                '<replanning>{"reason":"r","tasks":["t1"],"edges":[]}</replanning>',
                "<replanning> payload invalid: tasks[0] must be an object",
            ),
            (
                '<task_answer>{"answers":[{"task_id":"t1","answer":"a","x":1}]}</task_answer>',
                '<task_answer> payload invalid: answers[0] unexpected field "x"',
            ),
            (
                '<task_answer>{"answers":[{"answer":"a"}]}</task_answer>',
                '<task_answer> payload invalid: answers[0] missing required field "task_id"',
            ),
            (
                '<task_answer>{"answers":[7]}</task_answer>',
                "<task_answer> payload invalid: answers[0] must be an object",
            ),
            (
                '<final_answer>{"answer":"a","x":1}</final_answer>',
                '<final_answer> payload invalid: unexpected field "x"',
            ),
            (
                "<final_answer>{}</final_answer>",
                '<final_answer> payload invalid: missing required field "answer"',
            ),
        ],
        ids=[
            "framing-unexpected",
            "framing-missing",
            "replanning-not-object",
            "answers-unexpected",
            "answers-missing",
            "answers-not-object",
            "top-level-unexpected",
            "top-level-missing",
        ],
    )
    def test_field_diagnostics_carry_their_location(self, text, diagnostic):
        with pytest.raises(ProtocolError, match=f"^{re.escape(diagnostic)}$"):
            parse_action(text)

    def test_task_id_with_whitespace(self):
        with pytest.raises(ProtocolError, match='^<revisit_task> payload invalid: "task_id" must be a short'):
            parse_action('<revisit_task>{"task_id":"t 1","reason":"r"}</revisit_task>')

    def test_arguments_must_be_object(self):
        with pytest.raises(ProtocolError, match='^<tool_call> payload invalid: "arguments" must be an object$'):
            parse_action(
                '<tool_call>{"task_id":"t1","tool_name":"search","arguments":"q"}</tool_call>'
            )

    def test_diagnostics_are_reprompt_ready(self):
        try:
            parse_action("<final_answer>{}</final_answer>")
        except ProtocolError as exc:
            assert "answer" in str(exc)
        else:
            pytest.fail("expected ProtocolError")


def test_payload_diagnostics_match_the_golden_file():
    """Every case keeps the verdict and diagnostic that ``data/payload_diagnostics.jsonl`` records."""
    with open(DATA_DIR / "payload_diagnostics.jsonl", encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    assert [(ActionKind(record["kind"]), record["payload"]) for record in records] == payload_cases()
    changed = []
    for record in records:
        try:
            validate_payload(ActionKind(record["kind"]), record["payload"])
            diagnostic = None
        except ProtocolError as exc:
            diagnostic = str(exc)
        if diagnostic != record["diagnostic"]:
            changed.append((record, diagnostic))
    assert not changed


def test_shipped_prompt_examples_match_the_payload_table():
    """Each stage prompt shows exactly its stage's kinds, each example with the table's fields in its order.

    The examples are the only copy of the grammar the model reads. An
    ``{...}`` arguments placeholder holds no grammar field and reads as {}.
    """
    prompts = PromptPack.load_default()
    nested = {"tasks": _TASK_FIELDS, "answers": _ANSWER_FIELDS}
    stages = [(prompts.holistic, PLANNING_KINDS), (prompts.solving, frozenset(ActionKind) - PLANNING_KINDS)]
    for prompt, kinds in stages:
        text = prompt.replace("{...}", "{}")
        examples = [
            (ActionKind(match.group(1)), json.JSONDecoder().raw_decode(text, match.end())[0])
            for match in re.finditer(r"<([a-z_]+)>", text)
        ]
        assert {kind for kind, _ in examples} == kinds
        for kind, payload in examples:
            assert list(payload) == list(PAYLOAD_FIELDS[kind]), kind
            for name, fields in nested.items():
                for entry in payload.get(name, ()):
                    assert list(entry) == list(fields), (kind, name)
            validate_payload(kind, payload)


class TestRender:
    def test_canonical_key_order(self):
        action = make_action(
            ActionKind.REVISIT_TASK, {"task_id": "t2", "reason": "contradiction"}
        )
        assert (
            make_action(action.kind, action.payload).raw_text
            == '<revisit_task>{"reason":"contradiction","task_id":"t2"}</revisit_task>'
        )

    def test_render_validates(self):
        bogus = Action(kind=ActionKind.FINAL_ANSWER, payload={}, raw_text="")
        with pytest.raises(ProtocolError, match='^<final_answer> payload invalid: missing required field "answer"$'):
            make_action(bogus.kind, bogus.payload).raw_text

    def test_round_trip_seeded_sample(self):
        rng = random.Random(7)
        for _ in range(300):
            action = random_action(rng)
            assert parse_action(make_action(action.kind, action.payload).raw_text) == action

    def test_parse_then_render_canonicalizes(self):
        loose = '<revisit_task> {"task_id": "t2",  "reason": "contradiction"} </revisit_task>'
        action = parse_action(loose)
        assert (
            make_action(action.kind, action.payload).raw_text
            == '<revisit_task>{"reason":"contradiction","task_id":"t2"}</revisit_task>'
        )
        # idempotent once canonical
        canonical = make_action(action.kind, action.payload).raw_text
        reparsed = parse_action(canonical)
        assert make_action(reparsed.kind, reparsed.payload).raw_text == canonical

    def test_unicode_payload_round_trip(self):
        action = make_action(ActionKind.FINAL_ANSWER, {"answer": "北京 café"})
        parsed = parse_action(make_action(action.kind, action.payload).raw_text)
        assert parsed.payload["answer"] == "北京 café"

    def test_render_is_deterministic(self):
        rng = random.Random(11)
        action = random_action(rng)
        assert make_action(action.kind, action.payload).raw_text == make_action(action.kind, action.payload).raw_text


class TestMutations:
    @pytest.mark.parametrize("mode", MUTATION_MODES)
    def test_each_mutation_mode_yields_typed_error(self, mode):
        rng = random.Random(hash(mode) % 2**32)
        for _ in range(20):
            action = random_action(rng)
            text, expected = mutate_action(rng, action, mode)
            with pytest.raises(ProtocolError, match=re.escape(expected)):
                parse_action(text)


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
    rendered = make_action(action.kind, action.payload).raw_text
    assert parse_action(rendered) == action
    # canonical payload text embeds as valid JSON between the tags
    body = rendered[rendered.index(">") + 1 : rendered.rindex("<")]
    assert json.loads(body) == action.payload
