import json
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dagsearch.register
from dagsearch.plan import ANSWERED, PENDING, build_plan
from dagsearch.protocol import Action, ActionKind, IntentPayload
from dagsearch.register import (
    ContextOverflow,
    IllegalActionInStage,
    LineTokenCounter,
    Register,
    ToolLogEntry,
    apply_action,
    capped_token_length,
    default_tokenizer,
    init_register,
    register_from_dict,
    register_to_dict,
    register_tokens,
    render_context,
    token_length,
)
from dagsearch.tools import Document, ToolResult

QUESTION = "What year was the university founded?"
PROMPT = "You are a search agent. Emit one action per turn."


def intent():
    return IntentPayload(refined_goal="Find the founding year.", constraints=("answer is a year",))


def chain_plan():
    return build_plan([("t1", "identify the university"), ("t2", "find the founding year")], [("t1", "t2")])


def fresh():
    return init_register(intent(), chain_plan())


def act(kind, payload):
    return Action.create(kind, payload)


def tool_call(task_id="t1", query="university"):
    return act(
        ActionKind.TOOL_CALL,
        {"task_id": task_id, "tool_name": "search", "arguments": {"query": query}},
    )


def result(token="oxfordish"):
    return ToolResult(
        documents=(
            Document(source_id="fix:a", title="Doc A", text=f"raw {token} body text"),
            Document(source_id="fix:b", title="Doc B", text="second raw document"),
            Document(source_id="fix:c", title="Doc C", text="third raw document"),
        )
    )


class TestInit:
    def test_empty_slots(self):
        register = fresh()
        assert register.plan_history == ()
        assert register.revisit_history == ()
        assert register.tool_log == ()

    def test_initial_plan_id_is_zero(self):
        assert fresh().plan.plan_id == 0

    def test_render_contains_goal_verbatim(self):
        text = render_context(fresh(), QUESTION, PROMPT)
        assert "Find the founding year." in text


class TestApply:
    def test_planning_actions_are_illegal(self):
        action = act(
            ActionKind.INTENT_REFINEMENT, {"refined_goal": "again", "constraints": []}
        )
        with pytest.raises(IllegalActionInStage):
            apply_action(fresh(), action)

    def test_tool_call_appends_provisional_entry(self):
        register = apply_action(fresh(), tool_call(), result())
        assert len(register.tool_log) == 1
        entry = register.tool_log[0]
        assert entry.tool_name == "search"
        assert entry.condensed_facts == ()
        assert not entry.extracted
        assert register.plan.nodes["t1"].status == "active"
        assert register.pending_tool_result is not None

    def test_tool_result_required_exactly_for_tool_calls(self):
        with pytest.raises(ValueError):
            apply_action(fresh(), tool_call())
        answer = act(ActionKind.TASK_ANSWER, {"answers": [{"task_id": "t1", "answer": "x"}]})
        with pytest.raises(ValueError):
            apply_action(fresh(), answer, result())

    def test_doc_extraction_fills_entry_and_evidence(self):
        register = apply_action(fresh(), tool_call(), result())
        extraction = act(
            ActionKind.DOC_EXTRACTION,
            {"task_id": "t1", "facts": ["the university is Oxford"], "source_ids": ["fix:a"]},
        )
        register = apply_action(register, extraction)
        entry = register.tool_log[0]
        assert entry.condensed_facts == ("the university is Oxford",)
        assert entry.source_ids == ("fix:a",)
        assert entry.extracted
        assert register.plan.nodes["t1"].evidence == ("the university is Oxford",)
        assert register.pending_tool_result is None

    def test_second_extraction_extends_facts(self):
        register = apply_action(fresh(), tool_call(), result())
        ext = lambda fact: act(
            ActionKind.DOC_EXTRACTION, {"task_id": "t1", "facts": [fact], "source_ids": []}
        )
        register = apply_action(register, ext("first"))
        register = apply_action(register, ext("second"))
        assert register.tool_log[0].condensed_facts == ("first", "second")

    def test_extraction_without_matching_call_still_attaches_evidence(self):
        extraction = act(
            ActionKind.DOC_EXTRACTION, {"task_id": "t2", "facts": ["known"], "source_ids": []}
        )
        register = apply_action(fresh(), extraction)
        assert register.plan.nodes["t2"].evidence == ("known",)
        assert register.tool_log == ()

    def test_task_answer_updates_plan(self):
        answer = act(ActionKind.TASK_ANSWER, {"answers": [{"task_id": "t1", "answer": "Oxford"}]})
        register = apply_action(fresh(), answer)
        assert register.plan.nodes["t1"].status == ANSWERED

    def test_revisit_archives_discarded_answers(self):
        register = fresh()
        register = apply_action(
            register,
            act(
                ActionKind.TASK_ANSWER,
                {"answers": [{"task_id": "t1", "answer": "Oxford"}, {"task_id": "t2", "answer": "1096"}]},
            ),
        )
        register = apply_action(
            register, act(ActionKind.REVISIT_TASK, {"task_id": "t1", "reason": "contradiction"})
        )
        assert len(register.revisit_history) == 2
        assert register.revisit_history[0].task_id == "t1"
        assert register.revisit_history[0].discarded_answer == "Oxford"
        assert register.revisit_history[0].reason == "contradiction"
        assert register.revisit_history[1].task_id == "t2"
        assert "t1" in register.revisit_history[1].reason
        assert register.plan.nodes["t1"].status == PENDING

    def test_replanning_archives_and_increments_plan_id(self):
        payload = {
            "reason": "split the final hop",
            "tasks": [
                {"task_id": "s1", "description": "new first"},
                {"task_id": "s2", "description": "new second"},
            ],
            "edges": [["s1", "s2"]],
        }
        register = apply_action(fresh(), tool_call(), result())
        register = apply_action(register, act(ActionKind.REPLANNING, payload))
        assert len(register.plan_history) == 1
        assert register.plan_history[0].reason == "split the final hop"
        assert register.plan.plan_id == 1
        assert register.tool_log == ()
        assert register.revisit_history == ()
        assert register.pending_tool_result is None
        # archived snapshot keeps the statuses it had
        assert register.plan_history[0].plan.nodes["t1"].status == "active"

    def test_history_length_equals_replan_count(self):
        register = fresh()
        for i in range(3):
            payload = {
                "reason": f"attempt {i}",
                "tasks": [{"task_id": f"r{i}", "description": "redo"}],
                "edges": [],
            }
            register = apply_action(register, act(ActionKind.REPLANNING, payload))
        assert len(register.plan_history) == 3
        assert register.plan.plan_id == 3
        assert [s.plan.plan_id for s in register.plan_history] == [0, 1, 2]

    def test_final_answer_is_a_no_op(self):
        register = fresh()
        after = apply_action(register, act(ActionKind.FINAL_ANSWER, {"answer": "1096"}))
        assert after is register

    def test_update_is_pure(self):
        register = fresh()
        call = tool_call()
        once = apply_action(register, call, result())
        twice = apply_action(register, call, result())
        assert once == twice
        assert register.tool_log == ()


class TestRender:
    def test_section_order_and_empty_sections_omitted(self):
        text = render_context(fresh(), QUESTION, PROMPT)
        assert text.startswith(PROMPT)
        expected = ["## Question", "## Refined intent", "## Current plan 0"]
        positions = [text.index(h) for h in expected]
        assert positions == sorted(positions)
        assert "## Tool log" not in text
        assert "## Archived plans" not in text
        assert "## Revisited tasks" not in text
        assert "## Latest tool output" not in text

    def test_raw_documents_render_only_while_pending(self):
        register = apply_action(fresh(), tool_call(), result("uniqueraw"))
        with_pending = render_context(register, QUESTION, PROMPT)
        assert "uniqueraw" in with_pending
        extraction = act(
            ActionKind.DOC_EXTRACTION,
            {"task_id": "t1", "facts": ["condensed fact"], "source_ids": ["fix:a"]},
        )
        register = apply_action(register, extraction)
        after = render_context(register, QUESTION, PROMPT)
        assert "uniqueraw" not in after
        assert "condensed fact" in after

    def test_append_only_step_extends_previous_render(self):
        register = apply_action(fresh(), tool_call(), result())
        register = apply_action(
            register,
            act(ActionKind.DOC_EXTRACTION, {"task_id": "t1", "facts": ["f"], "source_ids": []}),
        )
        before = render_context(register, QUESTION, PROMPT)
        # same task again: no status flip, so the render strictly extends
        register = apply_action(register, tool_call(query="refined query"), result())
        after = render_context(register, QUESTION, PROMPT)
        assert after.startswith(before)
        assert len(after) > len(before)
        before_tokens = default_tokenizer(before)
        after_tokens = default_tokenizer(after)
        assert after_tokens[: len(before_tokens)] == before_tokens

    def test_unextracted_older_entries_are_annotated(self):
        register = apply_action(fresh(), tool_call(), result())
        register = apply_action(register, tool_call(query="second try"), result())
        text = render_context(register, QUESTION, PROMPT)
        assert "(no facts extracted)" in text

    def test_overflow_raises(self):
        text = render_context(fresh(), QUESTION, PROMPT)
        for counter in (token_length, LineTokenCounter()):
            with pytest.raises(ContextOverflow, match="over the 10-token cap"):
                capped_token_length(text, 10, counter)
            assert capped_token_length(text, token_length(text), counter) == token_length(text)

    def test_render_is_deterministic(self):
        a = render_context(fresh(), QUESTION, PROMPT)
        b = render_context(fresh(), QUESTION, PROMPT)
        assert a == b


class TestTokens:
    def test_empty_string(self):
        assert token_length("") == 0

    def test_two_words(self):
        assert token_length("hello world") == 2

    def test_punctuation_counts(self):
        assert token_length("a,b") == 3

    def test_custom_tokenizer_injectable(self):
        assert token_length("a b c", tokenizer=lambda t: t.split()) == 3

    @given(st.text(), st.text())
    def test_count_is_additive_over_newline(self, a, b):
        assert token_length(a + "\n" + b) == token_length(a) + token_length(b)

    @given(
        st.lists(
            st.lists(st.sampled_from(["", "a b", "x, y.", " tail ", "ünï code", "\t!?"]) | st.text()),
            max_size=6,
        )
    )
    def test_line_counter_equals_token_length(self, texts_as_lines):
        counter = LineTokenCounter()
        for lines in texts_as_lines:
            text = "\n".join(lines)
            assert counter(text) == token_length(text)

    def test_line_counter_tokenizes_only_new_lines(self, monkeypatch):
        calls = []

        def spy(text):
            calls.append(text)
            return default_tokenizer(text)

        monkeypatch.setattr(dagsearch.register, "default_tokenizer", spy)
        counter = LineTokenCounter()
        assert counter("a b\nc\na b") == 5
        assert calls == ["a b", "c"]
        assert counter("a b\nd e f") == 5
        assert calls == ["a b", "c", "d e f"]
        # only the previous text's lines are kept
        assert counter("c") == 1
        assert calls[-1] == "c"

    def test_register_tokens_excludes_ephemeral(self):
        register = apply_action(fresh(), tool_call(), result())
        persistent = register_tokens(register, QUESTION, PROMPT)
        full = token_length(render_context(register, QUESTION, PROMPT))
        assert persistent < full

    def test_register_tokens_non_decreasing_over_updates(self):
        register = fresh()
        counts = [register_tokens(register, QUESTION, PROMPT)]
        register = apply_action(register, tool_call(), result())
        counts.append(register_tokens(register, QUESTION, PROMPT))
        register = apply_action(
            register,
            act(ActionKind.DOC_EXTRACTION, {"task_id": "t1", "facts": ["f"], "source_ids": []}),
        )
        counts.append(register_tokens(register, QUESTION, PROMPT))
        register = apply_action(
            register, act(ActionKind.TASK_ANSWER, {"answers": [{"task_id": "t1", "answer": "x"}]})
        )
        counts.append(register_tokens(register, QUESTION, PROMPT))
        assert counts == sorted(counts)


class TestSnapshots:
    def test_round_trip(self):
        register = apply_action(fresh(), tool_call(), result())
        register = apply_action(
            register,
            act(ActionKind.DOC_EXTRACTION, {"task_id": "t1", "facts": ["f"], "source_ids": ["fix:a"]}),
        )
        restored = register_from_dict(register_to_dict(register))
        assert restored == register

    def test_tool_log_entry_lines_follow_replace_and_stay_out_of_equality(self):
        entry = ToolLogEntry(step_index=1, task_id="t1", tool_name="search", arguments={"query": "q"})
        assert entry.rendered_lines == ('Step 1: search for t1 with {"query":"q"}',)
        extracted = replace(entry, condensed_facts=("f",), source_ids=("fix:a",), extracted=True)
        assert extracted.rendered_lines == (
            'Step 1: search for t1 with {"query":"q"}',
            "  sources: fix:a",
            "  facts:",
            "  * f",
        )
        fresh_entry = ToolLogEntry(step_index=1, task_id="t1", tool_name="search", arguments={"query": "q"})
        assert entry == fresh_entry  # one has its lines cached, the other not
        register = replace(fresh(), tool_log=(entry,))
        assert register_to_dict(register) == register_to_dict(replace(fresh(), tool_log=(fresh_entry,)))
        assert register_from_dict(register_to_dict(register)) == register

    def test_snapshot_is_json_and_versioned(self):
        snapshot = register_to_dict(fresh())
        assert snapshot["version"] == 1
        json.dumps(snapshot)

    def test_unknown_version_rejected(self):
        snapshot = register_to_dict(fresh())
        snapshot["version"] = 99
        with pytest.raises(ValueError):
            register_from_dict(snapshot)
