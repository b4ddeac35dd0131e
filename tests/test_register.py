import os
import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dagsearch.register
from dagsearch.backend import CompletionRequest, chat_messages
from dagsearch.plan import ACTIVE, ANSWERED, PENDING, DagPlan, TaskNode, is_complete
from dagsearch.protocol import PLANNING_KINDS, ActionKind, ProtocolError
from dagsearch.register import (
    FOLD_CHARS,
    LineTokenCounter,
    PlanSnapshot,
    Register,
    RevisitRecord,
    ToolLogEntry,
    apply_action,
    common_prefix_length,
    default_tokenizer,
    prompt_lines,
    render_context,
    render_correction,
    render_head,
    render_planning_context,
    token_length,
)
from dagsearch.tools import Document, ToolResult
from dagsearch.trajectory import TRAJECTORY_VERSION
from helpers import make_action, make_plan
from oracles import (
    reference_correction,
    reference_messages,
    reference_planning_render,
    reference_render,
    register_tokens,
)

QUESTION = "What year was the university founded?"
PROMPT = "You are a search agent. Emit one action per turn."


def intent():
    return {"refined_goal": "Find the founding year.", "constraints": ["answer is a year"]}


def chain_plan():
    return make_plan([("t1", "identify the university"), ("t2", "find the founding year")], [("t1", "t2")])


def fresh():
    return Register(chain_plan(), TRAJECTORY_VERSION)


def act(kind, payload):
    return make_action(kind, payload)


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


def extraction(task_id="t1"):
    return act(ActionKind.DOC_EXTRACTION, {"task_id": task_id, "facts": ["f"], "source_ids": []})


def answer(task_id, text):
    return act(ActionKind.TASK_ANSWER, {"answers": [{"task_id": task_id, "answer": text}]})


def render(register):
    """The solving input of ``register`` as text: its rendered lines joined on newlines."""
    return "\n".join(render_context(register, render_head(PROMPT, QUESTION, intent())))


def stable_prefix(text):
    """Everything before the current plan's Status: paragraph."""
    return text[: text.index("\n\nStatus:\n")]


def assert_stable_prefix_extends(setup, steps):
    """Render after ``setup``, then after ``steps`` (each an (action, tool output) pair).

    The stable prefix strictly extends, as a string and as tokens, and
    Status: is the last persistent section. Returns both renders.
    """
    register = fresh()
    for action, tool_output in setup:
        register = apply_action(register, action, tool_output)
    before = render(register)
    for action, tool_output in steps:
        register = apply_action(register, action, tool_output)
    after = render(register)
    before_stable, after_stable = stable_prefix(before), stable_prefix(after)
    assert after_stable.startswith(before_stable)
    assert len(after_stable) > len(before_stable)
    before_tokens = default_tokenizer(before_stable)
    after_tokens = default_tokenizer(after_stable)
    assert after_tokens[: len(before_tokens)] == before_tokens
    assert len(after_tokens) > len(before_tokens)
    # only the one-turn raw output follows the Status: paragraph
    persistent = render(replace(register, pending_tool_result=None))
    status = persistent[len(after_stable) :]
    assert status.startswith("\n\nStatus:\n") and status.count("\n\n") == 1
    assert after.startswith(persistent + "\n\n## Latest tool output\n")
    return before, after


class TestInit:
    def test_empty_slots(self):
        register = fresh()
        assert register.plan_history == ()
        assert register.revisit_history == ()
        assert register.tool_log == ()

    def test_initial_plan_id_is_zero(self):
        assert fresh().plan.plan_id == 0

    def test_render_contains_goal_verbatim(self):
        text = render(fresh())
        assert "Find the founding year." in text


class TestApply:
    @pytest.mark.parametrize("kind", sorted(PLANNING_KINDS), ids=lambda kind: kind.value)
    def test_planning_actions_are_illegal(self, kind):
        payloads = {
            ActionKind.INTENT_REFINEMENT: {"refined_goal": "again", "constraints": []},
            ActionKind.PROBLEM_FRAMING: {"tasks": [{"task_id": "t1", "description": "again"}], "edges": []},
        }
        with pytest.raises(ProtocolError) as info:
            apply_action(fresh(), act(kind, payloads[kind]))
        assert str(info.value) == (
            f"<{kind.value}> is a planning action; only task-solving and retrospection actions are legal while solving"
        )

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
        text = render(fresh())
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
        with_pending = render(register)
        assert "uniqueraw" in with_pending
        extraction = act(
            ActionKind.DOC_EXTRACTION,
            {"task_id": "t1", "facts": ["condensed fact"], "source_ids": ["fix:a"]},
        )
        register = apply_action(register, extraction)
        after = render(register)
        assert "uniqueraw" not in after
        assert "condensed fact" in after

    def test_append_only_step_extends_previous_render(self):
        # the same task again: no status flip
        assert_stable_prefix_extends(
            [(tool_call(), result()), (extraction(), None)],
            [(tool_call(query="refined query"), result())],
        )

    def test_status_flip_extends_stable_prefix(self):
        # t2 flips pending -> answered, then a call re-checks it
        before, after = assert_stable_prefix_extends(
            [(tool_call(), result()), (extraction(), None), (answer("t1", "Oxford"), None)],
            [(answer("t2", "1096"), None), (tool_call("t2", "founding year"), result())],
        )
        assert "- t2: pending" in before and "- t2: answered = 1096" in after

    def test_unextracted_older_entries_are_annotated(self):
        register = apply_action(fresh(), tool_call(), result())
        register = apply_action(register, tool_call(query="second try"), result())
        text = render(register)
        assert "(no facts extracted)" in text

    def test_render_is_deterministic(self):
        a = render(fresh())
        b = render(fresh())
        assert a == b


# Values a model or a tool puts into a solving input: empty, with newlines
# that split a line, and with "\r" and U+2028, which do not.
render_values = st.text(st.sampled_from("ab \u00fc\n\r\u2028"), max_size=6)
trailing_space = st.sampled_from(["", " ", " \n\t", "\r\n"])
stage_prompts = st.builds(str.__add__, render_values, trailing_space)


@st.composite
def rendered_plans(draw, plan_id):
    """A plan of one to four tasks in any status, its dependencies pointing from lower to higher ids."""
    ids = [f"t{i}" for i in range(1, draw(st.integers(1, 4)) + 1)]
    nodes = {}
    for tid in ids:
        status = draw(st.sampled_from((PENDING, ACTIVE, ANSWERED)))
        answer = draw(render_values) if status == ANSWERED else None
        nodes[tid] = TaskNode(task_id=tid, description=draw(render_values), status=status, answer=answer)
    edges = tuple((a, b) for i, a in enumerate(ids) for b in ids[i + 1 :] if draw(st.booleans()))
    return DagPlan(plan_id=plan_id, nodes=nodes, edges=edges)


@st.composite
def rendered_registers(draw):
    """A register of any version with archived plans, revisits, tool-log entries, folds and a pending output."""
    history = tuple(
        PlanSnapshot(plan=draw(rendered_plans(plan_id)), reason=draw(render_values))
        for plan_id in range(draw(st.integers(0, 2)))
    )
    plan = draw(rendered_plans(len(history)))
    task_ids = st.sampled_from(sorted(plan.nodes))
    revisits = draw(st.lists(st.builds(RevisitRecord, task_ids, render_values, render_values), max_size=2))
    log = []
    for step in range(1, draw(st.integers(0, 4)) + 1):
        extracted = draw(st.booleans())
        values = st.lists(render_values, max_size=2 if extracted else 0)
        log.append(
            ToolLogEntry(
                step_index=step,
                task_id=draw(task_ids),
                tool_name=draw(render_values),
                arguments={"query": draw(render_values)},
                condensed_facts=tuple(draw(values)),
                source_ids=tuple(draw(values)),
                extracted=extracted,
            )
        )
    documents = draw(st.none() | st.lists(st.builds(Document, render_values, render_values, render_values), max_size=2))
    return Register(
        plan_history=history,
        plan=plan,
        revisit_history=tuple(revisits),
        tool_log=tuple(log),
        version=draw(st.integers(1, 4)),
        step=len(log),
        pending_tool_result=None if documents is None else ToolResult(documents=tuple(documents)),
        folded=frozenset(draw(st.sets(st.integers(1, len(log))))) if log else frozenset(),
    )


# Every section, a multi-line fact and a pending output with no documents.
EVERY_SECTION = Register(
    plan_history=(PlanSnapshot(plan=chain_plan(), reason="split\nthe hop"),),
    plan=make_plan([("t1", "first\r"), ("t2", "")], [("t1", "t2")], plan_id=1),
    revisit_history=(RevisitRecord(task_id="t1", discarded_answer="old\u2028answer", reason=""),),
    tool_log=(
        ToolLogEntry(1, "t1", "search", {"query": "q"}, ("a fact\nover two lines",), ("fix:a",), True),
        ToolLogEntry(2, "t2", "search", {"query": "q\n"}),
        ToolLogEntry(3, "t2", "search", {"query": ""}),
    ),
    version=4,
    step=3,
    pending_tool_result=ToolResult(documents=()),
)


intents = st.fixed_dictionaries({"refined_goal": render_values, "constraints": st.lists(render_values, max_size=3)})


class TestRenderLines:
    @given(rendered_registers(), intents, render_values, stage_prompts)
    @example(EVERY_SECTION, intent(), "q\n", "prompt \n\t")
    def test_lines_are_the_reference_text_split(self, register, intent, question, prompt):
        lines = render_context(register, render_head(prompt, question, intent))
        assert lines == tuple(reference_render(register, question, prompt, intent).split("\n"))

    @given(stage_prompts, render_values, st.none() | intents)
    @example("prompt \n\t", "", None)
    @example("北京\r\n", "q\r\n", {"refined_goal": "goal \t", "constraints": ["", "a\nb ", "café\u2028"]})
    def test_planning_lines_are_the_reference_text(self, prompt, question, intent):
        lines = render_planning_context(prompt, question, intent)
        assert type(lines) is tuple
        assert "\n".join(lines) == reference_planning_render(prompt, question, intent)

    @given(
        st.builds(str.__add__, st.text(st.sampled_from("ab \u00fc\n\r\U0001f600"), max_size=6), trailing_space),
        render_values,
        st.none() | intents,
        st.none() | rendered_registers(),
        st.none() | st.text(st.sampled_from("ab \n\r"), max_size=6),
    )
    @example("\U0001f600 \r\n", "q\n", None, EVERY_SECTION, "bad\nreply")
    @example("", "", None, None, "\n")
    @example("\n\n", "q", {"refined_goal": "a\nb", "constraints": ["c\n"]}, None, None)
    def test_request_is_the_text_a_turn_sent_and_splits_as_the_backend_did(
        self, prompt, question, intent, register, diagnostic
    ):
        # A planning input without a register; a solving input after its head.
        if register is None:
            lines = render_planning_context(prompt, question, intent)
            text = reference_planning_render(prompt, question, intent)
        else:
            lines = render_context(register, render_head(prompt, question, intent))
            text = reference_render(register, question, prompt, intent)
        if diagnostic is not None:
            lines += render_correction(diagnostic)
            text = reference_correction(text, diagnostic)
        assert "\n".join(lines) == text
        request = CompletionRequest(lines, len(prompt_lines(prompt).lines), 1024, 0.0)
        assert chat_messages(request) == reference_messages(text, prompt)

    def test_archived_plans_and_log_entries_render_as_the_same_lines_on_every_turn(self):
        register = apply_action(fresh(), tool_call(), result())
        replan = {"reason": "r", "tasks": [{"task_id": "s1", "description": "d"}], "edges": []}
        register = apply_action(register, act(ActionKind.REPLANNING, replan))
        register = apply_action(register, tool_call("s1"), result())
        head = render_head(PROMPT, QUESTION, intent())
        before = render_context(register, head)
        after = render_context(apply_action(register, tool_call("s1", "again"), result()), head)
        start = before.index("## Archived plans") + 1
        end = start + len(register.plan_history[0].lines)
        assert before[start:end] == register.plan_history[0].lines
        assert all(a is b for a, b in zip(before[start:end], after[start:end]))
        step = before.index("## Tool log") + 1
        assert before[step] is after[step] is register.tool_log[0].lines[0]


# Prompt texts as a user might write them: trailing spaces and newlines,
# carriage returns, empty lines and non-ASCII text.
_PROMPT_LINES = ["", "You are a search agent.", "  - rule one, été", "\r", "step\r", "北京 — café", "\t"]
prompt_texts = st.builds(
    lambda lines, tail: "\n".join(lines) + tail,
    st.lists(st.sampled_from(_PROMPT_LINES) | st.text(max_size=8), max_size=6),
    st.sampled_from(["", " ", "\n", "\n\n", " \n\t ", "\r\n", "\n\r"]),
)
# An input's lines after the prompt: some repeat a prompt line.
counter_lines = st.sampled_from(_PROMPT_LINES + ["a b", "x, y.", "## Question"]) | st.text(max_size=8)


class TestTokens:
    def test_empty_string(self):
        assert token_length("") == 0

    def test_two_words(self):
        assert token_length("hello world") == 2

    def test_punctuation_counts(self):
        assert token_length("a,b") == 3

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
            assert counter(tuple(text.split("\n"))) == token_length(text)

    @given(
        st.text(st.sampled_from("ab\nü"), max_size=12),
        st.sampled_from([0, 2046, 2047, 2048, 2049, 4095, 4096, 4097]),
        st.text(st.sampled_from("ab\nü"), max_size=4),
        st.text(st.sampled_from("ab\nü"), max_size=4),
        st.lists(st.tuples(st.text(st.sampled_from("ab ü"), max_size=4), st.booleans()), max_size=40),
        st.lists(st.text(st.sampled_from("ab ü"), max_size=4), max_size=3),
        st.lists(st.text(st.sampled_from("ab ü"), max_size=4), max_size=3),
    )
    def test_common_prefix_length_is_the_common_prefix(self, base, at, left, right, head, left_lines, right_lines):
        text = (base or "a") * (4200 // len(base or "a") + 1)
        a, b = text[:at] + left, text[:at] + right
        # Tuples of lines, as every caller on a turn passes: a shared head
        # line is the same object in both, or an equal but distinct string.
        lines = tuple(line for line, _ in head)
        copies = tuple(line.encode().decode() if copy else line for line, copy in head)
        line_pairs = ((lines + tuple(left_lines), copies + tuple(right_lines)), (lines, copies + tuple(right_lines)))
        for x, y in ((a, b), (b, a), (a, a + right), ("", a), *line_pairs, *(pair[::-1] for pair in line_pairs)):
            assert common_prefix_length(x, y) == len(os.path.commonprefix([x, y]))

    def test_line_counter_tokenizes_only_new_lines(self, monkeypatch):
        calls = []

        def spy(text):
            calls.append(text)
            return default_tokenizer(text)

        monkeypatch.setattr(dagsearch.register, "default_tokenizer", spy)
        counter = LineTokenCounter()
        assert counter(("a b", "c", "a b")) == 5
        assert calls == ["a b", "c"]
        assert counter(("a b", "d e f")) == 5
        assert calls == ["a b", "c", "d e f"]
        # a counted line stays known after the inputs holding it are gone
        assert counter(("c",)) == 1
        assert counter.head(("c", "a b"), 1) == 1
        assert calls == ["a b", "c", "d e f"]

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 6), st.lists(counter_lines, max_size=5)),
            max_size=8,
        )
    )
    def test_head_and_call_tokenize_each_distinct_line_once(self, inputs):
        # Each input keeps some leading lines of the current one and adds
        # lines from a small pool, so heads and repeats are common; heads
        # and calls interleave at random.
        seed = {"a b": 2, "": 0}
        calls = []

        def spy(text):
            calls.append(text)
            return default_tokenizer(text)

        def tokens(lines):
            return len(default_tokenizer("\n".join(lines)))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dagsearch.register, "default_tokenizer", spy)
            counter, current = LineTokenCounter(seed), ()
            for is_head, keep, tail in inputs:
                lines = current[:keep] + tuple(tail)
                if is_head:
                    same = len(os.path.commonprefix([current, lines]))
                    assert counter.head(lines, same) == tokens(lines[:same])
                else:
                    assert counter(lines) == tokens(lines)
                assert counter.lines == lines
                current = lines
        assert len(calls) == len(set(calls))
        assert not set(calls) & seed.keys()
        assert seed == {"a b": 2, "": 0}  # the counter keeps a copy

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 6), st.lists(counter_lines, max_size=5), st.integers(0, 6)),
            max_size=8,
        )
    )
    def test_a_call_finds_the_shared_head_that_a_head_may_be_given(self, inputs):
        # A call records as ``same`` the most leading lines an input shares
        # with the one before; ``head`` takes any count up to it as given.
        def tokens(lines):
            return len(default_tokenizer("\n".join(lines)))

        counter, current = LineTokenCounter(), ()
        for is_head, keep, tail, lower in inputs:
            lines = current[:keep] + tuple(tail)
            same = len(os.path.commonprefix([current, lines]))
            known = min(lower, same)
            if is_head:
                assert counter.head(lines, known) == tokens(lines[:known])
            else:
                assert counter(lines) == tokens(lines)
                assert counter.same == same
            assert counter.lines == lines
            current = lines

    @given(prompt_texts, st.lists(st.lists(counter_lines, max_size=5), max_size=5))
    def test_a_counter_given_prompt_counts_counts_as_one_without(self, prompt, tails):
        head = tuple(prompt.rstrip().split("\n"))
        # both renderers open an input with exactly these lines
        assert prompt_lines(prompt).lines == render_planning_context(prompt, QUESTION)[: len(head)] == head
        given_counts, plain = LineTokenCounter(prompt_lines(prompt).counts), LineTokenCounter()
        for tail in tails:
            lines = head + tuple(tail)
            assert given_counts(lines) == plain(lines) == token_length("\n".join(lines))
            assert given_counts.totals == plain.totals
            assert given_counts.lines == plain.lines

    def test_prompt_lines_are_kept_read_only(self, monkeypatch):
        calls = []

        def spy(text):
            calls.append(text)
            return default_tokenizer(text)

        monkeypatch.setattr(dagsearch.register, "default_tokenizer", spy)
        memo = prompt_lines("a b\n\nc, d.\na b\n\n")
        assert memo.lines == ("a b", "", "c, d.", "a b")
        assert dict(memo.counts) == {"a b": 2, "": 0, "c, d.": 4}
        assert calls == ["a b", "", "c, d."]
        assert prompt_lines("a b\n\nc, d.\na b\n\n") is memo
        assert len(calls) == 3
        with pytest.raises(TypeError):
            memo.counts["a b"] = 0

    def test_threads_asking_for_a_new_prompt_at_once_count_it_once(self, monkeypatch):
        calls = []

        def spy(text):
            calls.append(text)
            return default_tokenizer(text)

        monkeypatch.setattr(dagsearch.register, "default_tokenizer", spy)
        prompt = "\n".join(f"line {i} of the prompt, with some words." for i in range(200))
        workers = (os.cpu_count() or 1) + 2
        start = threading.Barrier(workers)
        results = []

        def ask():
            start.wait(timeout=10)
            results.append(prompt_lines(prompt))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == workers and all(result is results[0] for result in results)
        assert sorted(calls) == sorted(prompt.split("\n"))

    def test_register_tokens_excludes_ephemeral(self):
        register = apply_action(fresh(), tool_call(), result())
        persistent = register_tokens(register, QUESTION, PROMPT, intent())
        full = token_length(render(register))
        assert persistent < full

    def test_register_tokens_non_decreasing_over_updates(self):
        register = fresh()
        counts = [register_tokens(register, QUESTION, PROMPT, intent())]
        register = apply_action(register, tool_call(), result())
        counts.append(register_tokens(register, QUESTION, PROMPT, intent()))
        register = apply_action(
            register,
            act(ActionKind.DOC_EXTRACTION, {"task_id": "t1", "facts": ["f"], "source_ids": []}),
        )
        counts.append(register_tokens(register, QUESTION, PROMPT, intent()))
        register = apply_action(
            register, act(ActionKind.TASK_ANSWER, {"answers": [{"task_id": "t1", "answer": "x"}]})
        )
        counts.append(register_tokens(register, QUESTION, PROMPT, intent()))
        assert counts == sorted(counts)


# Fold property: three tasks, t1 -> t2, driven by generated solving actions.
# Each op is (kind, task, fact sizes); calls and answers are drawn twice as
# often as the rest. A fact of 13,000 characters passes either version's
# FOLD_CHARS alone, one of 5,000 passes version 4's, so that a fifth to a
# third of the examples fold in version 3, and more in version 4.
FOLD_TASKS = ("t1", "t2", "t3")
FOLD_EDGES = (("t1", "t2"),)
fold_ops = st.lists(
    st.tuples(
        st.sampled_from(("call", "answer", "call", "answer", "extract", "revisit", "replan")),
        st.sampled_from(FOLD_TASKS),
        st.lists(st.sampled_from((10, 5_000, 13_000)), max_size=2),
    ),
    min_size=8,
    max_size=40,
)


def fold_actions(op, number):
    """The (action, tool output) pairs of a generated op; ``number`` keeps facts distinct.

    A call is followed by the extraction of its facts unless there are none.
    """
    kind, task_id, sizes = op
    if kind in ("call", "extract"):
        facts = [f"fact{number}.{i} " + "x" * size for i, size in enumerate(sizes)]
        extraction = act(ActionKind.DOC_EXTRACTION, {"task_id": task_id, "facts": facts, "source_ids": []})
        if kind == "extract":
            return [(extraction, None)]
        return [(tool_call(task_id, query=f"q{number}"), result())] + ([(extraction, None)] if facts else [])
    if kind == "answer":
        return [(answer(task_id, f"a{number}"), None)]
    if kind == "revisit":
        return [(act(ActionKind.REVISIT_TASK, {"task_id": task_id, "reason": f"r{number}"}), None)]
    tasks = [{"task_id": tid, "description": f"redo {tid}"} for tid in FOLD_TASKS]
    edges = [list(edge) for edge in FOLD_EDGES]
    return [(act(ActionKind.REPLANNING, {"reason": f"r{number}", "tasks": tasks, "edges": edges}), None)]


def applied(version, ops):
    """(action, register before, register after) for each op's pair that the register accepts."""
    register = Register(make_plan([(t, f"do {t}") for t in FOLD_TASKS], FOLD_EDGES), version)
    for number, op in enumerate(ops):
        for action, output in fold_actions(op, number):
            try:
                after = apply_action(register, action, output)
            except ProtocolError:
                continue
            yield action, register, after
            register = after


def hidden_steps(register):
    """Step indices of the entries the version 3 or 4 render leaves out."""
    if register.version == 4:
        return set(register.folded)
    # version 3 hides the answered entries up to the newest one its last fold logged
    answered = {tid for tid, node in register.plan.nodes.items() if node.status == ANSWERED}
    through = max(register.folded, default=0)
    return {e.step_index for e in register.tool_log if e.step_index <= through and e.task_id in answered}


def shown_steps(register):
    """Step indices of the tool-log entries that the render shows."""
    text = render(register)
    return {e.step_index for e in register.tool_log if f"Step {e.step_index}: " in text}


def persistent_tokens(register, version=None):
    """``register_tokens`` of ``register``, rendered in ``version``'s layout if given."""
    return register_tokens(replace(register, version=version or register.version), QUESTION, PROMPT, intent())


def check_render_is_v2_without_folded_entries(version, ops):
    """The fold property of ``version`` over the generated ``ops``."""
    tokens = None
    for action, previous, register in applied(version, ops):
        if tokens is None:
            tokens = {v: persistent_tokens(previous, v) for v in (2, version)}
        kind = action.kind
        # a fold happens only on a task_answer that leaves a task open,
        # once the answered entries still shown render to more than the
        # version's FOLD_CHARS characters
        answered = {tid for tid, node in register.plan.nodes.items() if node.status == ANSWERED}
        if version == 3:  # entries up to the last fold count as shown no more
            through = max(previous.folded, default=0)
            newly = [e for e in register.tool_log if e.step_index > through and e.task_id in answered]
        else:
            newly = [e for e in register.tool_log if e.step_index not in previous.folded and e.task_id in answered]
        shown_chars = sum(len(line) for e in newly for line in e.rendered_lines)
        folds = kind is ActionKind.TASK_ANSWER and not is_complete(register.plan) and shown_chars > FOLD_CHARS[version]
        # a version 3 fold adds every entry logged so far, a version 4 fold
        # exactly the entries answered at it; a replan empties the log
        steps = {e.step_index for e in (register.tool_log if version == 3 else newly)} if folds else set()
        old = set() if kind is ActionKind.REPLANNING else previous.folded
        assert register.folded == old | steps
        # the register keeps every entry; the render leaves out exactly the
        # hidden ones and recomputes the markers over the entries it shows
        hidden_at = hidden_steps(register)
        hidden = [e for e in register.tool_log if e.step_index in hidden_at]
        shown = tuple(e for e in register.tool_log if e.step_index not in hidden_at)
        v2 = render(replace(register, version=2))
        folded = render(register)
        assert folded == render(replace(register, tool_log=shown, version=2))
        hidden_lines = {line for e in hidden for line in e.rendered_lines} | {"  (no facts extracted)"}
        if not shown:
            hidden_lines.add("## Tool log")
        assert set(v2.split("\n")) - set(folded.split("\n")) <= hidden_lines
        assert not any(f"Step {e.step_index}: " in folded for e in hidden)
        assert ("## Tool log" in folded) == bool(shown)
        # only the folding versions shrink within a plan epoch: version 4
        # after a fold; version 3 also when an answer hides a task's
        # entries made up to the last fold
        now = {v: persistent_tokens(register, v) for v in (2, version)}
        if kind is not ActionKind.REPLANNING:
            assert now[2] >= tokens[2]
            if now[version] < tokens[version]:
                again = version == 3 and kind is ActionKind.TASK_ANSWER and hidden_at - hidden_steps(previous)
                assert folds or again
        tokens = now


BIG = 5_000  # two facts of one task stay under version 3's FOLD_CHARS, four pass it
# A revisit across a fold and a re-answer, then the answer of a task open
# at the fold. Version 3 folds t1 and shows its entry again after the
# revisit; both later answers hide entries on a turn that is not a fold.
REVISIT_ACROSS_A_FOLD = [
    ("call", "t3", [10]), ("call", "t1", [13_000]), ("answer", "t1", []), ("revisit", "t1", []),
    ("call", "t1", [10]), ("answer", "t1", []), ("answer", "t3", []),
]


class TestFold:
    def test_thresholds_by_version(self):
        # the trajectory version pins each threshold; versions 1 and 2 never fold
        assert FOLD_CHARS == {3: 12_000, 4: 4_000}

    def test_every_version_from_3_has_a_threshold(self):
        # ``_fold`` reads FOLD_CHARS.get(version): a version without one would never fold
        assert FOLD_CHARS.keys() >= set(range(3, TRAJECTORY_VERSION + 1))

    @settings(max_examples=150, deadline=None)
    @given(ops=fold_ops)
    # t1 and t3 cross FOLD_CHARS and fold while t2 is open; a revisit shows
    # t1's entries again and its answer hides them again.
    @example(
        ops=[
            ("call", "t1", [BIG, BIG]), ("answer", "t1", []), ("call", "t3", [BIG, BIG]), ("call", "t2", []),
            ("answer", "t3", []), ("revisit", "t1", []), ("answer", "t1", []), ("replan", "t1", []),
        ]
    )
    def test_v3_render_is_v2_without_folded_entries(self, ops):
        check_render_is_v2_without_folded_entries(3, ops)

    @settings(max_examples=150, deadline=None)
    @given(ops=fold_ops)
    @example(ops=REVISIT_ACROSS_A_FOLD)
    def test_v4_render_is_v2_without_folded_entries(self, ops):
        check_render_is_v2_without_folded_entries(4, ops)

    @pytest.mark.parametrize(
        "version",
        [
            pytest.param(
                3,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="the v3 render hides folded entries whose task is answered after the "
                    "fold; v3 recordings must replay as recorded, so only v4 has the fix",
                ),
            ),
            4,
        ],
    )
    @settings(max_examples=150, deadline=None)
    @given(ops=fold_ops)
    # t1's entries fold while t2 is open; the revisit shows them again in
    # v3, and answering t1 again hides them on a turn that is not a fold.
    @example(
        ops=[
            ("call", "t1", [BIG, BIG]), ("answer", "t1", []), ("call", "t3", [BIG, BIG]), ("call", "t2", []),
            ("answer", "t3", []), ("revisit", "t1", []), ("answer", "t1", []),
        ]
    )
    @example(ops=REVISIT_ACROSS_A_FOLD)
    def test_entries_leave_the_render_only_on_a_fold_or_a_replan(self, version, ops):
        for action, previous, register in applied(version, ops):
            fold = register.folded != previous.folded
            if action.kind is ActionKind.REPLANNING or fold:
                continue
            shown_before, shown_now = shown_steps(previous), shown_steps(register)
            assert shown_before <= shown_now, (action.kind, sorted(shown_before - shown_now))

    def test_v4_answers_after_a_revisit_across_a_fold_hide_nothing(self):
        turns = {version: list(applied(version, REVISIT_ACROSS_A_FOLD)) for version in (3, 4)}
        kinds = [action.kind.value for action, _, _ in turns[4]]
        assert kinds == ["tool_call", "doc_extraction"] * 2 + ["task_answer", "revisit_task"] + [
            "tool_call", "doc_extraction", "task_answer", "task_answer"
        ]
        fold, revisit, reanswer, last = (turns[4][i][2] for i in (4, 5, 8, 9))
        # both versions fold t1's entry (step 3) at step 5, while t3 is open
        assert hidden_steps(fold) == {3} == hidden_steps(turns[3][4][2])
        assert fold.folded == {3} and turns[3][4][2].folded == {1, 3}
        # version 4 keeps it folded through the revisit; neither later
        # answer hides an entry, so the input does not shrink on those turns
        assert hidden_steps(revisit) == hidden_steps(reanswer) == hidden_steps(last) == {3}
        for before, after in zip(turns[4][4:], turns[4][5:]):
            assert persistent_tokens(after[2]) >= persistent_tokens(before[2])
        # version 3 shows it again after the revisit, then hides it on the
        # re-answer and t3's entry on the last answer, neither a fold
        v3 = [after for _, _, after in turns[3]]
        assert hidden_steps(v3[5]) == set() and hidden_steps(v3[8]) == {3} and hidden_steps(v3[9]) == {1, 3}
        assert persistent_tokens(v3[8]) < persistent_tokens(v3[7])
        assert persistent_tokens(v3[9]) < persistent_tokens(v3[8])

    def test_fold_measures_entry_lines_with_their_newlines(self):
        # The answered entry renders to one character over FOLD_CHARS only
        # when its fact's newline counts: split into lines, it does not pass.
        register = Register(chain_plan(), 4)
        register = apply_action(register, tool_call(), result())
        base = apply_action(register, extraction())
        fact = "f\n" + "x" * (FOLD_CHARS[4] - sum(map(len, base.tool_log[0].rendered_lines)))
        register = apply_action(
            register, act(ActionKind.DOC_EXTRACTION, {"task_id": "t1", "facts": [fact], "source_ids": []})
        )
        lines = register.tool_log[0].rendered_lines
        assert sum(map(len, lines)) == FOLD_CHARS[4] + 1
        assert sum(map(len, "\n".join(lines).split("\n"))) == FOLD_CHARS[4]
        assert apply_action(register, answer("t1", "Oxford")).folded == {1}

    def test_no_fold_without_an_open_task(self):
        for version in (3, 4):
            register = Register(make_plan([("t1", "a"), ("t2", "b")], []), version)
            for task_id in ("t1", "t2"):
                register = apply_action(register, tool_call(task_id), result())
                facts = ["x" * FOLD_CHARS[version]]
                register = apply_action(
                    register, act(ActionKind.DOC_EXTRACTION, {"task_id": task_id, "facts": facts, "source_ids": []})
                )
                register = apply_action(register, answer(task_id, "done"))
            # t1's answer folded its entry while t2 was open; t2's did not fold
            assert hidden_steps(register) == {1}, version
            text = render(register)
            assert "Step 1: " not in text and "Step 4: " in text

    @pytest.mark.parametrize("version", (1, 2))
    def test_versions_1_and_2_never_fold(self, version):
        ops = [("call", "t1", [13_000, 13_000]), ("answer", "t1", []), ("call", "t3", [10])]
        *_, (_, _, register) = applied(version, ops)
        assert register.folded == frozenset()
        assert "Step 1: " in render(register)


class TestSnapshots:
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
        assert register == replace(fresh(), tool_log=(fresh_entry,))
