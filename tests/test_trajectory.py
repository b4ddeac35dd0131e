import csv
import json
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dagsearch.register
import dagsearch.trajectory
from dagsearch.protocol import ActionKind
from dagsearch.register import default_tokenizer
from dagsearch.trajectory import (
    EmptyCurrent,
    EvalRecord,
    StepRecord,
    Trajectory,
    UnfilteredInput,
    acc_score,
    cache_ratio,
    context_compactness,
    context_curve,
    export_sft,
    load_trajectories,
    normalize_answer,
    rft_filter,
    step_cache_ratios,
    write_cache_ratios,
    write_context_curve,
    write_eval_report,
)
from helpers import COMPLIANT_KINDS, make_trajectory, run_two_hop, run_twenty_turn

K = ActionKind


def solving_trajectory(states):
    steps = [
        StepRecord(
            index=i,
            stage="solving",
            state=state,
            kind="tool_call",
            payload={},
            raw_text="",
            model_text="",
            token_count=len(default_tokenizer(state)),
        )
        for i, state in enumerate(states, start=1)
    ]
    return Trajectory(question="q?", steps=steps)


def whole_state_ratios(states):
    return [
        cache_ratio(default_tokenizer(prev), default_tokenizer(cur))
        for prev, cur in zip(states, states[1:])
    ]


_ATOMS = ["foo", "bar", "x", "y", "Ünïcode", "日本語", "α_β", ",", ".", "!?", "-", "", " ", "   ", "\t", "\u00a0"]
_LINE = st.lists(st.sampled_from(_ATOMS), max_size=6).map(" ".join) | st.text(max_size=8)


@st.composite
def state_sequences(draw):
    """Multi-line states, each made from the last by line edits or drawn afresh."""
    lines = draw(st.lists(_LINE, max_size=8))
    states = [list(lines)]
    for _ in range(draw(st.integers(1, 5))):
        for _ in range(draw(st.integers(1, 3))):
            edit = draw(st.sampled_from(["replace", "insert", "delete", "duplicate", "respace", "join", "split", "fresh"]))
            i = draw(st.integers(0, max(len(lines) - 1, 0)))
            if edit == "fresh":
                lines = draw(st.lists(_LINE, max_size=8))
            elif edit == "insert" or not lines:
                lines.insert(i, draw(_LINE))
            elif edit == "replace":
                lines[i] = draw(_LINE)
            elif edit == "delete":
                del lines[i]
            elif edit == "duplicate":
                lines.insert(i, lines[i])
            elif edit == "respace":
                lines[i] = draw(st.sampled_from(["  ", " ", "\t"])).join(lines[i].split(" ")) + " "
            elif edit == "join" and i + 1 < len(lines):
                lines[i : i + 2] = [lines[i] + " " + lines[i + 1]]
            else:
                head, _, tail = lines[i].partition(" ")
                lines[i : i + 1] = [head, tail]
        states.append(list(lines))
    return ["\n".join(state) for state in states]


def _spy(calls):
    def spy(text):
        calls.append(text)
        return default_tokenizer(text)

    return spy


def _lines_holding_more_than(lines, n):
    """How many leading ``lines`` it takes to hold more than ``n`` tokens (all, if they never do)."""
    total = 0
    for taken, line in enumerate(lines, start=1):
        total += len(default_tokenizer(line))
        if total > n:
            return taken
    return len(lines)


class TestAccScore:
    def test_cover_match(self):
        assert acc_score("The answer is Paris.", {"paris"}) == 1

    def test_normalization(self):
        assert acc_score("paris", {"Paris"}) == 1

    def test_wrong_answer(self):
        assert acc_score("Lyon", {"paris"}) == 0

    def test_articles_stripped(self):
        assert acc_score("The University of Oxford", {"University of Oxford"}) == 1

    def test_token_boundary_substring_only(self):
        # "rome" inside "chrome" is not a token-boundary cover
        assert acc_score("they used chrome", {"rome"}) == 0

    def test_any_of_multiple_golds(self):
        assert acc_score("It is Beijing.", {"Peking", "Beijing"}) == 1

    def test_empty_prediction(self):
        assert acc_score("", {"paris"}) == 0

    def test_normalize_answer(self):
        assert normalize_answer("The  Answer, is: Paris!") == "answer is paris"


class TestCacheRatio:
    def test_prefix_example(self):
        assert cache_ratio([5, 7, 9], [5, 7, 9, 2, 4]) == 0.6

    def test_identical(self):
        assert cache_ratio([1, 2], [1, 2]) == 1.0

    def test_first_token_differs(self):
        assert cache_ratio([9, 2], [1, 2]) == 0.0

    def test_empty_current(self):
        with pytest.raises(EmptyCurrent):
            cache_ratio([1], [])

    def test_shrinking_current(self):
        assert cache_ratio([1, 2, 3, 4], [1, 2]) == 1.0

    def test_strict_append_yields_length_quotient(self):
        prev = [3, 1, 4, 1, 5]
        cur = prev + [9, 2, 6]
        assert cache_ratio(prev, cur) == len(prev) / len(cur)


class TestRftFilter:
    def test_clean_correct_trajectory_accepted(self):
        decision = rft_filter(make_trajectory(COMPLIANT_KINDS), ["x"])
        assert decision.accepted
        assert decision.reason is None

    def test_retry_step_rejected_as_schema(self):
        trajectory = make_trajectory(COMPLIANT_KINDS, retries_at=(3,))
        decision = rft_filter(trajectory, ["x"])
        assert not decision.accepted
        assert decision.reason == "schema"

    def test_wrong_answer_rejected(self):
        decision = rft_filter(make_trajectory(COMPLIANT_KINDS), ["different"])
        assert not decision.accepted
        assert decision.reason == "incorrect"

    def test_first_action_not_planning_rejected(self):
        kinds = [K.TOOL_CALL] + COMPLIANT_KINDS[1:]
        decision = rft_filter(make_trajectory(kinds), ["x"])
        assert decision.reason == "positional"

    def test_second_action_not_planning_rejected(self):
        kinds = [K.INTENT_REFINEMENT, K.TOOL_CALL, K.DOC_EXTRACTION, K.TASK_ANSWER, K.FINAL_ANSWER]
        decision = rft_filter(make_trajectory(kinds), ["x"])
        assert decision.reason == "positional"

    def test_last_action_not_final_rejected(self):
        kinds = COMPLIANT_KINDS[:-1]
        decision = rft_filter(make_trajectory(kinds, outcome="budget_exhausted"), ["x"])
        assert decision.reason == "incomplete"
        # even if the outcome lies, the positional check fires
        decision = rft_filter(make_trajectory(kinds, outcome="answered"), ["x"])
        assert decision.reason == "positional"

    def test_planning_action_mid_solve_rejected(self):
        kinds = [
            K.INTENT_REFINEMENT,
            K.PROBLEM_FRAMING,
            K.TOOL_CALL,
            K.PROBLEM_FRAMING,
            K.TASK_ANSWER,
            K.FINAL_ANSWER,
        ]
        decision = rft_filter(make_trajectory(kinds), ["x"])
        assert decision.reason == "positional"

    def test_mid_run_final_answer_rejected(self):
        kinds = [
            K.INTENT_REFINEMENT,
            K.PROBLEM_FRAMING,
            K.FINAL_ANSWER,
            K.TASK_ANSWER,
            K.FINAL_ANSWER,
        ]
        decision = rft_filter(make_trajectory(kinds), ["x"])
        assert decision.reason == "positional"

    def test_retrospection_mid_run_is_fine(self):
        kinds = [
            K.INTENT_REFINEMENT,
            K.PROBLEM_FRAMING,
            K.TOOL_CALL,
            K.DOC_EXTRACTION,
            K.TASK_ANSWER,
            K.REVISIT_TASK,
            K.TOOL_CALL,
            K.DOC_EXTRACTION,
            K.TASK_ANSWER,
            K.FINAL_ANSWER,
        ]
        assert rft_filter(make_trajectory(kinds), ["x"]).accepted

    def test_unanswered_outcome_rejected(self):
        trajectory = make_trajectory(COMPLIANT_KINDS, outcome="aborted")
        assert rft_filter(trajectory, ["x"]).reason == "incomplete"

    def test_real_two_hop_run_accepted(self):
        result = run_two_hop()
        assert rft_filter(result.trajectory, ["1096"]).accepted


class TestExport:
    def test_record_count_matches_steps(self, tmp_path):
        trajectory = make_trajectory(COMPLIANT_KINDS)
        out = tmp_path / "corpus.jsonl"
        count = export_sft([trajectory], out)
        assert count == len(COMPLIANT_KINDS)
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == count
        assert lines[0].keys() == {"question_id", "step_index", "state", "action_raw_text"}
        assert lines[2]["action_raw_text"].startswith("<tool_call>")

    def test_empty_input_writes_empty_file(self, tmp_path):
        out = tmp_path / "corpus.jsonl"
        assert export_sft([], out) == 0
        assert out.read_text() == ""

    def test_mixed_input_rejected(self, tmp_path):
        good = make_trajectory(COMPLIANT_KINDS)
        bad = make_trajectory(COMPLIANT_KINDS, retries_at=(4,))
        with pytest.raises(UnfilteredInput):
            export_sft([good, bad], tmp_path / "corpus.jsonl")

    def test_count_is_sum_over_trajectories(self, tmp_path):
        long_kinds = [
            K.INTENT_REFINEMENT,
            K.PROBLEM_FRAMING,
            K.TOOL_CALL,
            K.DOC_EXTRACTION,
            K.TOOL_CALL,
            K.DOC_EXTRACTION,
            K.TASK_ANSWER,
            K.FINAL_ANSWER,
        ]
        trajectories = [make_trajectory(COMPLIANT_KINDS), make_trajectory(long_kinds)]
        count = export_sft(trajectories, tmp_path / "corpus.jsonl")
        assert count == len(COMPLIANT_KINDS) + len(long_kinds)


class TestContextCurve:
    def test_single_run(self):
        result = run_two_hop()
        curve = context_curve([result.trajectory], min_runs=1)
        assert [point.turn for point in curve] == list(range(1, 8))
        assert all(point.n == 1 for point in curve)
        assert not any(point.flagged for point in curve)

    def test_means_and_flags_over_uneven_runs(self):
        t1 = make_trajectory(COMPLIANT_KINDS)  # solving token counts 103..106
        t2 = make_trajectory(COMPLIANT_KINDS[:2] + [K.TASK_ANSWER, K.FINAL_ANSWER])
        curve = context_curve([t1, t2], min_runs=2)
        assert curve[0].n == 2
        assert curve[0].mean_tokens == (103 + 103) / 2
        assert not curve[0].flagged
        assert curve[2].n == 1
        assert curve[2].flagged

    def test_empty(self):
        assert context_curve([]) == []


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        result = run_two_hop()
        path = tmp_path / "two_hop.jsonl"
        result.trajectory.save(path)
        loaded = Trajectory.load(path)
        assert loaded.question == result.trajectory.question
        assert loaded.outcome == result.trajectory.outcome
        assert loaded.answer == result.trajectory.answer
        assert loaded.steps == result.trajectory.steps
        assert loaded.prompts == result.trajectory.prompts
        assert loaded.config == result.trajectory.config

    def test_load_directory(self, tmp_path):
        result = run_two_hop()
        result.trajectory.save(tmp_path / "a.jsonl")
        result.trajectory.save(tmp_path / "b.jsonl")
        assert len(load_trajectories(tmp_path)) == 2

    def test_non_trajectory_file_rejected(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"record": "other"}\n')
        with pytest.raises(Exception):
            Trajectory.load(path)


class TestAnalyses:
    def test_compactness_report_on_twenty_turn_fixture(self):
        result = run_twenty_turn()
        report = context_compactness(result.trajectory)
        assert report.register_tokens < report.transcript_tokens
        assert 0 < report.ratio < 1

    def test_step_cache_ratios_length(self):
        result = run_twenty_turn()
        ratios = step_cache_ratios(result.trajectory)
        assert len(ratios) == 19
        assert all(0.0 <= r <= 1.0 for r in ratios)

    def test_step_cache_ratios_tokenize_new_lines_and_the_divergence_only(self, monkeypatch):
        states = [step.state for step in run_twenty_turn().trajectory.solving_steps()]
        counted, compared = [], []
        monkeypatch.setattr(dagsearch.register, "default_tokenizer", _spy(counted))
        monkeypatch.setattr(dagsearch.trajectory, "default_tokenizer", _spy(compared))
        for prev, cur in zip(states, states[1:]):
            counted.clear()
            compared.clear()
            assert step_cache_ratios(solving_trajectory([prev, cur])) == whole_state_ratios([prev, cur])
            prev_lines, cur_lines = prev.split("\n"), cur.split("\n")
            # counting tokenizes the first state's distinct lines, then only
            # the lines the second state lacked
            new_lines = [line for line in dict.fromkeys(cur_lines) if line not in prev_lines]
            assert counted == list(dict.fromkeys(prev_lines)) + new_lines
            # the compare takes each state's lines in order from the first
            # line that differs, and stops at the first token that differs
            same = len(os.path.commonprefix([prev_lines, cur_lines]))
            rest = {"prev": prev_lines[same:], "cur": cur_lines[same:]}
            taken = {"prev": 0, "cur": 0}
            for text in compared:
                side = "prev" if rest["prev"][taken["prev"] :][:1] == [text] else "cur"
                assert rest[side][taken[side]] == text
                taken[side] += 1
            shared = len(
                os.path.commonprefix(
                    [default_tokenizer("\n".join(rest["prev"])), default_tokenizer("\n".join(rest["cur"]))]
                )
            )
            for side in rest:
                assert taken[side] <= _lines_holding_more_than(rest[side], shared)
        counted.clear()
        compared.clear()
        assert step_cache_ratios(run_twenty_turn().trajectory) == whole_state_ratios(states)
        tokenized = sum(len(default_tokenizer(text)) for text in counted + compared)
        assert tokenized < sum(len(default_tokenizer(state)) for state in states) / 2

    def test_step_cache_ratios_across_a_line_boundary(self):
        states = ["foo\nbar x", "foo bar\ny", "foo bar\ny\n\n z", "  foo  bar\t\ny z"]
        assert step_cache_ratios(solving_trajectory(states)) == [2 / 3, 0.75, 1.0]

    def test_step_cache_ratios_empty_later_state_raises(self):
        # an empty first state has no ratio; it shares nothing with the next
        assert step_cache_ratios(solving_trajectory([" \n", "a b"])) == [0.0]
        with pytest.raises(EmptyCurrent):
            step_cache_ratios(solving_trajectory(["a b", "a\nb", "\n \t\n"]))

    @given(state_sequences())
    def test_step_cache_ratios_equal_whole_state_ratios(self, states):
        trajectory = solving_trajectory(states)
        try:
            expected = whole_state_ratios(states)
        except EmptyCurrent:
            with pytest.raises(EmptyCurrent):
                step_cache_ratios(trajectory)
        else:
            assert step_cache_ratios(trajectory) == expected


class TestEvalRecords:
    def test_from_trajectory(self):
        result = run_two_hop()
        record = EvalRecord.from_trajectory(result.trajectory, ["1096"])
        assert record.acc == 1
        assert record.turns == 7
        assert record.outcome == "answered"
        assert 0 < record.mean_cache_ratio <= 1
        assert len(record.context_lengths) == 7
        assert len(record.cache_ratios) == 6
        assert record.final_context_tokens == record.context_lengths[-1]

    def test_csv_writers(self, tmp_path):
        result = run_two_hop()
        record = EvalRecord.from_trajectory(result.trajectory, ["1096"])
        report = tmp_path / "report.csv"
        write_eval_report([record], report)
        rows = list(csv.DictReader(report.open()))
        assert rows[0]["acc"] == "1"
        curve_path = tmp_path / "curve.csv"
        write_context_curve(context_curve([result.trajectory], min_runs=1), curve_path)
        assert len(list(csv.DictReader(curve_path.open()))) == 7
        cache_path = tmp_path / "cache.csv"
        write_cache_ratios([result.trajectory], cache_path)
        assert len(list(csv.DictReader(cache_path.open()))) == 6
