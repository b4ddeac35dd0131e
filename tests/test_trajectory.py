import csv
import gc
import json
import os
import re
import sys
import tempfile
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dagsearch.register
import dagsearch.trajectory
from dagsearch.engine import replay_divergence, replay_run
from dagsearch.protocol import ActionKind
from dagsearch.register import LineTokenCounter, default_tokenizer, prompt_lines, token_length
from dagsearch.tools import Document, InputError, ToolResult
from dagsearch.trajectory import (
    EvalRecord,
    StepRecord,
    Trajectory,
    acc_score,
    atomic_write,
    export_sft,
    load_trajectories,
    normalize_answer,
    rft_filter,
    step_cache_ratios,
    write_eval_report,
    write_stats,
)
from helpers import (
    COMPLIANT_KINDS,
    DATA_DIR,
    acc_oracle,
    assert_line_deltas,
    make_trajectory,
    run_twenty_turn,
    run_two_hop,
    shared_counts,
)
from oracles import cache_ratio, context_compactness, sft_corpus

K = ActionKind


def solving_trajectory(states):
    inputs = [tuple(state.split("\n")) for state in states]
    steps = [
        StepRecord(
            index=i,
            stage="solving",
            lines=lines,
            shared=shared,
            kind="doc_extraction",
            payload={},
            raw_text="",
            model_text="",
            token_count=len(default_tokenizer(state)),
        )
        for i, (state, lines, shared) in enumerate(zip(states, inputs, shared_counts(inputs)), start=1)
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


@st.composite
def _long_state_sequences(draw):
    """States over 4,096 characters that first differ just before, at or after a 2,048-character block edge."""
    unit = draw(st.sampled_from(["foo bar\n", "x, y.\n", "日本語 α_β\n", "Ünïcode\t!?\n"]))
    base = unit * (4200 // len(unit) + 1)
    at = draw(st.sampled_from([2048, 4096])) + draw(st.integers(-2, 2))
    edit = draw(st.sampled_from(["insert", "replace", "truncate"]))
    piece = draw(_LINE | st.sampled_from(["\n", "\n\n", " "]))
    if edit == "insert":
        changed = base[:at] + piece + base[at:]
    elif edit == "replace":
        changed = base[:at] + piece + base[at + 1 :]
    else:
        changed = base[:at]
    return draw(st.permutations([base, changed])) + [base]


@st.composite
def _prefix_state_sequences(draw):
    """Empty states and states that are line-aligned prefixes of each other."""
    lines = draw(st.lists(_LINE, max_size=6))
    cuts = draw(st.lists(st.integers(0, len(lines)), min_size=1, max_size=5))
    return ["\n".join(lines[:cut]) for cut in cuts] + [""]


delta_state_sequences = st.one_of(state_sequences(), _prefix_state_sequences(), _long_state_sequences())


def _line_deltas(states):
    """Version 2's ``(state_shared, state)`` for each state, by the line rule.

    The shared count is the number of leading lines a state has in common
    with the one before (none for the first), stopping one line short of
    the whole state.
    """
    deltas = []
    previous: list[str] = []
    for state in states:
        lines = state.split("\n")
        shared = min(len(os.path.commonprefix([previous, lines])), len(lines) - 1)
        deltas.append((shared, "\n".join(lines[shared:])))
        previous = lines
    return deltas


def _spy(calls):
    def spy(text):
        calls.append(text)
        return default_tokenizer(text)

    return spy


def _latest_tool_output(lines):
    """An input's "## Latest tool output" section: its heading and the lines up to the next heading."""
    if "## Latest tool output" not in lines:
        return []
    start = lines.index("## Latest tool output")
    end = next((i for i in range(start + 1, len(lines)) if lines[i].startswith("## ")), len(lines))
    return lines[start:end]


def _lines_holding_more_than(lines, n):
    """How many leading ``lines`` it takes to hold more than ``n`` tokens (all, if they never do)."""
    total = 0
    for taken, line in enumerate(lines, start=1):
        total += len(default_tokenizer(line))
        if total > n:
            return taken
    return len(lines)


# Answer texts built from words that overlap, articles, punctuation, "_",
# non-ASCII letters and every kind of whitespace, or drawn freely.
_ANSWER_PIECES = ["the", "A", "an", "paris", "Paris", "rome", "chrome", "new_york", "北京", "café", "1096", "x"]
_ANSWER_PIECES += [" ", "  ", "\t", "\n", ",", ".", "-", "'", "_", "!", "\u00a0", "\u3000"]
answer_texts = st.one_of(st.lists(st.sampled_from(_ANSWER_PIECES), max_size=12).map("".join), st.text(max_size=20))


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

    @settings(max_examples=400, deadline=None)
    @given(answer_texts, st.lists(answer_texts, max_size=4))
    def test_equals_the_token_run_oracle(self, predicted, golds):
        assert acc_score(predicted, golds) == acc_oracle(predicted, golds)


class TestCacheRatio:
    def test_prefix_example(self):
        assert cache_ratio([5, 7, 9], [5, 7, 9, 2, 4]) == 0.6

    def test_identical(self):
        assert cache_ratio([1, 2], [1, 2]) == 1.0

    def test_first_token_differs(self):
        assert cache_ratio([9, 2], [1, 2]) == 0.0

    def test_empty_current(self):
        with pytest.raises(InputError, match="^current token sequence is empty$"):
            cache_ratio([1], [])

    def test_shrinking_current(self):
        assert cache_ratio([1, 2, 3, 4], [1, 2]) == 1.0

    def test_strict_append_yields_length_quotient(self):
        prev = [3, 1, 4, 1, 5]
        cur = prev + [9, 2, 6]
        assert cache_ratio(prev, cur) == len(prev) / len(cur)


class TestRftFilter:
    def test_clean_correct_trajectory_accepted(self):
        assert rft_filter(make_trajectory(COMPLIANT_KINDS), ["x"]) is None

    def test_retry_step_rejected_as_schema(self):
        trajectory = make_trajectory(COMPLIANT_KINDS, retries_at=(3,))
        assert rft_filter(trajectory, ["x"]) == "schema"

    def test_wrong_answer_rejected(self):
        assert rft_filter(make_trajectory(COMPLIANT_KINDS), ["different"]) == "incorrect"

    def test_first_action_not_planning_rejected(self):
        kinds = [K.TOOL_CALL] + COMPLIANT_KINDS[1:]
        assert rft_filter(make_trajectory(kinds), ["x"]) == "positional"

    def test_second_action_not_planning_rejected(self):
        kinds = [K.INTENT_REFINEMENT, K.TOOL_CALL, K.DOC_EXTRACTION, K.TASK_ANSWER, K.FINAL_ANSWER]
        assert rft_filter(make_trajectory(kinds), ["x"]) == "positional"

    def test_last_action_not_final_rejected(self):
        kinds = COMPLIANT_KINDS[:-1]
        assert rft_filter(make_trajectory(kinds, outcome="budget_exhausted"), ["x"]) == "incomplete"
        # even if the outcome lies, the positional check fires
        assert rft_filter(make_trajectory(kinds, outcome="answered"), ["x"]) == "positional"

    def test_planning_action_mid_solve_rejected(self):
        kinds = [
            K.INTENT_REFINEMENT,
            K.PROBLEM_FRAMING,
            K.TOOL_CALL,
            K.PROBLEM_FRAMING,
            K.TASK_ANSWER,
            K.FINAL_ANSWER,
        ]
        assert rft_filter(make_trajectory(kinds), ["x"]) == "positional"

    def test_mid_run_final_answer_rejected(self):
        kinds = [
            K.INTENT_REFINEMENT,
            K.PROBLEM_FRAMING,
            K.FINAL_ANSWER,
            K.TASK_ANSWER,
            K.FINAL_ANSWER,
        ]
        assert rft_filter(make_trajectory(kinds), ["x"]) == "positional"

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
        assert rft_filter(make_trajectory(kinds), ["x"]) is None

    def test_unanswered_outcome_rejected(self):
        trajectory = make_trajectory(COMPLIANT_KINDS, outcome="aborted")
        assert rft_filter(trajectory, ["x"]) == "incomplete"

    def test_real_two_hop_run_accepted(self):
        result = run_two_hop()
        assert rft_filter(result.trajectory, ["1096"]) is None


# Every character JSON escapes, the line separators it does not, non-BMP
# characters and plain text; an empty line is an empty list of pieces.
_EXPORT_TEXT = st.lists(
    st.sampled_from(['"', "\\", "\x7f", "\u2028", "\u2029", "\U0001f600", "\U0010ffff", "é", "abc", " "])
    | st.characters(max_codepoint=0x1F),
    max_size=5,
).map("".join)


@st.composite
def exported_trajectories(draw):
    """Accepted trajectories whose steps share leading lines, as loaded, or hold equal copies, as in version 1."""
    trajectories = []
    for number in range(draw(st.integers(1, 3))):
        trajectory = make_trajectory(COMPLIANT_KINDS)
        lines: tuple[str, ...] = ()
        steps = []
        for step in trajectory.steps:
            shared = draw(st.integers(0, len(lines)))
            head = lines[:shared]
            if draw(st.booleans()):  # equal lines that are other objects
                head = tuple("".join(list(line)) for line in head)
            lines = head + tuple(draw(st.lists(_EXPORT_TEXT, max_size=3)))
            steps.append(replace(step, lines=lines, raw_text=draw(_EXPORT_TEXT)))
        question_id = draw(_EXPORT_TEXT) + str(number)
        trajectories.append(replace(trajectory, question_id=question_id, steps=steps))
    return trajectories


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
        with pytest.raises(InputError, match='^trajectory "[^"]+" was not accepted by the rejection filter$'):
            export_sft([good, bad], tmp_path / "corpus.jsonl")
        assert list(tmp_path.iterdir()) == []  # not even the good run's records

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

    @settings(max_examples=200, deadline=None)
    @given(exported_trajectories())
    def test_export_equals_json_dumps_of_each_record(self, trajectories):
        with tempfile.TemporaryDirectory() as directory:
            out = Path(directory) / "corpus.jsonl"
            assert export_sft(iter(trajectories), out) == sum(len(t.steps) for t in trajectories)
            assert out.read_bytes() == sft_corpus(trajectories)

    def test_export_of_the_fixtures_equals_json_dumps(self, tmp_path):
        trajectories = [Trajectory.load(path) for path in sorted(DATA_DIR.glob("*trajectory*.jsonl"))]
        export_sft(trajectories, tmp_path / "corpus.jsonl")
        assert (tmp_path / "corpus.jsonl").read_bytes() == sft_corpus(trajectories)


    def test_each_trajectory_is_dropped_before_the_next_is_read(self, tmp_path):
        read = []

        def fresh():
            # built here: a local of the generator below would hold it
            trajectory = make_trajectory(COMPLIANT_KINDS)
            read.append(weakref.ref(trajectory))
            return trajectory

        def trajectories():
            for _ in range(3):
                gc.collect()
                assert [ref() for ref in read] == [None] * len(read), "a trajectory read before is still held"
                yield fresh()

        assert export_sft(trajectories(), tmp_path / "corpus.jsonl") == 3 * len(COMPLIANT_KINDS)


def curve_rows(directory, trajectories, min_runs):
    """The context-curve rows ``write_stats`` writes for ``trajectories``."""
    curve_path = directory / "curve.csv"
    assert write_stats(iter(trajectories), curve_path, directory / "cache.csv", min_runs) == len(trajectories)
    with curve_path.open(encoding="utf-8") as handle:
        return list(csv.reader(handle))


class TestContextCurve:
    def test_single_run(self, tmp_path):
        result = run_two_hop()
        header, *rows = curve_rows(tmp_path, [result.trajectory], min_runs=1)
        assert header == ["turn", "mean_tokens", "n", "low_sample"]
        assert [row[0] for row in rows] == [str(turn) for turn in range(1, 8)]
        assert all(row[2:] == ["1", "0"] for row in rows)

    def test_means_and_flags_over_uneven_runs(self, tmp_path):
        t1 = make_trajectory(COMPLIANT_KINDS)  # solving token counts 103..106
        t2 = make_trajectory(COMPLIANT_KINDS[:2] + [K.TASK_ANSWER, K.FINAL_ANSWER])  # 103, 104
        _, *rows = curve_rows(tmp_path, [t1, t2], min_runs=2)
        assert rows == [["1", "103.00", "2", "0"], ["2", "104.00", "2", "0"], ["3", "105.00", "1", "1"], ["4", "106.00", "1", "1"]]

    def test_empty(self, tmp_path):
        assert curve_rows(tmp_path, [], min_runs=3) == [["turn", "mean_tokens", "n", "low_sample"]]
        assert (tmp_path / "cache.csv").read_text(encoding="utf-8").splitlines() == ["question_id,turn,cache_ratio"]

    def test_each_run_is_dropped_before_the_next_is_read(self, tmp_path):
        read = []

        def fresh():
            trajectory = make_trajectory(COMPLIANT_KINDS)
            read.append(weakref.ref(trajectory))
            return trajectory

        def runs():
            for _ in range(3):
                gc.collect()
                assert [ref() for ref in read] == [None] * len(read), "a run read before is still held"
                yield fresh()

        assert write_stats(runs(), tmp_path / "curve.csv", tmp_path / "cache.csv", min_runs=3) == 3


_STATE_LINE = st.sampled_from(["", " ", "\r", "tail\r", "\u2028", "a\u2028b", "Ünïcode 日本語", "Status:"]) | st.text(max_size=6)


@st.composite
def delta_steps(draw):
    """(stage, state) pairs, each state a line prefix of the last plus new lines.

    Keeping every line and adding none repeats a state; adding none after
    dropping some gives a line prefix of the previous state.
    """
    steps = []
    lines: list[str] = []
    for _ in range(draw(st.integers(1, 6))):
        keep = draw(st.integers(0, len(lines)))
        lines = lines[:keep] + draw(st.lists(_STATE_LINE, max_size=4))
        steps.append((draw(st.sampled_from(["planning", "solving"])), "\n".join(lines)))
    return steps


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

    @given(steps=delta_steps(), version=st.sampled_from([1, 2, 3, 4]))
    @example(steps=[("solving", "A\nB\nC"), ("solving", "A\nB")], version=2)
    @example(steps=[("solving", ""), ("solving", "")], version=2)
    @example(steps=[("planning", "P\n"), ("solving", "P\n\n"), ("solving", "P\n\n")], version=2)
    def test_save_load_gives_back_every_state(self, tmp_path_factory, steps, version):
        inputs = [tuple(state.split("\n")) for _, state in steps]
        trajectory = Trajectory(
            question="q?",
            steps=[
                StepRecord(
                    index=i,
                    stage=stage,
                    lines=lines,
                    shared=shared,
                    kind="doc_extraction",
                    payload={},
                    raw_text="",
                    model_text="",
                    token_count=0,
                )
                for i, ((stage, _), lines, shared) in enumerate(zip(steps, inputs, shared_counts(inputs)), start=1)
            ],
            version=version,
        )
        path = tmp_path_factory.getbasetemp() / "round_trip.jsonl"
        trajectory.save(path)
        loaded = Trajectory.load(path)
        assert [step.state for step in loaded.steps] == [state for _, state in steps]
        assert loaded.steps == trajectory.steps
        assert loaded.version == version
        assert loaded.prompts == {"holistic": "", "solving": ""}  # a trajectory built with no prompts
        with open(path, encoding="utf-8") as handle:
            assert json.loads(handle.readline())["version"] == version

    @pytest.mark.parametrize("version", [0, 5])
    def test_unknown_version_rejected(self, tmp_path, version):
        path = tmp_path / "future.jsonl"
        Trajectory(question="q?").save(path)
        header = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**header, "version": version}) + "\n", encoding="utf-8")
        with pytest.raises(InputError, match=f"unsupported trajectory version: {version}$"):
            Trajectory.load(path)
        with pytest.raises(InputError, match=f"unsupported trajectory version: {version}$"):
            Trajectory(question="q?", version=version).save(tmp_path / "unreadable.jsonl")

    @pytest.mark.parametrize("existing", [False, True], ids=["new-file", "existing-file"])
    def test_failed_save_changes_no_file(self, tmp_path, existing):
        # A lone surrogate, from argv bytes or a dataset escape, cannot be encoded.
        trajectory = run_two_hop().trajectory
        path = tmp_path / "run.jsonl"
        if existing:
            trajectory.save(path)
            before = path.read_bytes()
        with pytest.raises(UnicodeEncodeError):
            replace(trajectory, question="x\ud800y").save(path)
        assert [p.name for p in tmp_path.iterdir()] == (["run.jsonl"] if existing else [])
        if existing:
            assert path.read_bytes() == before

    @given(delta_state_sequences)
    @example(["", "\nx"])
    @example(["a\nb", "a\nb\nc", "a", "a\n"])
    def test_saved_delta_follows_the_line_rule(self, states):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "run.jsonl"
            solving_trajectory(states).save(path)
            steps = [json.loads(line) for line in path.read_text(encoding="utf-8").split("\n")[1:-1]]
            assert [(step["state_shared"], step["state"]) for step in steps] == _line_deltas(states)
            assert [step.state for step in Trajectory.load(path).steps] == states

    @given(delta_state_sequences, st.sampled_from([2, 3, 4]))
    @example(["a\nb", "a\nb\nc", "a\nb\nc", "a"], 2)
    def test_inputs_share_the_lines_before_their_first_change(self, states, version):
        # Counted as a run counts them, then saved and loaded: each input's
        # lines before the line holding its first differing character are
        # the previous input's own strings.
        def shared_heads(steps):
            for (previous, before), (current, lines) in zip(steps, steps[1:]):
                head = os.path.commonprefix([previous, current]).count("\n")
                assert all(line is old for line, old in zip(lines[:head], before[:head]))

        counter = LineTokenCounter()
        recorded = []
        for state in states:
            counter(tuple(state.split("\n")))
            assert counter.lines == tuple(state.split("\n"))
            recorded.append(counter.lines)
        shared_heads(list(zip(states, recorded)))
        trajectory = solving_trajectory(states)
        trajectory.steps = [replace(step, lines=lines) for step, lines in zip(trajectory.steps, recorded)]
        trajectory.version = version
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "run.jsonl"
            trajectory.save(path)
            loaded = [step.lines for step in Trajectory.load(path).steps]
        assert loaded == recorded
        shared_heads(list(zip(states, loaded)))

    def test_a_loaded_run_holds_each_unchanged_line_once(self, tmp_path):
        # A register-like input: the same head, one more tool-log line a
        # step, and the newest tool document, whose 北京 makes each whole
        # input string take 2 bytes a character.
        log, steps, previous = [], [], ()
        for index in range(1, 201):
            document = Document(source_id=f"doc:{index}", title=f"Record {index}", text=f"北京 record {index} " * 8)
            log.append(f"Step {index}: search for record {index} -> doc:{index}")
            state = "\n".join(["## Task", "Answer the question.", *log, "## Observation", document.text])
            lines = tuple(state.split("\n"))
            steps.append(
                StepRecord(
                    index=index,
                    stage="solving",
                    lines=lines,
                    shared=shared_counts([previous, lines])[1],
                    kind="tool_call",
                    payload={"task_id": "t1", "tool_name": "search", "arguments": {"query": f"record {index}"}},
                    raw_text="",
                    model_text="",
                    token_count=token_length(state),
                    tool_result=ToolResult(documents=(document,)),
                )
            )
            previous = lines
        path = tmp_path / "long.jsonl"
        Trajectory(question="q?", steps=steps).save(path)
        gc.collect()
        tracemalloc.start()
        try:
            loaded = Trajectory.load(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert loaded.steps == steps
        assert held < sum(sys.getsizeof(step.state) for step in loaded.steps) / 2

    def test_shared_count_beyond_previous_state_rejected(self, tmp_path):
        path = tmp_path / "two_hop.jsonl"
        run_two_hop().trajectory.save(path)
        lines = path.read_text(encoding="utf-8").split("\n")
        step = json.loads(lines[1])
        step["state_shared"] = 1
        lines[1] = json.dumps(step, ensure_ascii=False)
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(InputError, match="step 1 shares 1 lines with a 0-line previous state"):
            Trajectory.load(path)

    @pytest.mark.parametrize("fixture", ["two_hop_trajectory_v1.jsonl", "fold_trajectory_v4.jsonl"])
    @pytest.mark.parametrize(
        "case, message",
        [
            ("no-record", "not a step line; every line after the header is one"),
            ("header-copy", "not a step line; every line after the header is one"),
            ("note", "not a step line; every line after the header is one"),
            ("index-skips", 'field "index" is 5, but this is step 4'),
            ("index-repeats", 'field "index" is 3, but this is step 4'),
        ],
    )
    def test_every_line_after_the_header_is_the_next_step(self, tmp_path, fixture, case, message):
        # each case spoils file line 5, which holds step 4; the load names the file and line
        lines = (DATA_DIR / fixture).read_text(encoding="utf-8").split("\n")
        step = json.loads(lines[4])
        assert step["index"] == 4
        if case == "no-record":
            del step["record"]
            lines[4] = json.dumps(step)
        elif case == "header-copy":
            lines.insert(4, lines[0])
        elif case == "note":
            lines.insert(4, '{"record": "note"}')
        else:
            step["index"] = 5 if case == "index-skips" else 3
            lines[4] = json.dumps(step)
        path = tmp_path / fixture
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(InputError, match=f"^{re.escape(f'{path} line 5: {message}')}$"):
            Trajectory.load(path)

    def test_load_directory(self, tmp_path):
        trajectory = run_two_hop().trajectory
        for name in ("b", "a", "c"):
            replace(trajectory, question_id=name).save(tmp_path / f"{name}.jsonl")
        (tmp_path / "notes.txt").write_text("not a trajectory")
        assert [loaded.question_id for loaded in load_trajectories(tmp_path)] == ["a", "b", "c"]

    def test_load_directory_reads_one_file_at_a_time(self, tmp_path):
        trajectory = run_two_hop().trajectory
        trajectory.save(tmp_path / "a.jsonl")
        (tmp_path / "b.jsonl").write_text('{"record": "other"}\n')
        loaded = load_trajectories(tmp_path)
        assert next(loaded).steps == trajectory.steps
        with pytest.raises(InputError, match="b.jsonl is not a trajectory file"):
            next(loaded)

    def test_non_trajectory_file_rejected(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"record": "other"}\n')
        with pytest.raises(Exception):
            Trajectory.load(path)

    @pytest.mark.parametrize("target", ["missing/out.jsonl", "directory"])
    def test_a_failed_write_names_the_output_and_leaves_no_temporary_file(self, tmp_path, target):
        # A missing directory fails the open and a directory fails the rename;
        # both errors name the output, never the temporary file.
        out = tmp_path / target
        if target == "directory":
            out.mkdir()
        with pytest.raises(OSError) as raised:
            with atomic_write(out) as handle:
                handle.write("written\n")
        assert raised.value.filename == str(out)
        assert str(out) in str(raised.value) and ".tmp" not in str(raised.value)
        assert list(tmp_path.rglob("*.tmp")) == []


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

    def test_step_cache_ratios_tokenize_shared_heads_and_the_divergence(self, monkeypatch):
        trajectory = run_twenty_turn().trajectory
        solving = trajectory.solving_steps()
        states = [step.state for step in solving]
        # Counting starts from the solving prompt's lines, counted once per
        # prompt text: here the run's, and "" for a trajectory without one.
        prompt_counts = {prompt: set(prompt_lines(prompt).counts) for prompt in ("", trajectory.prompts["solving"])}
        counted, compared = [], []
        monkeypatch.setattr(dagsearch.register, "default_tokenizer", _spy(counted))
        monkeypatch.setattr(dagsearch.trajectory, "default_tokenizer", _spy(compared))
        for prev, cur in zip(states, states[1:]):
            counted.clear()
            compared.clear()
            assert step_cache_ratios(solving_trajectory([prev, cur])) == whole_state_ratios([prev, cur])
            # counting tokenizes the distinct lines the two inputs share
            # that it does not know, once each, and nothing after them
            prev_lines, cur_lines = prev.split("\n"), cur.split("\n")
            same = len(os.path.commonprefix([prev_lines, cur_lines]))
            assert counted == [line for line in dict.fromkeys(cur_lines[:same]) if line not in prompt_counts[""]]
            # the compare takes each input's non-empty lines in order from
            # the first line after the shared ones, and stops at the first
            # token that differs
            rest = {"prev": list(filter(None, prev_lines[same:])), "cur": list(filter(None, cur_lines[same:]))}
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
        assert step_cache_ratios(trajectory) == whole_state_ratios(states)
        # Over the run, a line is counted the first time it enters a shared
        # head: when an input shares it with the one before, and that one did
        # not share it with its own predecessor. So a tool document, which the
        # next input no longer shows, is never counted.
        lines = [step.lines for step in solving]
        heads = [0] + [len(os.path.commonprefix(pair)) for pair in zip(lines, lines[1:])]
        entering = [line for cur, low, high in zip(lines[1:], heads, heads[1:]) for line in cur[low:high]]
        known = prompt_counts[trajectory.prompts["solving"]]
        assert counted == [line for line in dict.fromkeys(entering) if line not in known]
        documents = {line for step in solving for line in _latest_tool_output(step.lines) if line.strip()}
        assert documents and not documents & set(counted)
        tokenized = sum(len(default_tokenizer(text)) for text in counted + compared)
        assert tokenized < sum(len(default_tokenizer(state)) for state in states) / 2

    def test_step_cache_ratios_tokenize_each_line_once_when_a_mid_prefix_line_keeps_changing(self, monkeypatch):
        # Revise-shaped inputs: a Status line above a growing tool log
        # changes every other turn, so each head is cut back above the log
        # and the next one grows over it again.
        header = ["You are a search agent.", "Tasks:", "- t1: find the year", ""]
        log = [f"Step {i}: search {i} found fact {i}." for i in range(1, 13)]
        states = [
            "\n".join(header + [f"Status: t1 {'revisited' if turn // 2 % 2 else 'open'}"] + log[:turn])
            for turn in range(1, 13)
        ]
        calls = []
        monkeypatch.setattr(dagsearch.register, "default_tokenizer", _spy(calls))
        assert step_cache_ratios(solving_trajectory(states)) == whole_state_ratios(states)
        assert sorted(set(calls)) == sorted(calls)
        assert len(calls) <= len({line for state in states for line in state.split("\n")})

    def test_step_cache_ratios_across_a_line_boundary(self):
        states = ["foo\nbar x", "foo bar\ny", "foo bar\ny\n\n z", "  foo  bar\t\ny z"]
        assert step_cache_ratios(solving_trajectory(states)) == [2 / 3, 0.75, 1.0]

    def test_step_cache_ratios_empty_later_state_raises(self):
        # an empty first state has no ratio; it shares nothing with the next
        assert step_cache_ratios(solving_trajectory([" \n", "a b"])) == [0.0]
        with pytest.raises(InputError, match='^trajectory "" step 3: current token sequence is empty$'):
            step_cache_ratios(solving_trajectory(["a b", "a\nb", "\n \t\n"]))

    @given(delta_state_sequences)
    def test_line_counter_equals_token_length(self, states):
        counter = LineTokenCounter()
        assert [counter(tuple(state.split("\n"))) for state in states] == [token_length(state) for state in states]

    @given(delta_state_sequences, st.sampled_from([1, 2, 3, 4]))
    def test_step_cache_ratios_equal_whole_state_ratios(self, states, version):
        # In memory, and after a save and load round trip: loaded from
        # version 2 on, an input's leading lines are the previous input's own
        # strings; version 1 holds every input's lines apart.
        trajectory = replace(solving_trajectory(states), version=version)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "run.jsonl"
            trajectory.save(path)
            loaded = Trajectory.load(path)
        try:
            expected = whole_state_ratios(states)
        except InputError:
            for run in (trajectory, loaded):
                with pytest.raises(InputError, match=": current token sequence is empty$"):
                    step_cache_ratios(run)
        else:
            assert step_cache_ratios(trajectory) == step_cache_ratios(loaded) == expected


FIXTURES = {
    1: "two_hop_trajectory_v1.jsonl",
    2: "two_hop_trajectory_v2.jsonl",
    3: "fold_trajectory_v3.jsonl",
    4: "fold_trajectory_v4.jsonl",
}


class TestRecordedLineDelta:
    @pytest.mark.parametrize("version", FIXTURES)
    def test_a_loaded_fixture_records_each_line_delta_and_saves_it_back(self, tmp_path, version):
        trajectory = Trajectory.load(DATA_DIR / FIXTURES[version])
        assert trajectory.version == version
        assert trajectory.steps[0].shared == 0 and any(step.shared for step in trajectory.steps)
        # version 1 stores whole inputs, so its loaded lines are not shared strings
        assert_line_deltas(trajectory, own_strings=version >= 2)
        trajectory.save(tmp_path / "saved.jsonl")
        assert Trajectory.load(tmp_path / "saved.jsonl").steps == trajectory.steps

    @settings(deadline=None)
    @given(st.sampled_from([2, 3, 4]), st.data())
    def test_a_lower_state_shared_changes_no_ratio_or_pair_and_is_saved_back(self, tmp_path_factory, version, data):
        lines = (DATA_DIR / FIXTURES[version]).read_text(encoding="utf-8").splitlines()
        records, previous, lowered = [json.loads(line) for line in lines], [], []
        for record in records[1:]:
            state = previous[: record["state_shared"]] + record["state"].split("\n")
            lower = data.draw(st.integers(0, record["state_shared"]), label=f"step {record['index']}")
            if lower < record["state_shared"]:
                lowered.append(record["index"])
            record["state_shared"], record["state"] = lower, "\n".join(state[lower:])
            previous = state
        text = "".join(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n" for record in records)
        directory = tmp_path_factory.mktemp("lowered")
        (directory / "lowered.jsonl").write_text(text, encoding="utf-8")
        trajectory = Trajectory.load(directory / "lowered.jsonl")
        assert [step.shared for step in trajectory.steps] == [record["state_shared"] for record in records[1:]]
        assert step_cache_ratios(trajectory) == whole_state_ratios([step.state for step in trajectory.solving_steps()])
        export_sft([trajectory], directory / "sft.jsonl")
        assert (directory / "sft.jsonl").read_bytes() == sft_corpus([trajectory])
        trajectory.save(directory / "saved.jsonl")
        assert (directory / "saved.jsonl").read_text(encoding="utf-8") == text
        # a replay records the most lines each input shares, as a run does
        divergence = replay_divergence(trajectory, replay_run(trajectory).trajectory, strict=True)
        assert divergence == (f"step {lowered[0]}: shared diverges from the recording" if lowered else None)

    @pytest.mark.parametrize("version", FIXTURES)
    def test_export_escapes_only_the_lines_a_step_does_not_share(self, tmp_path, monkeypatch, version):
        trajectory = Trajectory.load(DATA_DIR / FIXTURES[version])
        escaped, json_string = [], dagsearch.trajectory._json_string
        monkeypatch.setattr(dagsearch.trajectory, "_json_string", lambda text: escaped.append(text) or json_string(text))
        export_sft([trajectory], tmp_path / "sft.jsonl")
        # the question id, then each step's raw text and the lines after its shared ones
        assert len(escaped) == 1 + sum(1 + len(step.lines) - step.shared for step in trajectory.steps)
        assert (tmp_path / "sft.jsonl").read_bytes() == sft_corpus([trajectory])

    def test_save_cache_ratios_and_export_search_for_no_shared_head(self, tmp_path, monkeypatch):
        trajectory = Trajectory.load(DATA_DIR / FIXTURES[4])
        calls = []
        for module in (dagsearch.register, dagsearch.trajectory):
            monkeypatch.setattr(module, "common_prefix_length", lambda *pair: calls.append(pair))
        trajectory.save(tmp_path / "saved.jsonl")
        assert step_cache_ratios(trajectory)
        assert export_sft([trajectory], tmp_path / "sft.jsonl") == len(trajectory.steps)
        assert calls == []

    def test_cache_ratios_take_no_delta_against_a_step_of_the_other_stage(self):
        # The last input shares two lines with the planning one before it,
        # but none with the solving input the ratio compares it to.
        trajectory = solving_trajectory(["x", "a\nb\nc", "a\nb\nd"])
        trajectory.steps[1] = replace(trajectory.steps[1], stage="planning")
        assert trajectory.steps[2].shared == 2
        assert step_cache_ratios(trajectory) == [0.0]


class TestEvalRecords:
    def test_from_trajectory(self):
        result = run_two_hop()
        record = EvalRecord.from_trajectory(result.trajectory, ["1096"])
        assert record.acc == 1
        assert record.turns == 7
        assert record.outcome == "answered"
        solving = result.trajectory.solving_steps()
        assert len(solving) == record.turns
        ratios = step_cache_ratios(result.trajectory)
        assert len(ratios) == record.turns - 1
        assert record.mean_cache_ratio == sum(ratios) / len(ratios)
        assert 0 < record.mean_cache_ratio <= 1
        assert record.final_context_tokens == solving[-1].token_count

    def test_csv_writers(self, tmp_path):
        result = run_two_hop()
        record = EvalRecord.from_trajectory(result.trajectory, ["1096"])
        report = tmp_path / "report.csv"
        write_eval_report([record], report)
        with report.open(encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["acc"] == "1"
        curve_path = tmp_path / "curve.csv"
        cache_path = tmp_path / "cache.csv"
        assert write_stats(iter([result.trajectory]), curve_path, cache_path, min_runs=1) == 1
        with curve_path.open(encoding="utf-8") as handle:
            assert len(list(csv.DictReader(handle))) == 7
        with cache_path.open(encoding="utf-8") as handle:
            assert len(list(csv.DictReader(handle))) == 6
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cache.csv", "curve.csv", "report.csv"]
