import contextlib
import csv
from collections import Counter
import gc
import hashlib
import io
import json
import os
import shutil
import tempfile
import time
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dagsearch.cli
import dagsearch.register
import dagsearch.tools
from dagsearch.backend import ScriptedBackend
from dagsearch.cli import main
from dagsearch.engine import PromptPack
from dagsearch.register import default_tokenizer
from dagsearch.tools import FixtureSearchTool, load_corpus
from dagsearch.trajectory import Trajectory
from helpers import DATA_DIR, TWENTY_TURN_GOLD, TWO_HOP_GOLD, TWO_HOP_QUESTION, brute_force_search, run_twenty_turn


@pytest.fixture
def workdir(tmp_path):
    """Copy the data fixtures so relative corpus paths resolve locally."""
    for name in (
        "corpus.jsonl",
        "tools.json",
        "two_hop_responses.json",
        "eval_dataset.jsonl",
        "eval_scripted.json",
    ):
        shutil.copy(DATA_DIR / name, tmp_path / name)
    return tmp_path


def test_run_writes_trajectory_and_prints_answer(workdir, capsys):
    out = workdir / "run.jsonl"
    code = main(
        [
            "run",
            "--question",
            TWO_HOP_QUESTION,
            "--backend",
            f"scripted:{workdir / 'two_hop_responses.json'}",
            "--tools",
            str(workdir / "tools.json"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "outcome: answered" in printed
    assert "answer: 1096" in printed
    trajectory = Trajectory.load(out)
    assert trajectory.outcome == "answered"


def test_eval_summary_matches_hand_computed_acc(workdir, capsys):
    report = workdir / "report.csv"
    trajectory_dir = workdir / "trajectories"
    code = main(
        [
            "eval",
            "--dataset",
            str(workdir / "eval_dataset.jsonl"),
            "--backend",
            f"scripted:{workdir / 'eval_scripted.json'}",
            "--tools",
            str(workdir / "tools.json"),
            "--out",
            str(report),
            "--trajectory-dir",
            str(trajectory_dir),
            "--parallel",
            "2",
        ]
    )
    assert code == 0
    assert "mean ACC = 0.6000" in capsys.readouterr().out
    with report.open(encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 5
    assert sum(int(r["acc"]) for r in rows) == 3
    assert len(list(trajectory_dir.glob("*.jsonl"))) == 5


def eval_argv(workdir, report, *options):
    argv = ["eval", "--dataset", str(workdir / "eval_dataset.jsonl"), "--tools", str(workdir / "tools.json")]
    return argv + ["--backend", f"scripted:{workdir / 'eval_scripted.json'}", "--out", str(report), *options]


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_eval_searches_return_the_oracle_ranking(workdir, capsys, parallel):
    # The report reads which documents a search returned, not their order,
    # so the order is checked in the trajectories.
    trajectory_dir = workdir / "trajectories"
    argv = eval_argv(workdir, workdir / "report.csv", "--parallel", parallel, "--trajectory-dir", str(trajectory_dir))
    assert main(argv) == 0
    (tool,) = json.loads((workdir / "tools.json").read_text(encoding="utf-8"))["tools"]
    corpus = load_corpus(workdir / tool["corpus"])
    searches = 0
    for path in sorted(trajectory_dir.glob("*.jsonl")):
        for step in Trajectory.load(path).steps:
            if step.kind == "tool_call":
                expected = brute_force_search(corpus, step.payload["arguments"]["query"], tool["top_k"])
                assert step.tool_result.documents == tuple(expected), (path.name, step.index)
                searches += 1
    assert searches >= 2


def slow_loads(monkeypatch):
    """Every corpus path ``build_registry`` reads; each read sleeps first, so parallel questions overlap it."""
    loads = []

    def spy(path):
        loads.append(path)
        time.sleep(0.1)
        return load_corpus(path)

    monkeypatch.setattr(dagsearch.tools, "load_corpus", spy)
    return loads


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_eval_reads_each_corpus_once_per_call(workdir, capsys, monkeypatch, parallel):
    loads, builds = slow_loads(monkeypatch), []
    build_registry = dagsearch.cli.build_registry
    monkeypatch.setattr(
        dagsearch.cli, "build_registry", lambda *args, **kwargs: builds.append(1) or build_registry(*args, **kwargs)
    )
    reports = []
    for call in range(2):
        report = workdir / f"report{call}.csv"
        assert main(eval_argv(workdir, report, "--parallel", parallel)) == 0
        reports.append(report.read_bytes())
        # Each call reads the corpus afresh, once whatever its threads.
        assert len(loads) == 1 and len(builds) == 5
        del loads[:], builds[:]
    serial = workdir / "serial.csv"
    monkeypatch.undo()
    assert main(eval_argv(workdir, serial)) == 0
    assert reports == [serial.read_bytes()] * 2


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_eval_frees_its_fixture_tools_when_it_returns(workdir, capsys, monkeypatch, parallel):
    tools = []
    post_init = FixtureSearchTool.__post_init__
    monkeypatch.setattr(
        FixtureSearchTool, "__post_init__", lambda self: tools.append(weakref.ref(self)) or post_init(self)
    )
    slow_loads(monkeypatch)
    assert main(eval_argv(workdir, workdir / "report.csv", "--parallel", parallel)) == 0
    assert len(tools) == 1 and tools[0]() is None


def tokenizer_spy(monkeypatch):
    """Every text ``dagsearch.register`` tokenizes, counted; list appends are safe across threads."""
    calls = []

    def spy(text):
        calls.append(text)
        return default_tokenizer(text)

    monkeypatch.setattr(dagsearch.register, "default_tokenizer", spy)
    return calls


def prompt_line_sets(*prompts):
    return [set(prompt.rstrip().split("\n")) for prompt in prompts]


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_eval_tokenizes_each_prompt_line_once_per_call(workdir, capsys, monkeypatch, parallel):
    calls = tokenizer_spy(monkeypatch)
    report = workdir / "report.csv"
    assert main(eval_argv(workdir, report, "--parallel", parallel)) == 0
    assert report.read_bytes() == (DATA_DIR / "eval_report.csv").read_bytes()
    # Each stage prompt's lines are counted once for all five questions: a
    # line is tokenized at most once per prompt that holds it ("" is in both).
    pack = PromptPack.load_default()
    prompts = prompt_line_sets(pack.holistic, pack.solving)
    tokenized = Counter(calls)
    for line in set.union(*prompts):
        assert 1 <= tokenized[line] <= sum(line in lines for lines in prompts), line


def test_stats_tokenizes_each_solving_prompt_line_once(tmp_path, capsys, monkeypatch):
    fixture = DATA_DIR / "two_hop_trajectory_v2.jsonl"
    runs = tmp_path / "runs"
    runs.mkdir()
    for copy in range(4):
        shutil.copy(fixture, runs / f"copy{copy}.jsonl")
    (solving,) = prompt_line_sets(Trajectory.load(fixture).prompts["solving"])
    calls = tokenizer_spy(monkeypatch)
    cache = tmp_path / "cache.csv"
    argv = ["stats", "--trajectories", str(runs), "--curve-out", str(tmp_path / "curve.csv"), "--cache-out", str(cache)]
    assert main(argv) == 0
    tokenized = Counter(calls)
    assert all(tokenized[line] == 1 for line in solving)
    # four copies of one run's ratios
    rows = cache.read_text(encoding="utf-8").splitlines()[1:]
    assert rows and rows == rows[: len(rows) // 4] * 4


def test_eval_reads_the_tool_config_once(workdir, capsys, monkeypatch):
    # The tool config becomes unreadable after the first question: the rest
    # still run, from the config read before any question ran.
    run = dagsearch.cli.run

    def run_then_spoil_the_tool_config(*args, **kwargs):
        result = run(*args, **kwargs)
        (workdir / "tools.json").write_text("not json", encoding="utf-8")
        return result

    monkeypatch.setattr(dagsearch.cli, "run", run_then_spoil_the_tool_config)
    report = workdir / "report.csv"
    assert main(eval_argv(workdir, report)) == 0
    assert report.read_bytes() == (DATA_DIR / "eval_report.csv").read_bytes()


def test_replay_strict_on_fresh_recording(workdir, capsys):
    out = workdir / "run.jsonl"
    main(
        [
            "run",
            "-q",
            TWO_HOP_QUESTION,
            "--backend",
            f"scripted:{workdir / 'two_hop_responses.json'}",
            "--tools",
            str(workdir / "tools.json"),
            "--out",
            str(out),
        ]
    )
    capsys.readouterr()
    code = main(["replay", "--trajectory", str(out), "--strict"])
    assert code == 0
    assert "replay ok" in capsys.readouterr().out


def test_replay_strict_detects_tampering(workdir, capsys):
    out = workdir / "run.jsonl"
    main(
        [
            "run",
            "-q",
            TWO_HOP_QUESTION,
            "--backend",
            f"scripted:{workdir / 'two_hop_responses.json'}",
            "--tools",
            str(workdir / "tools.json"),
            "--out",
            str(out),
        ]
    )
    lines = out.read_text().splitlines()
    record = json.loads(lines[4])
    record["state"] += " TAMPERED"
    lines[4] = json.dumps(record, ensure_ascii=False, sort_keys=True)
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["replay", "--trajectory", str(out), "--strict"])
    assert code == 1
    assert "DIVERGED" in capsys.readouterr().out


def replace_in(field, old, new):
    def corrupt(record):
        assert old in record[field]
        record[field] = record[field].replace(old, new)

    return corrupt


def add_to(field, amount):
    def corrupt(record):
        record[field] += amount

    return corrupt


def set_payload(record):
    record["payload"] = {}


def set_arguments(record):
    record["payload"]["arguments"] = [1]


def edit_document_text(record):
    record["tool_result"]["documents"][0]["text"] += " Edited."


# One field of one step line of the v2 fixture (line = step + 1) -> the DIVERGED line.
DIVERGENCES = {
    "payload": (1, set_payload, "step 1: payload diverges from the recording"),
    "arguments": (3, set_arguments, "step 3: payload diverges from the recording"),
    "final-raw-text": (
        9,
        replace_in("raw_text", "1096", "1097"),
        "step 9: raw_text diverges from the recording, character 29",
    ),
    "token-count": (5, add_to("token_count", 7), "step 5: token_count diverges from the recording"),
    # The tool result replays as recorded; the next state renders the edit.
    "document-text": (3, edit_document_text, "step 4: state diverges from the recording, character 5097"),
    "state": (4, add_to("state", " TAMPERED"), "step 4: state diverges from the recording, character 5408"),
    "model-text-action": (
        5,
        replace_in("model_text", '"answer": "Tim', '"answer": "Sir Tim'),
        "step 5: payload diverges from the recording",
    ),
}


@pytest.mark.parametrize("step, corrupt, divergence", DIVERGENCES.values(), ids=DIVERGENCES.keys())
def test_replay_strict_names_the_step_and_field_that_diverge(tmp_path, capsys, step, corrupt, divergence):
    records = fixture_records("two_hop_trajectory_v2.jsonl")
    corrupt(records[step])
    path = tmp_path / "corrupted.jsonl"
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    assert main(["replay", "--trajectory", str(path), "--strict"]) == 1
    out = capsys.readouterr().out
    assert out == f"DIVERGED {divergence}\n"


def test_replay_without_strict_compares_outcome_and_answer_only(tmp_path, capsys):
    records = fixture_records("two_hop_trajectory_v2.jsonl")
    records[5]["token_count"] += 7
    path = tmp_path / "corrupted.jsonl"
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    assert main(["replay", "--trajectory", str(path)]) == 0
    records[0]["answer"] = "1097"
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    assert main(["replay", "--trajectory", str(path)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "DIVERGED answer: recorded '1097', replayed '1096'"


def test_export_and_stats(workdir, capsys):
    trajectory_dir = workdir / "trajectories"
    main(
        [
            "eval",
            "--dataset",
            str(workdir / "eval_dataset.jsonl"),
            "--backend",
            f"scripted:{workdir / 'eval_scripted.json'}",
            "--tools",
            str(workdir / "tools.json"),
            "--out",
            str(workdir / "report.csv"),
            "--trajectory-dir",
            str(trajectory_dir),
        ]
    )
    capsys.readouterr()
    corpus = workdir / "sft.jsonl"
    code = main(
        [
            "export",
            "--trajectories",
            str(trajectory_dir),
            "--gold",
            str(workdir / "eval_dataset.jsonl"),
            "--out",
            str(corpus),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    # 3 accepted trajectories, 4 steps each
    assert "exported 12 state-action pairs from 3 accepted" in printed
    assert len(corpus.read_text().splitlines()) == 12

    curve = workdir / "curve.csv"
    cache = workdir / "cache.csv"
    code = main(
        [
            "stats",
            "--trajectories",
            str(trajectory_dir),
            "--curve-out",
            str(curve),
            "--cache-out",
            str(cache),
        ]
    )
    assert code == 0
    assert curve.exists() and cache.exists()
    with curve.open(encoding="utf-8") as handle:
        curve_rows = list(csv.DictReader(handle))
    assert curve_rows[0]["n"] == "5"


def test_export_with_no_accepted_trajectories(workdir, capsys):
    trajectory_dir = workdir / "empty_runs"
    trajectory_dir.mkdir()
    corpus = workdir / "sft.jsonl"
    code = main(
        [
            "export",
            "--trajectories",
            str(trajectory_dir),
            "--gold",
            str(workdir / "eval_dataset.jsonl"),
            "--out",
            str(corpus),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "warning: no trajectories passed" in printed
    assert corpus.read_text() == ""


def test_config_file_and_flag_overrides(workdir, capsys):
    config = workdir / "config.json"
    config.write_text(json.dumps({"run": {"max_turns": 5}}))
    code = main(
        [
            "run",
            "-q",
            TWO_HOP_QUESTION,
            "--config",
            str(config),
            "--backend",
            f"scripted:{workdir / 'two_hop_responses.json'}",
            "--tools",
            str(workdir / "tools.json"),
        ]
    )
    assert code == 0
    # 5 turns is not enough for the 7 solving steps
    assert "budget_exhausted" in capsys.readouterr().out


def test_config_file_is_read_once_and_top_k_goes_to_the_tools(workdir, monkeypatch):
    (workdir / "holistic.txt").write_text("HOLISTIC")
    (workdir / "solving.txt").write_text("SOLVING")
    config = workdir / "config.json"
    config.write_text(
        json.dumps({"run": {"max_turns": 9}, "prompts": {"holistic": "holistic.txt", "solving": "solving.txt"}})
    )
    reads = []

    def spy(path):
        reads.append(str(path))
        return load_json(path)

    load_json = dagsearch.cli._load_json
    monkeypatch.setattr(dagsearch.cli, "_load_json", spy)
    out = workdir / "run.jsonl"
    code = main(
        [
            "run",
            "-q",
            TWO_HOP_QUESTION,
            "--config",
            str(config),
            "--top-k",
            "1",
            "--backend",
            f"scripted:{workdir / 'two_hop_responses.json'}",
            "--tools",
            str(workdir / "tools.json"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert reads.count(str(config)) == 1
    trajectory = Trajectory.load(out)
    assert trajectory.prompts == {"holistic": "HOLISTIC", "solving": "SOLVING"}
    assert trajectory.config.max_turns == 9
    assert not hasattr(trajectory.config, "top_k")
    tool_steps = [step for step in trajectory.steps if step.kind == "tool_call"]
    assert tool_steps and all(len(step.tool_result.documents) == 1 for step in tool_steps)


def test_missing_file_is_actionable_error(workdir, capsys):
    code = main(
        [
            "run",
            "-q",
            "q?",
            "--backend",
            "scripted:/nonexistent.json",
            "--tools",
            str(workdir / "tools.json"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_strict_run_exit_code_on_failure(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text(json.dumps({"responses": ["nonsense", "nonsense", "nonsense"]}))
    code = main(
        [
            "run",
            "-q",
            "q?",
            "--backend",
            f"scripted:{bad}",
            "--tools",
            str(workdir / "tools.json"),
            "--strict",
        ]
    )
    assert code == 1


def test_eval_question_without_responses_becomes_an_error_row(workdir, capsys):
    dataset = workdir / "eval_dataset.jsonl"
    lines = dataset.read_text().splitlines()
    missing = {"question_id": "capital-nowhere", "question": "What is the capital of Nowhere?", "answers": ["x"]}
    lines.insert(1, json.dumps(missing))
    dataset.write_text("\n".join(lines) + "\n")
    report = workdir / "report.csv"
    argv = [
        "eval",
        "--dataset",
        str(dataset),
        "--backend",
        f"scripted:{workdir / 'eval_scripted.json'}",
        "--tools",
        str(workdir / "tools.json"),
        "--out",
        str(report),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "evaluated 6 questions: mean ACC = 0.5000\n" in out
    assert "warning: 1 question(s) failed" in out
    with report.open(encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["question_id"] for row in rows][:3] == ["capital-france", "capital-nowhere", "capital-italy"]
    error = rows[1]
    assert (error["outcome"], error["acc"], error["turns"]) == ("error", "0", "0")
    assert all(row["outcome"] != "error" for row in rows if row is not error)
    assert main(argv + ["--strict"]) == 1


def test_stats_and_export_over_the_v1_fixture_are_unchanged(tmp_path, capsys):
    runs = tmp_path / "runs"
    runs.mkdir()
    shutil.copy(DATA_DIR / "two_hop_trajectory_v1.jsonl", runs)
    gold = tmp_path / "gold.jsonl"
    gold.write_text(json.dumps({"question_id": "two-hop-www", "question": TWO_HOP_QUESTION, "answers": TWO_HOP_GOLD}) + "\n")
    outputs = {name: tmp_path / name for name in ("curve.csv", "cache.csv", "sft.jsonl")}
    stats = ["stats", "--trajectories", str(runs), "--min-runs", "1"]
    stats += ["--curve-out", str(outputs["curve.csv"]), "--cache-out", str(outputs["cache.csv"])]
    assert main(stats) == 0
    assert main(["export", "--trajectories", str(runs), "--gold", str(gold), "--out", str(outputs["sft.jsonl"])]) == 0
    assert "exported 9 state-action pairs from 1 accepted" in capsys.readouterr().out
    # the outputs as written before version 2 existed
    assert {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in outputs.items()} == {
        "curve.csv": "de1b40aaf96246b2db6c0a4625cf189e1169eee8ed85bf4e6fc2ef905d06cbfa",
        "cache.csv": "93644c8b9b737037308b20386ff67cf7944ebe0e1eca93dbc2bad52df162cc8f",
        "sft.jsonl": "a9e7da457cee81ef1b2fffae333ff908d7895125d433979194e7627245ace69d",
    }


# Each corrupts the records of a trajectory file in place: the header, then the steps.
def corrupt_header(records):
    records[0]["version"] = 9


def boolean_version(records):
    records[0]["version"] = True


def float_version_1(records):
    records[0]["version"] = 1.0


def float_version_3(records):
    records[0]["version"] = 3.0


def drop_question_id(records):
    del records[0]["question_id"]


def config_not_an_object(records):
    records[0]["config"] = []


def numeric_answer(records):
    records[0]["answer"] = 1096


def non_string_prompt(records):
    records[0]["prompts"]["solving"] = 5


def drop_step_field(records):
    del records[2]["model_text"]


def non_object_step(records):
    records[2] = ["step", 2]


def v1_state_not_a_string(records):
    records[:] = fixture_records("two_hop_trajectory_v1.jsonl")
    records[2]["state"] = 5


def state_not_a_string(records):
    records[2]["state"] = 5


def unknown_kind(records):
    records[3]["kind"] = "bogus"


def unknown_stage(records):
    records[3]["stage"] = "acting"


def boolean_token_count(records):
    records[2]["token_count"] = True


def non_string_diagnostic(records):
    records[2]["diagnostics"] = [5]


def non_object_tool_result(records):
    records[3]["tool_result"] = ["doc"]


def non_object_document(records):
    records[3]["tool_result"]["documents"][0] = 5


def document_with_extra_key(records):
    records[3]["tool_result"]["documents"][0]["url"] = "https://example.org"


def null_document_text(records):
    records[3]["tool_result"]["documents"][0]["text"] = None


def documents_not_a_list(records):
    documents = records[3]["tool_result"]["documents"]
    records[3]["tool_result"]["documents"] = dict(enumerate(map(str, documents)))


def payload_not_an_object(records):
    records[2]["payload"] = ["goal"]


def tool_call_without_tool_name(records):
    del records[3]["payload"]["tool_name"]


def tool_call_without_tool_result(records):
    records[3]["tool_result"] = None


def task_answer_with_tool_result(records):
    records[5]["tool_result"] = {"documents": [], "raw": None}


def lone_surrogate(records):
    records[2]["state"] += "\ud800"


def step_without_record(records):
    del records[4]["record"]


def step_index_out_of_place(records):
    records[4]["index"] = 5


def step_without_state_shared(records):
    del records[2]["state_shared"]


def string_state_shared(records):
    records[2]["state_shared"] = "1"


def boolean_state_shared(records):
    records[2]["state_shared"] = True


def retries_not_the_diagnostics_count(records):
    records[-1]["retries"] = 1


def drop_prompts(records):
    records[0]["prompts"] = {}


def extra_prompt(records):
    records[0]["prompts"]["revisit"] = "Revisit the plan."


def fixture_records(name):
    return [json.loads(text) for text in (DATA_DIR / name).read_text().splitlines()]


@pytest.mark.parametrize(
    "corrupt, line, problem",
    [
        (corrupt_header, 1, "unsupported trajectory version: 9"),
        (boolean_version, 1, "unsupported trajectory version: True"),
        (float_version_1, 1, "unsupported trajectory version: 1.0"),
        (float_version_3, 1, "unsupported trajectory version: 3.0"),
        (drop_question_id, 1, "missing field 'question_id'"),
        (config_not_an_object, 1, 'field "config" is not an object'),
        (numeric_answer, 1, 'field "answer" is not a string or null'),
        (non_string_prompt, 1, 'field "prompts" holds an entry that is not a string'),
        (drop_prompts, 1, 'field "prompts" does not hold exactly "holistic" and "solving"'),
        (extra_prompt, 1, 'field "prompts" does not hold exactly "holistic" and "solving"'),
        (drop_step_field, 3, "missing field 'model_text'"),
        (non_object_step, 3, "not a JSON object"),
        (v1_state_not_a_string, 3, 'field "state" is not a string'),
        (state_not_a_string, 3, 'field "state" is not a string'),
        (unknown_kind, 4, "field \"kind\" is not an action kind: 'bogus'"),
        (unknown_stage, 4, "field \"stage\" is not planning or solving: 'acting'"),
        (boolean_token_count, 3, 'field "token_count" is not an integer'),
        (non_string_diagnostic, 3, 'field "diagnostics" holds an entry that is not a string'),
        (non_object_tool_result, 4, 'field "tool_result" is neither null nor an object with a list of documents'),
        (non_object_document, 4, 'field "tool_result" is neither null nor an object with a list of documents'),
        (document_with_extra_key, 4, 'field "tool_result" is neither null nor an object with a list of documents'),
        (null_document_text, 4, 'field "tool_result" is neither null nor an object with a list of documents'),
        (documents_not_a_list, 4, 'field "tool_result" is neither null nor an object with a list of documents'),
        (payload_not_an_object, 3, 'field "payload" is not an object'),
        (tool_call_without_tool_name, 4, 'field "payload" of a tool_call step has no string "tool_name"'),
        (tool_call_without_tool_result, 4, 'field "tool_result" is null on a tool_call step'),
        (task_answer_with_tool_result, 6, 'field "tool_result" is set on a task_answer step'),
        (lone_surrogate, 3, "holds a lone surrogate (U+D800-U+DFFF), which is not Unicode"),
        (step_without_record, 5, "not a step line; every line after the header is one"),
        (step_index_out_of_place, 5, 'field "index" is 5, but this is step 4'),
        (step_without_state_shared, 3, "missing field 'state_shared'"),
        (string_state_shared, 3, 'field "state_shared" is not an integer'),
        (boolean_state_shared, 3, 'field "state_shared" is not an integer'),
        (retries_not_the_diagnostics_count, 10, 'field "retries" is 1, but field "diagnostics" holds 0 entries'),
    ],
    ids=[
        "version",
        "version-true",
        "version-1.0",
        "version-3.0",
        "header-field",
        "header-config-type",
        "header-answer-type",
        "header-prompt-type",
        "missing-prompts",
        "extra-prompt",
        "step-field",
        "step-not-object",
        "v1-state-type",
        "v2-state-type",
        "kind",
        "stage",
        "token-count-type",
        "diagnostics-type",
        "tool-result-type",
        "document-type",
        "document-extra-key",
        "document-null-text",
        "documents-not-a-list",
        "payload-type",
        "tool-call-without-tool-name",
        "tool-call-without-tool-result",
        "task-answer-with-tool-result",
        "lone-surrogate",
        "step-without-record",
        "step-index",
        "state-shared-missing",
        "state-shared-string",
        "state-shared-true",
        "retries-count",
    ],
)
@pytest.mark.parametrize("command", ["replay", "stats", "export"])
def test_malformed_trajectory_file_exits_2_naming_the_line(tmp_path, capsys, command, corrupt, line, problem):
    records = fixture_records("two_hop_trajectory_v2.jsonl")
    corrupt(records)
    runs = tmp_path / "runs"
    runs.mkdir()
    # a good run, read and written out before the bad one
    shutil.copy(DATA_DIR / "two_hop_trajectory_v2.jsonl", runs / "a.jsonl")
    path = runs / "bad.jsonl"
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    if command == "replay":
        argv = ["replay", "--trajectory", str(path), "--strict"]
    elif command == "stats":
        argv = ["stats", "--trajectories", str(runs), "--curve-out", str(tmp_path / "c.csv")]
        argv += ["--cache-out", str(tmp_path / "r.csv")]
    else:
        gold = tmp_path / "gold.jsonl"
        gold.write_text(json.dumps({"question_id": "two-hop-www", "question": "q", "answers": TWO_HOP_GOLD}))
        argv = ["export", "--trajectories", str(runs), "--gold", str(gold), "--out", str(tmp_path / "sft.jsonl")]
    outputs = write_old_outputs(tmp_path, "c.csv", "r.csv", "sft.jsonl")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path} line {line}: {problem}\n"
    assert_unchanged(tmp_path, outputs)


@pytest.mark.parametrize("target", ["missing", "file"])
@pytest.mark.parametrize("command", ["stats", "export"])
def test_trajectories_that_are_not_a_directory_exit_2_naming_the_path(tmp_path, capsys, command, target):
    runs = tmp_path / "runs"
    if target == "file":
        shutil.copy(DATA_DIR / "two_hop_trajectory_v2.jsonl", runs)
    if command == "stats":
        argv = ["stats", "--trajectories", str(runs), "--curve-out", str(tmp_path / "c.csv")]
        argv += ["--cache-out", str(tmp_path / "r.csv")]
    else:
        gold = tmp_path / "gold.jsonl"
        gold.write_text(json.dumps({"question_id": "two-hop-www", "question": "q", "answers": TWO_HOP_GOLD}))
        argv = ["export", "--trajectories", str(runs), "--gold", str(gold), "--out", str(tmp_path / "sft.jsonl")]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {runs} is not a directory\n")
    assert not any((tmp_path / name).exists() for name in ("c.csv", "r.csv", "sft.jsonl"))


def write_old_outputs(directory, *names):
    """Give each output a previous content; returns it by path."""
    outputs = {directory / name: f"previous {name}\n".encode() for name in names}
    for path, content in outputs.items():
        path.write_bytes(content)
    return outputs


def assert_unchanged(directory, outputs):
    """A failed command changed no output and left no temporary file."""
    assert {path: path.read_bytes() for path in outputs} == outputs
    assert list(directory.rglob("*.tmp")) == []


def test_stats_names_the_run_and_step_of_an_input_with_no_tokens(tmp_path, capsys):
    records = fixture_records("two_hop_trajectory_v1.jsonl")
    solving = [record for record in records if record.get("stage") == "solving"]
    solving[2]["state"] = "  "
    runs = tmp_path / "runs"
    runs.mkdir()
    (runs / "blank.jsonl").write_text("".join(json.dumps(record) + "\n" for record in records))
    outputs = write_old_outputs(tmp_path, "c.csv", "r.csv")
    argv = ["stats", "--trajectories", str(runs), "--curve-out", str(tmp_path / "c.csv")]
    assert main(argv + ["--cache-out", str(tmp_path / "r.csv")]) == 2
    step = solving[2]["index"]
    assert capsys.readouterr().err == f'error: trajectory "two-hop-www" step {step}: current token sequence is empty\n'
    assert_unchanged(tmp_path, outputs)


@pytest.mark.parametrize("fixture", ["two_hop_trajectory_v1.jsonl", "two_hop_trajectory_v2.jsonl"])
@pytest.mark.parametrize("recorded", ["zero", "below_shared"])
def test_stats_names_the_run_and_step_of_a_token_count_below_the_shared_prefix(tmp_path, capsys, fixture, recorded):
    # The ratio divides by the recorded token_count, so one below what the
    # input shares with the previous one, or 0, is an input error.
    records = fixture_records(fixture)
    solving = [record for record in records if record.get("stage") == "solving"]
    states = [step.state for step in Trajectory.load(DATA_DIR / fixture).solving_steps()]
    shared = len(os.path.commonprefix([default_tokenizer(states[2]), default_tokenizer(states[3])]))
    assert shared > 1
    solving[3]["token_count"] = 0 if recorded == "zero" else shared - 1
    runs = tmp_path / "runs"
    runs.mkdir()
    (runs / "low.jsonl").write_text("".join(json.dumps(record) + "\n" for record in records))
    outputs = write_old_outputs(tmp_path, "c.csv", "r.csv")
    argv = ["stats", "--trajectories", str(runs), "--curve-out", str(tmp_path / "c.csv")]
    assert main(argv + ["--cache-out", str(tmp_path / "r.csv")]) == 2
    step, count = solving[3]["index"], solving[3]["token_count"]
    assert capsys.readouterr().err == (
        f'error: trajectory "two-hop-www" step {step}: '
        f"token_count is {count}, but the input holds {shared} tokens or more\n"
    )
    assert_unchanged(tmp_path, outputs)


def test_stats_into_a_missing_directory_names_the_output(tmp_path, capsys):
    runs = tmp_path / "runs"
    runs.mkdir()
    shutil.copy(DATA_DIR / "two_hop_trajectory_v1.jsonl", runs)
    outputs = write_old_outputs(tmp_path, "r.csv")
    curve = tmp_path / "missing" / "c.csv"
    argv = ["stats", "--trajectories", str(runs), "--curve-out", str(curve), "--cache-out", str(tmp_path / "r.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: --curve-out {curve}: {curve.parent} is not a directory\n"
    assert_unchanged(tmp_path, outputs)


@pytest.mark.parametrize("command, flag", [("stats", "--curve-out"), ("stats", "--cache-out"), ("export", "--out")])
def test_an_output_that_is_a_directory_exits_2_before_any_trajectory_is_read(
    tmp_path, capsys, monkeypatch, command, flag
):
    runs = tmp_path / "runs"
    runs.mkdir()
    shutil.copy(DATA_DIR / "two_hop_trajectory_v2.jsonl", runs)
    loads = []
    load = Trajectory.load
    monkeypatch.setattr(Trajectory, "load", lambda path: loads.append(path) or load(path))
    if command == "stats":
        argv = ["stats", "--trajectories", str(runs), "--curve-out", str(tmp_path / "c.csv")]
        argv += ["--cache-out", str(tmp_path / "r.csv")]
    else:
        gold = tmp_path / "gold.jsonl"
        gold.write_text(json.dumps({"question_id": "two-hop-www", "question": "q", "answers": TWO_HOP_GOLD}))
        argv = ["export", "--trajectories", str(runs), "--gold", str(gold), "--out", str(tmp_path / "sft.jsonl")]
    directory = tmp_path / "outdir"
    directory.mkdir()
    argv[argv.index(flag) + 1] = str(directory)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {flag} {directory} is a directory\n")
    assert loads == []
    assert list(directory.iterdir()) == []
    assert list(tmp_path.rglob("*.tmp")) == []
    argv[argv.index(flag) + 1] = str(directory / "written")
    assert main(argv) == 0
    assert loads == [runs / "two_hop_trajectory_v2.jsonl"]  # the spy sees each load


@pytest.mark.parametrize("spelling", ["same", "dotted"])
def test_stats_into_one_file_for_both_outputs_exits_2_before_any_read(
    tmp_path, capsys, monkeypatch, spelling
):
    # Each output is renamed into place, so one file would keep only the last.
    runs = tmp_path / "runs"
    runs.mkdir()
    shutil.copy(DATA_DIR / "two_hop_trajectory_v1.jsonl", runs)
    loads = []
    monkeypatch.setattr(Trajectory, "load", loads.append)
    outputs = write_old_outputs(tmp_path, "both.csv")
    curve = tmp_path / "both.csv"
    cache = tmp_path / "runs" / ".." / "both.csv" if spelling == "dotted" else curve
    assert main(["stats", "--trajectories", str(runs), "--curve-out", str(curve), "--cache-out", str(cache)]) == 2
    assert capsys.readouterr() == ("", f"error: --curve-out {curve} and --cache-out {cache} name the same file\n")
    assert loads == []
    assert_unchanged(tmp_path, outputs)


def test_stats_and_export_hold_one_trajectory_at_a_time(tmp_path, capsys):
    trajectory = run_twenty_turn().trajectory
    gold = tmp_path / "gold.jsonl"
    gold.write_text(json.dumps({"question_id": trajectory.question_id, "question": "q", "answers": TWENTY_TURN_GOLD}))

    def peaks(copies, name):
        runs = tmp_path / name
        runs.mkdir()
        for copy in range(copies):
            trajectory.save(runs / f"{copy:02d}.jsonl")
        stats = ["stats", "--trajectories", str(runs), "--curve-out", str(tmp_path / "c.csv")]
        stats += ["--cache-out", str(tmp_path / "r.csv")]
        export = ["export", "--trajectories", str(runs), "--gold", str(gold), "--out", str(tmp_path / "sft.jsonl")]
        measured = []
        for argv in (stats, export):
            gc.collect()
            tracemalloc.start()
            try:
                assert main(argv) == 0
                measured.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert f"from {copies} accepted" in capsys.readouterr().out
        return measured

    peaks(1, "warm-up")  # the first calls also fill caches that later calls reuse
    one = peaks(1, "one")
    twenty = peaks(20, "twenty")
    assert all(many < 2 * single for single, many in zip(one, twenty)), (one, twenty)


@pytest.mark.parametrize("value", ["9", True, 0], ids=["string", "boolean", "zero"])
def test_replay_of_a_bad_recorded_run_config_exits_2(tmp_path, capsys, value):
    records = fixture_records("two_hop_trajectory_v2.jsonl")
    records[0]["config"]["max_turns"] = value
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    assert main(["replay", "--trajectory", str(path), "--strict"]) == 2
    assert capsys.readouterr().err == f"error: {path} line 1: max_turns must be a positive integer\n"


def test_eval_tool_config_error_exits_2_before_any_report(workdir, capsys):
    # The tool config sets no top_k: the error names the flag, not the file.
    report = workdir / "report.csv"
    argv = ["eval", "--dataset", str(workdir / "eval_dataset.jsonl"), "--top-k", "0"]
    argv += ["--backend", f"scripted:{workdir / 'eval_scripted.json'}"]
    argv += ["--tools", str(workdir / "tools.json"), "--out", str(report)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --top-k must be at least 1, not 0\n"
    assert not report.exists()


@pytest.mark.parametrize("top_k", ["0", "-3"])
def test_run_top_k_below_one_exits_2_before_any_file_is_read(workdir, capsys, top_k):
    # A --config that does not exist would fail its read: the flag is checked first.
    argv = ["run", "-q", "x", "--config", str(workdir / "missing.json"), "--tools", str(workdir / "tools.json")]
    argv += ["--backend", f"scripted:{workdir / 'two_hop_responses.json'}", "--top-k", top_k]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: --top-k must be at least 1, not {top_k}\n"


@pytest.mark.parametrize(
    "bad, problem",
    [
        ({"question_id": "no-answers", "question": "What is the capital of France?"}, "missing field 'answers'"),
        (
            {"question_id": "answers-not-a-list", "question": "What is the capital of France?", "answers": "Paris"},
            'field "answers" is not a list',
        ),
        ({"question_id": "no-question", "answers": ["Paris"]}, "missing field 'question'"),
        (["not", "an", "object"], "not a JSON object"),
    ],
    ids=["no-answers", "answers-not-a-list", "no-question", "not-an-object"],
)
def test_eval_rejects_a_malformed_dataset_record_before_any_question_runs(workdir, capsys, monkeypatch, bad, problem):
    ran = []
    monkeypatch.setattr(dagsearch.cli, "run", lambda *args, **kwargs: ran.append(args))
    dataset = workdir / "eval_dataset.jsonl"
    lines = dataset.read_text().splitlines()
    lines.insert(1, json.dumps(bad))
    dataset.write_text("\n".join(lines) + "\n")
    report = workdir / "report.csv"
    argv = ["eval", "--dataset", str(dataset), "--backend", f"scripted:{workdir / 'eval_scripted.json'}"]
    argv += ["--tools", str(workdir / "tools.json"), "--out", str(report)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {dataset} line 2: {problem}\n"
    assert ran == []
    assert not report.exists()


@pytest.mark.parametrize("parallel", ["0", "-2"])
def test_eval_parallel_below_one_exits_2_before_any_question_runs(workdir, capsys, monkeypatch, parallel):
    ran = []
    monkeypatch.setattr(dagsearch.cli, "run", lambda *args, **kwargs: ran.append(args))
    report = workdir / "report.csv"
    assert main(eval_argv(workdir, report, "--parallel", parallel)) == 2
    assert capsys.readouterr().err == f"error: --parallel must be at least 1, not {parallel}\n"
    assert ran == []
    assert not report.exists()


@pytest.mark.parametrize(
    "spec, problem",
    [
        ("bogus", 'unknown backend spec "bogus" (use "http" or "scripted:<path>")'),
        ("scripted:{workdir}/nonexistent.json", "No such file or directory"),
        ("scripted:{workdir}/corpus.jsonl", "Extra data"),
        ("scripted:{workdir}/list.json", "list.json: not a JSON object"),
    ],
    ids=["unknown-spec", "missing-file", "not-json", "not-an-object"],
)
def test_eval_backend_error_exits_2_before_any_question_runs(workdir, capsys, monkeypatch, spec, problem):
    ran = []
    monkeypatch.setattr(dagsearch.cli, "run", lambda *args, **kwargs: ran.append(args))
    (workdir / "list.json").write_text('["<final_answer>{}</final_answer>"]')
    report = workdir / "report.csv"
    argv = ["eval", "--dataset", str(workdir / "eval_dataset.jsonl"), "--backend", spec.format(workdir=workdir)]
    argv += ["--tools", str(workdir / "tools.json"), "--out", str(report)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and problem in err and err.count("\n") == 1
    assert ran == []
    assert not report.exists()


def test_eval_with_no_chat_endpoint_exits_2_before_any_question_runs(workdir, capsys, monkeypatch):
    monkeypatch.delenv("DAGSEARCH_LLM_ENDPOINT", raising=False)
    report, runs = workdir / "report.csv", workdir / "runs"
    argv = ["eval", "--dataset", str(workdir / "eval_dataset.jsonl"), "--backend", "http"]
    argv += ["--tools", str(workdir / "tools.json"), "--out", str(report), "--trajectory-dir", str(runs)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: no chat endpoint configured (set DAGSEARCH_LLM_ENDPOINT)\n")
    assert not report.exists() and not runs.exists()


@pytest.fixture
def completions(monkeypatch):
    """The text of every completion a scripted backend is asked for, in order: its lines joined on newlines."""
    contexts = []
    complete = ScriptedBackend.complete

    def recording(self, request):
        contexts.append("\n".join(request.lines))
        return complete(self, request)

    monkeypatch.setattr(ScriptedBackend, "complete", recording)
    return contexts


def test_unsaveable_question_spends_no_turn(workdir, capsys, completions):
    argv = ["run", "--question", "In which year \udcff", "--tools", str(workdir / "tools.json")]
    argv += ["--backend", f"scripted:{workdir / 'two_hop_responses.json'}", "--out", str(workdir / "run.jsonl")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: 'utf-8' codec can't encode character")
    assert not (workdir / "run.jsonl").exists()
    assert completions == []

    # The first question keeps its scripted replies, but its text cannot be saved.
    dataset = workdir / "eval_dataset.jsonl"
    lines = dataset.read_text().splitlines()
    first = json.loads(lines[0])
    lines[0] = json.dumps({**first, "question": first["question"] + " \ud800"})
    dataset.write_text("\n".join(lines) + "\n")
    report = workdir / "report.csv"
    argv = ["eval", "--dataset", str(dataset), "--backend", f"scripted:{workdir / 'eval_scripted.json'}"]
    argv += ["--tools", str(workdir / "tools.json"), "--out", str(report)]
    assert main(argv) == 0
    with report.open(encoding="utf-8") as handle:
        rows = {row["question_id"]: row for row in csv.DictReader(handle)}
    assert (rows[first["question_id"]]["outcome"], rows[first["question_id"]]["turns"]) == ("error", "0")
    assert "warning: 1 question(s) failed" in capsys.readouterr().out
    assert completions and not any(first["question"] in context for context in completions)


def test_a_corpus_holding_a_lone_surrogate_spends_no_turn(workdir, capsys, completions):
    corpus = workdir / "corpus.jsonl"
    records = [json.loads(line) for line in corpus.read_text().splitlines()]
    records = [{**record, "text": record["text"] + " \ud800"} for record in records]
    corpus.write_text("".join(json.dumps(record) + "\n" for record in records))
    problem = f"error: {corpus} line 1: holds a lone surrogate (U+D800-U+DFFF), which is not Unicode\n"
    argv = ["run", "--question", TWO_HOP_QUESTION, "--tools", str(workdir / "tools.json")]
    argv += ["--backend", f"scripted:{workdir / 'two_hop_responses.json'}", "--out", str(workdir / "run.jsonl")]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", problem)
    assert not (workdir / "run.jsonl").exists()
    argv = ["eval", "--dataset", str(workdir / "eval_dataset.jsonl"), "--tools", str(workdir / "tools.json")]
    argv += ["--backend", f"scripted:{workdir / 'eval_scripted.json'}", "--out", str(workdir / "report.csv")]
    assert main(argv + ["--trajectory-dir", str(workdir / "runs")]) == 2
    assert capsys.readouterr() == ("", problem)
    assert not (workdir / "report.csv").exists() and not list(workdir.glob("runs/*"))
    assert completions == []


def corpus_with(bad):
    """The fixture corpus with ``bad`` inserted as line 3."""
    records = [json.loads(text) for text in (DATA_DIR / "corpus.jsonl").read_text().splitlines()]
    return records[:2] + [bad] + records[2:]


FIXTURE_TOOL = {"name": "search", "kind": "fixture", "corpus": "corpus.jsonl"}
EVAL_RECORDS = fixture_records("eval_dataset.jsonl")
TITLED = {"source_id": "fix:x", "title": "X", "text": "x"}


def with_question_id(question_id):
    """The records of the eval dataset, the second one's question_id set to ``question_id``."""
    return [EVAL_RECORDS[0], {**EVAL_RECORDS[1], "question_id": question_id}, *EVAL_RECORDS[2:]]


# Question ids that cannot name a file in --trajectory-dir.
UNSAFE_IDS = {
    "leaves-the-directory": "../escaped",
    "in-a-subdirectory": "sub/fr",
    "backslash": "sub\\fr",
    "nul": "fr\0",
    "empty": "",
    "dot": ".",
    "dot-dot": "..",
}


def with_header_config(**settings):
    """The records of the v2 trajectory fixture, its header's run config updated with ``settings``."""
    header, *steps = fixture_records("two_hop_trajectory_v2.jsonl")
    return [{**header, "config": {**header["config"], **settings}}, *steps]


NOT_BOTH_PROMPTS = 'field "prompts" does not hold exactly "holistic" and "solving"'

# Each case: the input file it writes (a JSON value, or a list of records
# for a .jsonl file), the line the error names (0: none), and the problem.
# A trajectory.jsonl case runs replay, stats and export; every other case
# runs run and eval, a dataset.jsonl case eval only.
MALFORMED_INPUTS = {
    "config-not-an-object": ("config.json", [], 0, "not a JSON object"),
    "prompt-path-not-a-string": ("config.json", {"prompts": {"holistic": 5}}, 0, 'field "holistic" is not a string'),
    # a run config's prompts, like a trajectory header's, name exactly both stages
    "prompts-empty": ("config.json", {"prompts": {}}, 0, NOT_BOTH_PROMPTS),
    "prompts-extra-stage": (
        "config.json",
        {"prompts": {"holistic": "holistic.txt", "solving": "solving.txt", "revisit": "revisit.txt"}},
        0,
        NOT_BOTH_PROMPTS,
    ),
    "unknown-run-setting": ("config.json", {"run": {"max_turn": 5}}, 0, 'unknown run setting "max_turn"'),
    "config-without-run-object": (
        "config.json",
        {"max_turns": 5},
        0,
        'unknown key "max_turns": a run config holds only "run" and "prompts"',
    ),
    "tool-entry-not-an-object": ("tools.json", {"tools": [5]}, 0, "a tool entry is not a JSON object"),
    "tools-not-a-list": ("tools.json", {"tools": 5}, 0, 'field "tools" is not a list'),
    "bare-tool-list": ("tools.json", [FIXTURE_TOOL], 0, "not a JSON object"),
    "tool-registered-twice": (
        "tools.json",
        {"tools": [FIXTURE_TOOL, FIXTURE_TOOL]},
        0,
        'tool "search" is already registered',
    ),
    "tool-without-name": (
        "tools.json",
        {"tools": [{"kind": "fixture", "corpus": "corpus.jsonl"}]},
        0,
        "missing field 'name'",
    ),
    "web-search-without-endpoint": (
        "tools.json",
        {"tools": [{"name": "web", "kind": "web_search"}]},
        0,
        "missing field 'endpoint'",
    ),
    "corpus-record-without-title": (
        "corpus.jsonl",
        corpus_with({"source_id": "fix:x", "text": "x"}),
        3,
        "missing field 'title'",
    ),
    "corpus-record-not-an-object": ("corpus.jsonl", corpus_with([1, 2]), 3, "not a JSON object"),
    "corpus-lone-surrogate": (
        "corpus.jsonl",
        corpus_with({**TITLED, "text": "x \ud800"}),
        3,
        "holds a lone surrogate (U+D800-U+DFFF), which is not Unicode",
    ),
    "fixture-tool-unknown-key": (
        "tools.json",
        {"tools": [{**FIXTURE_TOOL, "snipet_field": "body"}]},
        0,
        'tool "search" has an unknown key "snipet_field"',
    ),
    "web-search-method": (
        "tools.json",
        {"tools": [{"name": "w", "kind": "web_search", "endpoint": "http://127.0.0.1:9/", "method": "GETT"}]},
        0,
        'tool "w" has method "GETT", which is neither GET nor POST',
    ),
    "web-search-unknown-key": (
        "tools.json",
        {"tools": [{"name": "w", "kind": "web_search", "endpoint": "http://127.0.0.1:9/", "snipet_field": "body"}]},
        0,
        'tool "w" has an unknown key "snipet_field"',
    ),
    "corpus-source-id-not-a-string": (
        "corpus.jsonl",
        corpus_with({**TITLED, "source_id": 7}),
        3,
        'field "source_id" is not a string',
    ),
    "reply-not-a-string": (
        "replies.json",
        {"responses": [5]},
        0,
        'field "responses" holds an entry that is not a string',
    ),
    "replies-not-a-list": ("replies.json", {"responses": "abc"}, 0, 'field "responses" is not a list'),
    "by-question-not-an-object": ("replies.json", {"by_question": []}, 0, 'field "by_question" is not an object'),
    "dataset-line-not-json": ("dataset.jsonl", ["nope"], 1, "not JSON: Expecting value: line 1 column 1 (char 0)"),
    "top-k-not-digits": (
        "tools.json",
        {"tools": [{**FIXTURE_TOOL, "top_k": "abc"}]},
        0,
        "tool \"search\" has a top_k that is not an integer: 'abc'",
    ),
    "top-k-below-one": (
        "tools.json",
        {"tools": [{**FIXTURE_TOOL, "top_k": 0}]},
        0,
        'tool "search" needs a top_k of at least 1, not 0',
    ),
    "question-id-repeats": (
        "dataset.jsonl",
        EVAL_RECORDS + EVAL_RECORDS[:1],
        6,
        'question_id "capital-france" repeats line 1',
    ),
    "strict-setting-not-a-boolean": (
        "config.json",
        {"run": {"strict_protocol": "no"}},
        0,
        "strict_protocol must be true or false",
    ),
    "temperature-not-a-number": ("config.json", {"run": {"temperature": "hot"}}, 0, "temperature must be a finite number"),
    "max-turns-zero": ("config.json", {"run": {"max_turns": 0}}, 0, "max_turns must be a positive integer"),
    "header-unknown-run-setting": ("trajectory.jsonl", with_header_config(foo=1), 1, 'unknown run setting "foo"'),
    # only a version 1 header may carry the top_k that tools now own
    "header-top-k-after-version-1": ("trajectory.jsonl", with_header_config(top_k=3), 1, 'unknown run setting "top_k"'),
    "header-strict-setting-not-a-boolean": (
        "trajectory.jsonl",
        with_header_config(strict_protocol="no"),
        1,
        "strict_protocol must be true or false",
    ),
    "header-temperature-not-a-number": (
        "trajectory.jsonl",
        with_header_config(temperature="hot"),
        1,
        "temperature must be a finite number",
    ),
    **{
        f"question-id-{case}": (
            "dataset.jsonl",
            with_question_id(question_id),
            2,
            f"question_id {question_id!r} cannot name a file: it is '', '.' or '..', or holds '/', '\\' or NUL",
        )
        for case, question_id in UNSAFE_IDS.items()
    },
    "question-id-repeats-up-to-case": (
        "dataset.jsonl",
        EVAL_RECORDS + [{**EVAL_RECORDS[0], "question_id": "Capital-France"}],
        6,
        'question_id "Capital-France" repeats line 1 ("capital-france") up to case',
    ),
    "defaulted-question-id-repeats": (
        "dataset.jsonl",
        [EVAL_RECORDS[0], {"question": "What is 2 + 2?", "answers": ["4"]}]
        + [{**EVAL_RECORDS[1], "question_id": "q0002"}],
        3,
        'question_id "q0002" repeats line 2',
    ),
}


def write_inputs(directory, command):
    """The valid inputs of ``command`` under the names MALFORMED_INPUTS uses; returns its argv."""
    (directory / "runs").mkdir()
    if command in ("replay", "stats", "export"):
        shutil.copy(DATA_DIR / "two_hop_trajectory_v2.jsonl", directory / "trajectory.jsonl")
    if command == "replay":
        return ["replay", "--strict", "--trajectory", str(directory / "trajectory.jsonl")]
    if command == "stats":
        outputs = ["--curve-out", str(directory / "runs" / "curve.csv")]
        outputs += ["--cache-out", str(directory / "runs" / "cache.csv")]
        return ["stats", "--trajectories", str(directory)] + outputs
    if command == "export":
        (directory / "gold").mkdir()  # not beside the trajectory, which is every .jsonl file there
        gold = directory / "gold" / "gold.jsonl"
        gold.write_text(json.dumps({"question_id": "two-hop-www", "question": "?", "answers": ["1096"]}) + "\n")
        argv = ["export", "--trajectories", str(directory), "--gold", str(gold)]
        return argv + ["--out", str(directory / "runs" / "sft.jsonl")]
    shutil.copy(DATA_DIR / "corpus.jsonl", directory)
    shutil.copy(DATA_DIR / "tools.json", directory)
    shutil.copy(DATA_DIR / "eval_dataset.jsonl", directory / "dataset.jsonl")
    replies = "eval_scripted.json" if command == "eval" else "two_hop_responses.json"
    shutil.copy(DATA_DIR / replies, directory / "replies.json")
    (directory / "config.json").write_text(json.dumps({"run": {"max_turns": 40}}))
    argv = [command, "--config", str(directory / "config.json"), "--tools", str(directory / "tools.json")]
    argv += ["--backend", f"scripted:{directory / 'replies.json'}"]
    if command == "eval":
        argv += ["--dataset", str(directory / "dataset.jsonl"), "--out", str(directory / "report.csv")]
        return argv + ["--trajectory-dir", str(directory / "runs")]
    return argv + ["--question", TWO_HOP_QUESTION, "--out", str(directory / "runs" / "run.jsonl")]


def write_input(path, content):
    """Write ``content`` as JSON, or for a .jsonl file as one line per record (a string is a raw line)."""
    if path.suffix == ".jsonl":
        path.write_text("".join((r if isinstance(r, str) else json.dumps(r)) + "\n" for r in content))
    else:
        path.write_text(json.dumps(content))


@pytest.mark.parametrize(
    "command, name, content, line, problem",
    [
        pytest.param(command, *case, id=f"{command}-{case_id}")
        for case_id, case in MALFORMED_INPUTS.items()
        for command in ("run", "eval", "replay", "stats", "export")
        if (command in ("replay", "stats", "export")) == (case[0] == "trajectory.jsonl")
        and (command == "eval" or case[0] != "dataset.jsonl")
    ],
)
def test_malformed_input_exits_2_naming_the_file(tmp_path, capsys, command, name, content, line, problem):
    argv = write_inputs(tmp_path, command)
    write_input(tmp_path / name, content)
    assert main(argv) == 2
    where = f"{tmp_path / name} line {line}" if line else f"{tmp_path / name}"
    assert capsys.readouterr().err == f"error: {where}: {problem}\n"
    assert not (tmp_path / "report.csv").exists()
    assert not list(tmp_path.glob("runs/*"))


@pytest.mark.parametrize("command", ["run", "eval"])
def test_a_run_config_top_k_exits_2_before_any_completion(tmp_path, capsys, completions, command):
    # top_k is a tool setting: in a run config it is as unknown as any misspelling
    argv = write_inputs(tmp_path, command)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"run": {"top_k": 1}}))
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f'error: {config}: unknown run setting "top_k"\n')
    assert completions == []
    assert not (tmp_path / "report.csv").exists()
    assert not list(tmp_path.glob("runs/*"))


@pytest.mark.parametrize("command", ["run", "eval"])
@pytest.mark.parametrize(
    "out, problem",
    [
        ("runs", "{out} is a directory"),
        ("missing/out.csv", "{out}: {parent} is not a directory"),
        ("dataset.jsonl/out.csv", "{out}: {parent} is not a directory"),
    ],
    ids=["directory", "missing-parent", "file-parent"],
)
def test_an_out_that_cannot_be_written_exits_2_before_any_completion(
    tmp_path, capsys, completions, command, out, problem
):
    argv = write_inputs(tmp_path, command)
    out = tmp_path / out
    argv[argv.index("--out") + 1] = str(out)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: --out {problem.format(out=out, parent=out.parent)}\n")
    assert completions == []
    assert not list(tmp_path.glob("runs/*"))


@pytest.mark.parametrize(
    "name, line",
    [("config.json", 0), ("tools.json", 0), ("replies.json", 0), ("corpus.jsonl", 3), ("dataset.jsonl", 3)]
    + [("trajectory.jsonl", 3)],
)
def test_input_that_is_not_utf8_exits_2_naming_the_line(tmp_path, capsys, name, line):
    argv = write_inputs(tmp_path, "eval")
    if name == "trajectory.jsonl":
        shutil.copy(DATA_DIR / "two_hop_trajectory_v2.jsonl", tmp_path / name)
        argv = ["replay", "--strict", "--trajectory", str(tmp_path / name)]
    path = tmp_path / name
    lines = path.read_bytes().splitlines(keepends=True)
    head, rest = b"".join(lines[: max(line - 1, 0)]), b"".join(lines[max(line - 1, 0) :])
    position = rest.index(b'"') + 1  # inside the first string of the line, or of the file
    path.write_bytes(head + rest[:position] + b"\xff" + rest[position:])
    assert main(argv) == 2
    where = f"{path} line {line}" if line else f"{path}"
    problem = f"not UTF-8: 'utf-8' codec can't decode byte 0xff in position {position}: invalid start byte"
    assert capsys.readouterr().err == f"error: {where}: {problem}\n"
    assert not (tmp_path / "report.csv").exists()
    assert not list(tmp_path.glob("runs/*"))


# One value of each JSON type, for swapping a field's type.
JSON_VALUES = [None, True, 7, 1.5, "text", [1], {"key": "value"}]


def members(value, path=()):
    """The path of every object member inside a JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield path + (key,)
            yield from members(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from members(item, path + (index,))


@st.composite
def corruptions(draw, document):
    """``document`` with one member dropped or of another JSON type, or wrapped in a list."""
    paths = list(members(document))
    operation = draw(st.sampled_from(["drop", "swap", "wrap"] if paths else ["wrap"]))
    if operation == "wrap":
        return [document]
    *parents, key = draw(st.sampled_from(paths))
    corrupted = json.loads(json.dumps(document))
    parent = corrupted
    for step in parents:
        parent = parent[step]
    if operation == "drop":
        del parent[key]
    else:
        parent[key] = draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not type(parent[key])]))
    return corrupted


def fixture_inputs():
    """Each input file of ``eval`` and ``replay`` by name, as JSON values (a list of records for .jsonl)."""
    inputs = {
        "config.json": {"run": {"max_turns": 40}, "prompts": {"holistic": "holistic.txt", "solving": "solving.txt"}},
        "tools.json": json.loads((DATA_DIR / "tools.json").read_text()),
        "replies.json": json.loads((DATA_DIR / "eval_scripted.json").read_text()),
        "responses.json": json.loads((DATA_DIR / "two_hop_responses.json").read_text()),
    }
    for name, source in [("corpus.jsonl", "corpus.jsonl"), ("dataset.jsonl", "eval_dataset.jsonl")]:
        inputs[name] = fixture_records(source)
    inputs["trajectory.jsonl"] = fixture_records("two_hop_trajectory_v2.jsonl")
    return inputs


FIXTURE_INPUTS = fixture_inputs()


@st.composite
def corrupted_inputs(draw):
    """The fixture inputs with one field of one file corrupted (one record, in a .jsonl file)."""
    name = draw(st.sampled_from(sorted(FIXTURE_INPUTS)))
    inputs = dict(FIXTURE_INPUTS)
    if name.endswith(".jsonl"):
        records = list(inputs[name])
        line = draw(st.integers(0, len(records) - 1))
        records[line] = draw(corruptions(records[line]))
        inputs[name] = records
    else:
        inputs[name] = draw(corruptions(inputs[name]))
    return name, inputs


@settings(max_examples=150, deadline=None)
@given(corrupted_inputs())
def test_a_corrupted_input_file_never_raises(corrupted):
    name, inputs = corrupted
    with tempfile.TemporaryDirectory() as directory:
        directory = Path(directory)
        for file_name, content in inputs.items():
            write_input(directory / file_name, content)
        (directory / "holistic.txt").write_text("HOLISTIC")
        (directory / "solving.txt").write_text("SOLVING")
        (directory / "runs").mkdir()
        if name == "trajectory.jsonl":
            argv = ["replay", "--strict", "--trajectory", str(directory / name)]
        else:
            backend = "responses.json" if name == "responses.json" else "replies.json"
            argv = ["eval", "--config", str(directory / "config.json"), "--tools", str(directory / "tools.json")]
            argv += ["--backend", f"scripted:{directory / backend}", "--dataset", str(directory / "dataset.jsonl")]
            argv += ["--out", str(directory / "report.csv"), "--trajectory-dir", str(directory / "runs")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)
