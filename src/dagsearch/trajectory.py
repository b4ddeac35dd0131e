"""Trajectory records, the rejection filter, QA metrics, and corpus export.

A trajectory is the ordered list of (model input, action) pairs for one run,
with enough metadata (retries, raw outputs, tool results, prompts) to filter
it for fine-tuning, replay it, and measure context growth and prefix reuse.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import chain, count
from json.encoder import encode_basestring
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Mapping, Sequence

from .protocol import PLANNING_KINDS, ActionKind
from .register import _TOKEN_RE, LineTokenCounter, common_prefix_length, default_tokenizer, prompt_lines
from .tools import DOCUMENT_FIELDS, Document, InputError, ToolResult, check_fields, check_strings, located, read_json

TRAJECTORY_VERSION = 4
_READABLE_VERSIONS = (1, 2, 3, 4)
# The run-level fields of a trajectory file's header line, besides its
# version, with the JSON types each may have.
_HEADER_FIELDS = {
    "question": (str,),
    "question_id": (str,),
    "outcome": (str,),
    "answer": (str, type(None)),
    "error": (str, type(None)),
    "started_at": (float, int),
    "finished_at": (float, int),
    "prompts": (dict,),
    "config": (dict,),
}
# Every field of a step, with the JSON types of its step line's value. A
# record holds ``state`` as its ``lines``, ``diagnostics`` as a tuple and
# ``tool_result`` as a ToolResult; its ``retries`` is its diagnostics count.
_STEP_FIELDS = {
    "index": (int,),
    "stage": (str,),
    "state": (str,),
    "kind": (str,),
    "payload": (dict,),
    "raw_text": (str,),
    "model_text": (str,),
    "token_count": (int,),
    "retries": (int,),
    "diagnostics": (list,),
    "tool_result": (dict, type(None)),
}
_BAD_TOOL_RESULT = 'field "tool_result" is neither null nor an object with a list of documents'
_STAGES = ("planning", "solving")
_NO_PROMPTS = {"holistic": "", "solving": ""}  # a header's "prompts" holds exactly these keys
_KINDS = frozenset(kind.value for kind in ActionKind)


@dataclass(frozen=True)
class RunConfig:
    """A run's settings, recorded in its trajectory's header; frozen, since the trajectory holds the run's own."""

    max_turns: int = 40
    max_context_tokens: int = 32_000
    max_malformed_retries: int = 2
    temperature: float = 0.0
    max_output_tokens: int = 1024
    strict_protocol: bool = False

    def __post_init__(self) -> None:
        """Raise an InputError naming the first setting of the wrong type or range.

        ``type()``, not isinstance: JSON true and false are not numbers.
        """
        for name in ("max_turns", "max_context_tokens", "max_output_tokens"):
            if type(getattr(self, name)) is not int or getattr(self, name) <= 0:
                raise InputError(f"{name} must be a positive integer")
        if type(self.max_malformed_retries) is not int or self.max_malformed_retries < 0:
            raise InputError("max_malformed_retries must be a non-negative integer")
        if type(self.temperature) not in (int, float) or not math.isfinite(self.temperature):
            raise InputError("temperature must be a finite number")
        if type(self.strict_protocol) is not bool:
            raise InputError("strict_protocol must be true or false")

    @classmethod
    def from_dict(cls, values: Mapping[str, Any]) -> "RunConfig":
        """A config from ``values``; a key that is not a field is an InputError naming it."""
        unknown = sorted(values.keys() - cls.__dataclass_fields__.keys())
        if unknown:
            raise InputError(f'unknown run setting "{unknown[0]}"')
        return cls(**values)


@dataclass(frozen=True)
class StepRecord:
    """One state-action pair plus audit metadata.

    ``lines`` is the model input split on ``"\\n"``. The leading lines it
    shares with the previous step's input are that step's own string
    objects, so a trajectory holds each unchanged line once. ``state``
    joins the lines on every read. Each diagnostic is one rejected reply.
    ``shared`` counts leading lines equal to the previous record's, one
    short of all of them at most: a version 2+ step line's ``state_shared``.
    A run records the most there are, a load the file's; save, the cache
    ratios and export take it as given.
    """

    index: int
    stage: str  # "planning" | "solving"
    lines: tuple[str, ...]
    shared: int
    kind: str
    payload: dict
    raw_text: str
    model_text: str
    token_count: int
    diagnostics: tuple[str, ...] = ()
    tool_result: ToolResult | None = None

    @property
    def state(self) -> str:
        return "\n".join(self.lines)

    @property
    def retries(self) -> int:
        return len(self.diagnostics)

    def to_dict(self, shared: int = 0) -> dict:
        """The step line's fields, its ``state`` holding the input's lines from line ``shared`` on."""
        fields = {name: getattr(self, name) for name in _STEP_FIELDS if name != "state"}
        fields["state"] = "\n".join(self.lines[shared:])
        fields["diagnostics"] = list(self.diagnostics)
        fields["tool_result"] = self.tool_result.to_dict() if self.tool_result else None
        return fields


@dataclass
class Trajectory:
    question: str
    question_id: str = ""
    steps: list[StepRecord] = field(default_factory=list)
    outcome: str = "incomplete"
    answer: str | None = None
    error: str | None = None
    started_at: float = 0.0
    finished_at: float = 0.0
    prompts: dict = field(default_factory=_NO_PROMPTS.copy)
    config: RunConfig = field(default_factory=RunConfig)
    version: int = TRAJECTORY_VERSION

    def solving_steps(self) -> list[StepRecord]:
        return [step for step in self.steps if step.stage == "solving"]

    # -- persistence (versioned JSONL: one header line, one line per step) --
    #
    # Version 1 stores each step's whole state. Versions 2 and 3 store it as
    # a line delta against the previous step's state: ``state_shared``
    # leading lines in common, and ``state`` holding the rest. The shared
    # count stops one line short of the whole state, so the rest always
    # holds at least one line and splitting it gives back exactly the lines
    # stored. Versions 3 and 4 differ from 2 only in the solving input's
    # layout: each folds answered tasks' tool-log entries out by its own rule.
    # A loaded step's shared lines are the previous step's own strings.

    def save(self, path: str | Path) -> None:
        """Write this trajectory in its own ``version``'s encoding, atomically (see ``atomic_write``)."""
        _check_version(self.version)
        header = {"record": "trajectory", "version": self.version}
        header.update((name, getattr(self, name)) for name in _HEADER_FIELDS)
        header["config"] = asdict(self.config)
        with atomic_write(path) as handle:
            handle.write(json.dumps(header, ensure_ascii=False, sort_keys=True) + "\n")
            for step in self.steps:
                line = {"record": "step"}
                shared = 0
                if self.version >= 2:
                    shared = line["state_shared"] = step.shared
                line.update(step.to_dict(shared))
                handle.write(json.dumps(line, ensure_ascii=False, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Trajectory":
        """Read a trajectory file; a structurally bad line, or a bad run setting, is an InputError naming it.

        So is a string holding a lone surrogate, which no UTF-8 output could
        hold, and a line after the header that is not a step line whose
        ``index`` is its position.
        """
        records = read_json(path, surrogates=False)
        number, header = next(records, (0, {}))
        place = located(path, number)
        if header.get("record") != "trajectory":
            if header.get("record") == "step":  # its own fault is named first, as on any other line
                with place:
                    _read_step(header, header.get("index"), (), 1)
            raise InputError(f"{path} is not a trajectory file")
        with place:
            _check_header(header)
            fields = {name: header[name] for name in _HEADER_FIELDS}
            if header["version"] == 1:  # version 1 recorded a top_k, which tools now own
                fields["config"] = {k: v for k, v in fields["config"].items() if k != "top_k"}
            fields["config"] = RunConfig.from_dict(fields["config"])
            trajectory = cls(version=header["version"], **fields)
            previous: tuple[str, ...] = ()
            for place.line, line in records:
                trajectory.steps.append(_read_step(line, len(trajectory.steps) + 1, previous, trajectory.version))
                previous = trajectory.steps[-1].lines
        return trajectory


def _check_header(line: dict) -> None:
    _check_version(line.get("version"))
    check_fields(line, _HEADER_FIELDS)
    check_strings(line, "prompts")
    check_prompts(line["prompts"])


def check_prompts(prompts: dict) -> None:
    """Raise an InputError unless ``prompts``, a header's or a run config's, holds exactly both stages."""
    if prompts.keys() != _NO_PROMPTS.keys():
        raise InputError('field "prompts" does not hold exactly "holistic" and "solving"')


def _read_step(line: dict, position: int, previous: tuple[str, ...], version: int) -> StepRecord:
    """The record of step line ``position``; an InputError names the line's first fault.

    Each field is checked once, as it is read. From version 2 on, the
    input's leading ``state_shared`` lines are ``previous``'s own. A header
    line is checked as a header before it is named out of place.
    """
    if line.get("record") != "step":
        if line.get("record") == "trajectory":
            _check_header(line)
        raise InputError("not a step line; every line after the header is one")
    tool_result = line.get("tool_result")
    if tool_result is not None:
        tool_result = _read_tool_result(tool_result)
    check_fields(line, _STEP_FIELDS)
    check_strings(line, "diagnostics")
    index, kind, retries, diagnostics = line["index"], line["kind"], line["retries"], tuple(line["diagnostics"])
    if retries != len(diagnostics):
        raise InputError(f'field "retries" is {retries}, but field "diagnostics" holds {len(diagnostics)} entries')
    if line["stage"] not in _STAGES:
        raise InputError(f'field "stage" is not planning or solving: {line["stage"]!r}')
    if kind not in _KINDS:
        raise InputError(f'field "kind" is not an action kind: {kind!r}')
    is_tool_call = kind == ActionKind.TOOL_CALL
    if (tool_result is None) == is_tool_call:
        raise InputError(f'field "tool_result" is {"null" if is_tool_call else "set"} on a {kind} step')
    if is_tool_call and type(line["payload"].get("tool_name")) is not str:
        raise InputError('field "payload" of a tool_call step has no string "tool_name"')
    if index != position:
        raise InputError(f'field "index" is {index}, but this is step {position}')
    shared = 0
    if version >= 2:
        check_fields(line, {"state_shared": (int,)})
        shared = line["state_shared"]
        if not 0 <= shared <= len(previous):
            raise InputError(f"step {index} shares {shared} lines with a {len(previous)}-line previous state")
    lines = previous[:shared] + tuple(line["state"].split("\n"))
    if version == 1:  # which stores whole inputs
        shared = min(common_prefix_length(previous, lines), len(lines) - 1)
    return StepRecord(
        index, line["stage"], lines, shared, kind, line["payload"], line["raw_text"], line["model_text"],
        line["token_count"], diagnostics, tool_result,
    )


def _read_tool_result(value: object) -> ToolResult:
    """A step line's ``tool_result`` that is not null; each document is built as it is checked."""
    documents = value.get("documents") if type(value) is dict else None
    if type(documents) is not list:
        raise InputError(_BAD_TOOL_RESULT)
    built = []
    for doc in documents:
        if type(doc) is not dict or doc.keys() != DOCUMENT_FIELDS.keys():
            raise InputError(_BAD_TOOL_RESULT)
        source_id, title, text = doc["source_id"], doc["title"], doc["text"]
        if type(source_id) is not str or type(title) is not str or type(text) is not str:
            raise InputError(_BAD_TOOL_RESULT)
        built.append(Document(source_id, title, text))
    return ToolResult(tuple(built))


def _check_version(version: object) -> None:
    # type(): JSON true and 1.0 compare equal to 1, but are not versions.
    if type(version) is not int or version not in _READABLE_VERSIONS:
        raise InputError(f"unsupported trajectory version: {version}")


def load_trajectories(directory: str | Path) -> Iterator[Trajectory]:
    """The trajectories of a directory's ``*.jsonl`` files, read one at a time in path order.

    A ``directory`` that is not one is an InputError, raised by this call, before any file is read.
    """
    if not Path(directory).is_dir():
        raise InputError(f"{directory} is not a directory")
    return (Trajectory.load(path) for path in sorted(Path(directory).glob("*.jsonl")))


# Each write's own temporary name: two writes of one path that overlap in one process never share a file.
_TEMPORARY_NAMES = count()


@contextmanager
def atomic_write(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """A new file to write ``path``'s content to; it replaces ``path`` only if the block succeeds.

    The file is written under a temporary name of its own, which
    ``load_trajectories`` never reads, then renamed onto ``path``, so a
    failed write changes no file and leaves no temporary one. Text is UTF-8,
    with newlines written as given.
    """
    temporary = Path(f"{path}.{os.getpid()}.{next(_TEMPORARY_NAMES)}.tmp")
    try:
        handle = open(temporary, "wb") if binary else open(temporary, "w", encoding="utf-8", newline="")
    except OSError as exc:  # name the output, not the temporary file, here and at the rename
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with handle:
            yield handle
        try:
            os.replace(temporary, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# Rule-based accuracy
# ---------------------------------------------------------------------------

_ARTICLES = {"a", "an", "the"}
_PUNCT_RE = re.compile(r"[^\w\s]", re.UNICODE)


def normalize_answer(text: str) -> str:
    """Lowercase, strip punctuation and articles, collapse whitespace."""
    text = _PUNCT_RE.sub(" ", text.lower())
    tokens = [tok for tok in text.split() if tok not in _ARTICLES]
    return " ".join(tokens)


def acc_score(predicted: str, gold_set: Iterable[str]) -> int:
    """1 iff some normalized gold answer is a run of whole tokens of the normalized prediction.

    Normalized text holds no whitespace but the single spaces between its
    tokens, so with a space on each side the substring test matches on token
    boundaries only; an exact match is the run of every token.
    """
    padded = f" {normalize_answer(predicted)} "
    return int(any(gold and f" {gold} " in padded for gold in map(normalize_answer, gold_set)))


# ---------------------------------------------------------------------------
# Rejection filter and SFT export
# ---------------------------------------------------------------------------


def _positional_ok(trajectory: Trajectory) -> bool:
    steps = trajectory.steps
    if len(steps) < 3:
        return False
    if any(ActionKind(step.kind) not in PLANNING_KINDS for step in steps[:2]):
        return False
    if steps[-1].kind != ActionKind.FINAL_ANSWER.value:
        return False
    for step in steps[2:-1]:
        kind = ActionKind(step.kind)
        if kind in PLANNING_KINDS or kind is ActionKind.FINAL_ANSWER:
            return False
    return True


def _structural_fault(trajectory: Trajectory) -> str | None:
    """The rejection reason that needs no gold answers, or None when clean."""
    if trajectory.outcome != "answered" or trajectory.answer is None:
        return "incomplete"
    if not _positional_ok(trajectory):
        return "positional"
    if any(step.retries > 0 for step in trajectory.steps):
        return "schema"
    return None


def rft_filter(trajectory: Trajectory, gold_answers: Iterable[str]) -> str | None:
    """The reason to reject a trajectory, or None to keep it: it is correct, clean, and well-formed.

    Clean means every action parsed and validated on its first attempt (no
    retries consumed); well-formed means the positional constraints hold:
    two planning actions first, a final answer last, and only task-solving
    or retrospection actions in between.
    """
    fault = _structural_fault(trajectory)
    if fault is None and not acc_score(trajectory.answer, gold_answers):
        return "incorrect"
    return fault


def export_sft(trajectories: Iterable[Trajectory], out_path: str | Path) -> int:
    """Write one JSONL record per state-action pair; returns the pair count.

    Callers must pass trajectories already accepted by rft_filter. Structural
    cleanliness is re-verified here, for each trajectory before its first
    record (answer correctness needs the gold set and stays the caller's
    responsibility). Trajectories are read one at a time, and the corpus
    replaces ``out_path`` only once all are written (``atomic_write``).
    """
    with atomic_write(out_path, binary=True) as handle:
        # map, not a for loop: a loop variable would hold each trajectory
        # while the next one is read.
        return sum(map(partial(_write_pairs, handle), trajectories))


def _write_pairs(handle: IO[bytes], trajectory: Trajectory) -> int:
    """Write a trajectory's records; returns how many.

    Each is ``json.dumps(record, ensure_ascii=False, sort_keys=True)`` to the
    byte, built from UTF-8 JSON escapes. A state's leading lines that are
    the previous step's (its ``shared`` ones) reuse that step's escapes, so
    only the lines after them are escaped.
    """
    if _structural_fault(trajectory) is not None:
        raise InputError(
            f'trajectory "{trajectory.question_id or trajectory.question}" was not accepted by the rejection filter'
        )
    question_id = _json_string(trajectory.question_id)
    escaped: list[bytes] = []  # each line of the previous input, escaped, without its quotes
    for step in trajectory.steps:
        escaped[step.shared :] = [_json_string(line)[1:-1] for line in step.lines[step.shared :]]
        raw_text = _json_string(step.raw_text)
        handle.write(b'{"action_raw_text": %b, "question_id": %b, "state": "' % (raw_text, question_id))
        handle.write(b"\\n".join(escaped))
        handle.write(b'", "step_index": %d}\n' % step.index)
    return len(trajectory.steps)


def _json_string(text: str) -> bytes:
    """``text`` as ``json.dumps(text, ensure_ascii=False)`` writes it, in UTF-8."""
    return encode_basestring(text).encode("utf-8")


# ---------------------------------------------------------------------------
# Context analyses
# ---------------------------------------------------------------------------


def step_cache_ratios(trajectory: Trajectory) -> list[float]:
    """Prefix-cache ratios between consecutive solving-stage inputs (one per step from the second on).

    Each is the length of the two inputs' common token prefix over the
    current input's recorded ``token_count``, computed from lines: no token
    spans a newline. One ``LineTokenCounter``, seeded with the solving
    prompt's ``prompt_lines`` counts, follows the inputs: its ``head``
    counts the tokens of the step's recorded ``shared`` lines, and only
    those, so a line is tokenized when it first enters a shared head, never
    a tool document that the next input drops. The shared prefix is the
    head plus the common token prefix of the two inputs' lines after it,
    tokenized line by line only up to the first differing token.

    Whether an input is empty is decided from its own text. A recorded
    ``token_count`` below the shared prefix, or 0, is an InputError;
    any other wrong count shows only in strict replay, which counts each
    input again.
    """
    ratios = []
    counter = LineTokenCounter(prompt_lines(trajectory.prompts["solving"]).counts)
    steps = zip((None, *trajectory.steps), trajectory.steps)
    for turn, (before, step) in enumerate((before, step) for before, step in steps if step.stage == "solving"):
        previous = counter.lines
        # ``shared`` counts lines of the step before, which the counter holds if it is a solving one
        same = step.shared if turn and before.stage == "solving" else 0
        head = counter.head(step.lines, same)
        if turn:
            where = f'trajectory "{trajectory.question_id}" step {step.index}'
            if not any(map(_TOKEN_RE.search, step.lines)):
                raise InputError(f"{where}: current token sequence is empty")
            shared = head + _common_tokens(previous[same:], step.lines[same:])
            least = max(shared, 1)
            if step.token_count < least:
                raise InputError(
                    f"{where}: token_count is {step.token_count}, but the input holds {least} tokens or more"
                )
            ratios.append(shared / step.token_count)
    return ratios


def _common_tokens(previous: Sequence[str], current: Sequence[str]) -> int:
    """Common token-prefix length of two texts' lines, tokenized only up to the first differing token.

    An empty line holds no token, so it is not tokenized.
    """
    shared = 0
    pairs = zip(
        chain.from_iterable(map(default_tokenizer, filter(None, previous))),
        chain.from_iterable(map(default_tokenizer, filter(None, current))),
    )
    for a, b in pairs:
        if a != b:
            break
        shared += 1
    return shared


# ---------------------------------------------------------------------------
# Evaluation records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalRecord:
    """One row of the eval report."""

    question_id: str
    acc: int = 0
    turns: int = 0
    final_context_tokens: int = 0
    mean_cache_ratio: float = 0.0
    outcome: str = ""

    @classmethod
    def from_trajectory(cls, trajectory: Trajectory, gold_answers: Sequence[str]) -> "EvalRecord":
        solving = trajectory.solving_steps()
        ratios = step_cache_ratios(trajectory)
        return cls(
            question_id=trajectory.question_id,
            acc=acc_score(trajectory.answer, gold_answers) if trajectory.answer else 0,
            turns=len(solving),
            final_context_tokens=solving[-1].token_count if solving else 0,
            mean_cache_ratio=sum(ratios) / len(ratios) if ratios else 0.0,
            outcome=trajectory.outcome,
        )


def write_eval_report(records: Sequence[EvalRecord], out_path: str | Path) -> None:
    with atomic_write(out_path) as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["question_id", "acc", "turns", "final_context_tokens", "mean_cache_ratio", "outcome"]
        )
        for record in records:
            writer.writerow(
                [
                    record.question_id,
                    record.acc,
                    record.turns,
                    record.final_context_tokens,
                    f"{record.mean_cache_ratio:.4f}",
                    record.outcome,
                ]
            )


def write_stats(
    trajectories: Iterable[Trajectory], curve_path: str | Path, cache_path: str | Path, min_runs: int
) -> int:
    """Write the cache-ratio and context-curve CSVs in one pass; returns the number of runs read.

    The cache ratios have one row per (run, turn) from turn 2 on, written as
    each run is read. The curve has one row per solving turn: the mean
    ``token_count`` of the runs that reach it, how many do, and whether
    fewer than ``min_runs`` do, since tail means over few runs are
    outlier-dominated. A run is dropped before the next is read. Neither
    file is replaced unless every run is read (``atomic_write``).
    """
    runs = 0
    sums: dict[int, int] = {}  # per solving turn, the token counts of the runs that reach it
    counts: dict[int, int] = {}  # and how many runs do, in turn order
    with atomic_write(cache_path) as cache_file, atomic_write(curve_path) as curve_file:
        cache = csv.writer(cache_file)
        cache.writerow(["question_id", "turn", "cache_ratio"])
        for trajectory in trajectories:
            runs += 1
            for turn, ratio in enumerate(step_cache_ratios(trajectory), start=2):
                cache.writerow([trajectory.question_id, turn, f"{ratio:.4f}"])
            tokens = [step.token_count for step in trajectory.solving_steps()]
            del trajectory  # not held while the next one is read
            for turn, token_count in enumerate(tokens, start=1):
                sums[turn] = sums.get(turn, 0) + token_count
                counts[turn] = counts.get(turn, 0) + 1
        curve = csv.writer(curve_file)
        curve.writerow(["turn", "mean_tokens", "n", "low_sample"])
        for turn, n in counts.items():
            curve.writerow([turn, f"{sums[turn] / n:.2f}", n, int(n < min_runs)])
    return runs
