"""Trajectory records, the rejection filter, QA metrics, and corpus export.

A trajectory is the ordered list of (model input, action) pairs for one run,
with enough metadata (retries, raw outputs, tool results, prompts) to filter
it for fine-tuning, replay it, and measure context growth and prefix reuse.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field
from itertools import chain
from operator import ne
from pathlib import Path
from typing import Iterable, Sequence

from .protocol import ActionKind, subspace_of
from .register import LineTokenCounter, Tokenizer, default_tokenizer, token_length
from .tools import ToolResult

TRAJECTORY_VERSION = 1


class TrajectoryError(Exception):
    pass


class UnfilteredInput(TrajectoryError):
    pass


class EmptyCurrent(TrajectoryError):
    pass


@dataclass(frozen=True)
class StepRecord:
    """One state-action pair plus audit metadata."""

    index: int
    stage: str  # "planning" | "solving"
    state: str
    kind: str
    payload: dict
    raw_text: str
    model_text: str
    token_count: int
    retries: int = 0
    diagnostics: tuple[str, ...] = ()
    tool_result: ToolResult | None = None

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "stage": self.stage,
            "state": self.state,
            "kind": self.kind,
            "payload": self.payload,
            "raw_text": self.raw_text,
            "model_text": self.model_text,
            "token_count": self.token_count,
            "retries": self.retries,
            "diagnostics": list(self.diagnostics),
            "tool_result": self.tool_result.to_dict() if self.tool_result else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StepRecord":
        return cls(
            index=data["index"],
            stage=data["stage"],
            state=data["state"],
            kind=data["kind"],
            payload=data["payload"],
            raw_text=data["raw_text"],
            model_text=data["model_text"],
            token_count=data["token_count"],
            retries=data["retries"],
            diagnostics=tuple(data["diagnostics"]),
            tool_result=ToolResult.from_dict(data["tool_result"]) if data["tool_result"] else None,
        )


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
    prompts: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def solving_steps(self) -> list[StepRecord]:
        return [step for step in self.steps if step.stage == "solving"]

    def final_answer_text(self) -> str | None:
        return self.answer

    # -- persistence (versioned JSONL: one header line, one line per step) --

    def save(self, path: str | Path) -> None:
        header = {
            "record": "trajectory",
            "version": TRAJECTORY_VERSION,
            "question": self.question,
            "question_id": self.question_id,
            "outcome": self.outcome,
            "answer": self.answer,
            "error": self.error,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "prompts": self.prompts,
            "config": self.config,
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, ensure_ascii=False, sort_keys=True) + "\n")
            for step in self.steps:
                line = {"record": "step", **step.to_dict()}
                handle.write(json.dumps(line, ensure_ascii=False, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Trajectory":
        with open(path, "r", encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        if not lines or lines[0].get("record") != "trajectory":
            raise TrajectoryError(f"{path} is not a trajectory file")
        header = lines[0]
        if header.get("version") != TRAJECTORY_VERSION:
            raise TrajectoryError(f"unsupported trajectory version: {header.get('version')}")
        trajectory = cls(
            question=header["question"],
            question_id=header["question_id"],
            outcome=header["outcome"],
            answer=header["answer"],
            error=header["error"],
            started_at=header["started_at"],
            finished_at=header["finished_at"],
            prompts=header["prompts"],
            config=header["config"],
        )
        for line in lines[1:]:
            if line.get("record") == "step":
                line.pop("record")
                trajectory.steps.append(StepRecord.from_dict(line))
        return trajectory


def load_trajectories(directory: str | Path) -> list[Trajectory]:
    paths = sorted(Path(directory).glob("*.jsonl"))
    return [Trajectory.load(path) for path in paths]


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


def _contains_sublist(haystack: Sequence[str], needle: Sequence[str]) -> bool:
    if not needle:
        return False
    for start in range(len(haystack) - len(needle) + 1):
        if list(haystack[start : start + len(needle)]) == list(needle):
            return True
    return False


def acc_score(predicted: str, gold_set: Iterable[str]) -> int:
    """1 iff any normalized gold answer exact-matches or is covered.

    Cover match: the gold answer appears in the prediction on token
    boundaries after normalization.
    """
    pred_norm = normalize_answer(predicted)
    pred_tokens = pred_norm.split()
    for gold in gold_set:
        gold_norm = normalize_answer(gold)
        if not gold_norm:
            continue
        if pred_norm == gold_norm:
            return 1
        if _contains_sublist(pred_tokens, gold_norm.split()):
            return 1
    return 0


# ---------------------------------------------------------------------------
# Rejection filter and SFT export
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FilterDecision:
    accepted: bool
    reason: str | None = None


def _positional_ok(trajectory: Trajectory) -> bool:
    steps = trajectory.steps
    if len(steps) < 3:
        return False
    if any(subspace_of(ActionKind(step.kind)) != "plan" for step in steps[:2]):
        return False
    if steps[-1].kind != ActionKind.FINAL_ANSWER.value:
        return False
    for step in steps[2:-1]:
        kind = ActionKind(step.kind)
        if subspace_of(kind) == "plan" or kind is ActionKind.FINAL_ANSWER:
            return False
    return True


def rft_filter(trajectory: Trajectory, gold_answers: Iterable[str]) -> FilterDecision:
    """Keep a trajectory only if it is correct, clean, and well-formed.

    Clean means every action parsed and validated on its first attempt (no
    retries consumed); well-formed means the positional constraints hold:
    two planning actions first, a final answer last, and only task-solving
    or retrospection actions in between.
    """
    if trajectory.outcome != "answered" or trajectory.answer is None:
        return FilterDecision(False, "incomplete")
    if not _positional_ok(trajectory):
        return FilterDecision(False, "positional")
    if any(step.retries > 0 for step in trajectory.steps):
        return FilterDecision(False, "schema")
    if acc_score(trajectory.answer, gold_answers) != 1:
        return FilterDecision(False, "incorrect")
    return FilterDecision(True, None)


def _structurally_clean(trajectory: Trajectory) -> bool:
    return (
        trajectory.outcome == "answered"
        and _positional_ok(trajectory)
        and all(step.retries == 0 for step in trajectory.steps)
    )


def export_sft(trajectories: Sequence[Trajectory], out_path: str | Path) -> int:
    """Write one JSONL record per state-action pair; returns the pair count.

    Callers must pass trajectories already accepted by rft_filter. Structural
    cleanliness is re-verified here (answer correctness needs the gold set
    and stays the caller's responsibility).
    """
    for trajectory in trajectories:
        if not _structurally_clean(trajectory):
            raise UnfilteredInput(
                f'trajectory "{trajectory.question_id or trajectory.question}" '
                "was not accepted by the rejection filter"
            )
    count = 0
    with open(out_path, "w", encoding="utf-8") as handle:
        for trajectory in trajectories:
            for step in trajectory.steps:
                record = {
                    "question_id": trajectory.question_id,
                    "step_index": step.index,
                    "state": step.state,
                    "action_raw_text": step.raw_text,
                }
                handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
                count += 1
    return count


# ---------------------------------------------------------------------------
# Context analyses
# ---------------------------------------------------------------------------


def cache_ratio(prev_tokens: Sequence, cur_tokens: Sequence) -> float:
    """Longest-common-prefix length over the current sequence length."""
    if len(cur_tokens) == 0:
        raise EmptyCurrent("current token sequence is empty")
    shared = 0
    for a, b in zip(prev_tokens, cur_tokens):
        if a != b:
            break
        shared += 1
    return shared / len(cur_tokens)


def step_cache_ratios(trajectory: Trajectory) -> list[float]:
    """cache_ratio between consecutive solving-stage inputs (one per step from the second on).

    Equal to ``cache_ratio(default_tokenizer(prev), default_tokenizer(cur))``,
    computed from lines: no token spans a newline. A state's length is the
    sum of its lines' counts, and a :class:`LineTokenCounter` tokenizes only
    the lines the previous state lacked. The shared prefix is the counts of
    the leading lines both states have, plus the common token prefix of what
    follows, tokenized line by line only up to the first differing token.
    Only the previous state's lines are kept.
    """
    counter = LineTokenCounter()
    ratios = []
    previous = None
    for step in trajectory.solving_steps():
        current = step.state.split("\n")
        total = counter.count_lines(current)
        if previous is not None:
            if total == 0:
                raise EmptyCurrent("current token sequence is empty")
            ratios.append(_shared_tokens(previous, current, counter.counts) / total)
        previous = current
    return ratios


def _shared_tokens(previous: list[str], current: list[str], counts: dict[str, int]) -> int:
    """Common token-prefix length of two states given as lines; ``counts`` covers ``current``."""
    differs = list(map(ne, previous, current))  # compared in C, not line by line in Python
    same = differs.index(True) if True in differs else len(differs)
    shared = sum(map(counts.__getitem__, current[:same]))
    rest = zip(
        chain.from_iterable(map(default_tokenizer, previous[same:])),
        chain.from_iterable(map(default_tokenizer, current[same:])),
    )
    for a, b in rest:
        if a != b:
            break
        shared += 1
    return shared


@dataclass(frozen=True)
class TurnPoint:
    turn: int
    mean_tokens: float
    n: int
    flagged: bool


def context_curve(
    trajectories: Sequence[Trajectory], min_runs: int = 3
) -> list[TurnPoint]:
    """Per-turn mean context length over solving steps, with sample sizes.

    Turns contributed by fewer than ``min_runs`` runs are flagged: tail means
    over few runs are outlier-dominated and should be read with care.
    """
    by_turn: dict[int, list[int]] = {}
    for trajectory in trajectories:
        for turn, step in enumerate(trajectory.solving_steps(), start=1):
            by_turn.setdefault(turn, []).append(step.token_count)
    curve = []
    for turn in sorted(by_turn):
        counts = by_turn[turn]
        curve.append(
            TurnPoint(
                turn=turn,
                mean_tokens=sum(counts) / len(counts),
                n=len(counts),
                flagged=len(counts) < min_runs,
            )
        )
    return curve


def naive_transcript(trajectory: Trajectory) -> str:
    """The full-history rendering a transcript-accumulating agent would carry.

    Prompt, question, then every raw model output and every raw tool document
    appended in order: the baseline the register rendering is compared to.
    """
    parts = [trajectory.prompts.get("solving", ""), f"## Question\n{trajectory.question}"]
    for step in trajectory.steps:
        parts.append(f"### Step {step.index}\n{step.model_text}")
        if step.tool_result is not None:
            lines = ["Observation:"]
            for doc in step.tool_result.documents:
                lines.append(f"[{doc.source_id}] {doc.title}")
                lines.append(doc.text)
            parts.append("\n".join(lines))
    return "\n\n".join(parts)


@dataclass(frozen=True)
class CompactnessReport:
    register_tokens: int
    transcript_tokens: int

    @property
    def ratio(self) -> float:
        return self.register_tokens / self.transcript_tokens


def context_compactness(
    trajectory: Trajectory, tokenizer: Tokenizer | None = None
) -> CompactnessReport:
    """Compare the final register-rendered input against the naive transcript."""
    solving = trajectory.solving_steps()
    if not solving:
        raise TrajectoryError("trajectory has no solving steps to compare")
    final_state = solving[-1].state
    return CompactnessReport(
        register_tokens=token_length(final_state, tokenizer),
        transcript_tokens=token_length(naive_transcript(trajectory), tokenizer),
    )


# ---------------------------------------------------------------------------
# Evaluation records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalRecord:
    question_id: str
    question: str
    gold_answers: tuple[str, ...]
    predicted: str | None
    acc: int
    turns: int
    context_lengths: tuple[int, ...]
    cache_ratios: tuple[float, ...]
    outcome: str

    @property
    def final_context_tokens(self) -> int:
        return self.context_lengths[-1] if self.context_lengths else 0

    @property
    def mean_cache_ratio(self) -> float:
        if not self.cache_ratios:
            return 0.0
        return sum(self.cache_ratios) / len(self.cache_ratios)

    @classmethod
    def from_trajectory(cls, trajectory: Trajectory, gold_answers: Sequence[str]) -> "EvalRecord":
        solving = trajectory.solving_steps()
        return cls(
            question_id=trajectory.question_id,
            question=trajectory.question,
            gold_answers=tuple(gold_answers),
            predicted=trajectory.answer,
            acc=acc_score(trajectory.answer, gold_answers) if trajectory.answer else 0,
            turns=len(solving),
            context_lengths=tuple(step.token_count for step in solving),
            cache_ratios=tuple(step_cache_ratios(trajectory)),
            outcome=trajectory.outcome,
        )


def write_eval_report(records: Sequence[EvalRecord], out_path: str | Path) -> None:
    with open(out_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["question_id", "acc", "turns", "final_context_tokens", "mean_cache_ratio"]
        )
        for record in records:
            writer.writerow(
                [
                    record.question_id,
                    record.acc,
                    record.turns,
                    record.final_context_tokens,
                    f"{record.mean_cache_ratio:.4f}",
                ]
            )


def write_context_curve(curve: Sequence[TurnPoint], out_path: str | Path) -> None:
    with open(out_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["turn", "mean_tokens", "n", "low_sample"])
        for point in curve:
            writer.writerow([point.turn, f"{point.mean_tokens:.2f}", point.n, int(point.flagged)])


def write_cache_ratios(trajectories: Sequence[Trajectory], out_path: str | Path) -> None:
    """Per-turn cache ratios, one row per (run, turn), plot-ready."""
    with open(out_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["question_id", "turn", "cache_ratio"])
        for trajectory in trajectories:
            for turn, ratio in enumerate(step_cache_ratios(trajectory), start=2):
                writer.writerow([trajectory.question_id, turn, f"{ratio:.4f}"])
