"""Input files, the tool registry, fixture search, and registry construction from a tool config.

Every executor returns a normalized ToolResult regardless of the upstream
wire shape, so the engine and register never see provider-specific payloads.
Fixture tools make the whole engine runnable offline; the HTTP search
clients live in ``remote``, which a registry build imports only for a
config entry that names one.
"""

from __future__ import annotations

import json
import logging
import re
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from .protocol import SURROGATE_RE, ProtocolError

logger = logging.getLogger(__name__)

DEFAULT_TOP_K = 3


class InputError(ValueError):
    """A malformed input file; ``where`` is set once the message names the file (and line)."""

    where = ""


@dataclass
class located:
    """Put ``path``, and ``line`` when set, before the message of an InputError raised inside."""

    path: str | Path | None
    line: int = 0

    def __enter__(self) -> "located":
        return self

    def __exit__(self, kind: object, exc: BaseException | None, traceback: object) -> None:
        if isinstance(exc, InputError) and not exc.where:
            error = type(exc)(f"{self.path}{f' line {self.line}' if self.line else ''}: {exc}")
            error.where = str(self.path)
            raise error from None


# Only a line holding a lone surrogate's escape can hold one.
_SURROGATE_ESCAPE_RE = re.compile(rb"\\u[dD][89a-fA-F]")


def read_json(
    path: str | Path, check: Callable[[dict], None] | None = None, *, lines: bool = True, surrogates: bool = True
) -> Iterator[tuple[int, dict]]:
    """The objects of a JSON Lines file, or of a JSON file's one document (line 0), as (line, object) pairs.

    Blank lines are skipped. Bytes that are not UTF-8, and text that is not
    JSON, not a JSON object, or that ``check`` rejects, are an InputError
    naming the file and line. Without ``surrogates``, so is a string holding
    a lone surrogate.
    """
    with open(path, "rb") as handle, located(path) as place:
        for number, data in enumerate(handle, start=1) if lines else [(0, handle.read())]:
            place.line = number
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise InputError(f"not UTF-8: {exc}") from None
            if lines and text.isspace():  # a line read from a file is never empty
                continue
            try:
                record = json.loads(text)
            except ValueError as exc:
                raise InputError(f"not JSON: {exc}") from None
            if type(record) is not dict:
                raise InputError("not a JSON object")
            if (
                not surrogates
                and _SURROGATE_ESCAPE_RE.search(data)
                and SURROGATE_RE.search(json.dumps(record, ensure_ascii=False))
            ):
                raise InputError("holds a lone surrogate (U+D800-U+DFFF), which is not Unicode")
            if check:
                check(record)
            yield number, record


_TYPE_NAMES = {
    int: "an integer", float: "a number", str: "a string", dict: "an object", list: "a list", type(None): "null"
}
_MISSING = object()  # of no JSON type


def check_fields(record: Mapping[str, Any], fields: Mapping[str, tuple[type, ...]], *, optional: bool = False) -> None:
    """Raise an InputError unless each of ``fields`` (required unless ``optional``) has one of its JSON types.

    ``type(...) in``, not isinstance: JSON true and false are not integers. Each field costs one test.
    """
    for name, expected in fields.items():
        if type(record.get(name, _MISSING)) not in expected:
            if name in record:
                raise InputError(f'field "{name}" is not {" or ".join(map(_TYPE_NAMES.get, expected))}')
            if not optional:
                raise InputError(f"missing field {name!r}")


def check_strings(record: Mapping[str, Any], name: str) -> None:
    """Raise an InputError unless every entry of the list or object field ``name`` is a string."""
    values = record[name].values() if type(record[name]) is dict else record[name]
    if values and not all(type(value) is str for value in values):
        raise InputError(f'field "{name}" holds an entry that is not a string')


class ToolTransportError(Exception):
    """A tool that failed to answer: the run aborts."""


# A corpus record's fields and JSON types, which a recorded tool document has exactly.
DOCUMENT_FIELDS = {"source_id": (str,), "title": (str,), "text": (str,)}


@dataclass(frozen=True)
class Document:
    source_id: str
    title: str
    text: str

    def to_dict(self) -> dict:
        return {"source_id": self.source_id, "title": self.title, "text": self.text}


@dataclass(frozen=True)
class ToolResult:
    """Normalized tool output: ranked documents.

    Trajectory files up to version 4 write a ``"raw": null`` beside the
    documents; ``to_dict`` keeps it so that files keep their bytes, and
    ``from_dict`` and ``Trajectory.load`` ignore it.
    """

    documents: tuple[Document, ...] = ()

    def to_dict(self) -> dict:
        return {"documents": [doc.to_dict() for doc in self.documents], "raw": None}

    @classmethod
    def from_dict(cls, data: dict) -> "ToolResult":
        return cls(documents=tuple(Document(**doc) for doc in data["documents"]))


@dataclass(frozen=True)
class ToolSpec:
    """A search tool's name and description; every tool takes one string ``query``."""

    tool_name: str
    description: str


def validate_arguments(spec: ToolSpec, arguments: Mapping[str, Any]) -> None:
    """Check the one search argument schema: a required string ``query`` and nothing else."""
    if "query" not in arguments:
        raise ProtocolError(f'tool "{spec.tool_name}" requires argument "query"')
    for name, value in arguments.items():
        if name != "query":
            raise ProtocolError(f'tool "{spec.tool_name}" does not accept argument "{name}"')
        if not isinstance(value, str):
            raise ProtocolError(f'tool "{spec.tool_name}" argument "query" must be of type string')


Executor = Callable[[Mapping[str, Any]], ToolResult]


class ToolRegistry:
    """Immutable-after-startup name -> (spec, executor) table."""

    def __init__(self) -> None:
        self._tools: dict[str, tuple[ToolSpec, Executor]] = {}

    def register(self, spec: ToolSpec, executor: Executor) -> "ToolRegistry":
        if spec.tool_name in self._tools:
            raise InputError(f'tool "{spec.tool_name}" is already registered')
        self._tools[spec.tool_name] = (spec, executor)
        return self

    def get(self, tool_name: str) -> ToolSpec:
        if tool_name not in self._tools:
            raise ProtocolError(
                f'unknown tool "{tool_name}"; registered tools: '
                + (", ".join(sorted(self._tools)) or "(none)")
            )
        return self._tools[tool_name][0]

    def specs(self) -> list[ToolSpec]:
        return [self._tools[name][0] for name in sorted(self._tools)]

    def invoke(self, tool_name: str, arguments: Mapping[str, Any]) -> ToolResult:
        spec = self.get(tool_name)
        validate_arguments(spec, arguments)
        result = self._tools[tool_name][1](arguments)
        if not result.documents:
            # Zero documents is legal; surface it in the logs, not as an error.
            logger.warning("tool %s returned no documents for %s", tool_name, dict(arguments))
        return result


# ---------------------------------------------------------------------------
# Fixture search (offline, deterministic)
# ---------------------------------------------------------------------------


def load_corpus(path: str | Path) -> list[Document]:
    """Read a JSONL corpus of {source_id, title, text} string records; a lone surrogate in one is an InputError."""
    records = read_json(path, lambda record: check_fields(record, DOCUMENT_FIELDS), surrogates=False)
    return [Document(record["source_id"], record["title"], record["text"]) for _, record in records]


def _mask(ranks: array, size: int) -> int:
    """The ``size``-bit integer with bit ``r`` set for each ``r`` in ``ranks``."""
    digits = bytearray(b"0") * size  # digit r is bit r, so the digits are read reversed
    for rank in ranks:
        digits[rank] = 49  # "1"
    return int(digits[::-1], 2)


@dataclass
class FixtureSearchTool:
    """Deterministic keyword search over an in-memory corpus.

    A document scores the number of distinct query tokens among its own
    (``f"{title} {text}".lower().split()``). Higher scores rank first; ties
    break on source_id, then on corpus order, so identical queries always
    return identical rankings. Documents that share no token with the query
    fill any places left, in the same tie order.

    The corpus is indexed once, at construction. Each document is numbered
    by its rank in that tie order, and each token maps to the documents
    holding it in whichever form is smaller: an ``array("I")`` of their
    ranks, or, when more than 1/32 of the documents hold the token, one
    ``int`` with bit ``r`` set for each rank ``r``. So the index never holds
    more than the arrays would. A query turns each of its tokens into a
    mask (a sparse token's at query time, in time linear in the corpus
    size), folds them into ``at_least[s]``, the documents holding at least
    ``s`` query tokens, and reads the ranks of each score level,
    ``at_least[s] & ~at_least[s + 1]``, highest level first and lowest bit
    first. Level 0 holds the unmatched documents. A query costs a few
    big-integer operations per query token and score level, and reads only
    the ``top_k`` documents it returns from the corpus.
    """

    corpus: Sequence[Document]
    top_k: int = DEFAULT_TOP_K
    _postings: dict[str, array | int] = field(init=False, repr=False, compare=False)
    _order: array = field(init=False, repr=False, compare=False)  # corpus ordinal of each rank

    def __post_init__(self) -> None:
        self._order = array("I", sorted(range(len(self.corpus)), key=lambda i: self.corpus[i].source_id))
        size = len(self._order)
        postings: dict[str, array | int] = {}
        for rank, ordinal in enumerate(self._order):
            doc = self.corpus[ordinal]
            for token in set(f"{doc.title} {doc.text}".lower().split()):
                ranks = postings.get(token)
                if ranks is None:
                    ranks = postings[token] = array("I")
                ranks.append(rank)
        for token, ranks in postings.items():
            if len(ranks) * 32 > size:
                postings[token] = _mask(ranks, size)
        self._postings = postings

    def __call__(self, arguments: Mapping[str, Any]) -> ToolResult:
        size = len(self._order)
        at_least = [(1 << size) - 1]
        for token in set(str(arguments["query"]).lower().split()):
            mask = self._postings.get(token, 0)
            if type(mask) is array:
                mask = _mask(mask, size)
            carried = at_least[-1] & mask
            for score in range(len(at_least) - 1, 0, -1):
                at_least[score] |= at_least[score - 1] & mask
            if carried:
                at_least.append(carried)
        ranks: list[int] = []
        above = 0
        for documents in reversed(at_least):
            level, above = documents ^ above, documents  # at_least[s + 1] is a subset of at_least[s]
            while level and len(ranks) < self.top_k:
                lowest = level & -level
                ranks.append(lowest.bit_length() - 1)
                level ^= lowest
        return ToolResult(documents=tuple(self.corpus[self._order[rank]] for rank in ranks))


@dataclass
class ScriptedTool:
    """Serves canned ToolResults in order; used by the replay harness."""

    results: list[ToolResult] = field(default_factory=list)
    _served: int = 0

    def __call__(self, arguments: Mapping[str, Any]) -> ToolResult:
        if self._served >= len(self.results):
            raise ToolTransportError("scripted tool has no responses left")
        result = self.results[self._served]
        self._served += 1
        return result


# ---------------------------------------------------------------------------
# Registry construction from config
# ---------------------------------------------------------------------------

def search_spec(tool_name: str, description: str) -> ToolSpec:
    return ToolSpec(tool_name=tool_name, description=description)


# The optional keys of every entry, with their JSON types.
_ENTRY_OPTIONS = {"top_k": (int, str), "description": (str,)}


def check_tool_keys(entry: Mapping[str, Any], own: set[str]) -> None:
    """Raise an InputError naming the first key of a tool entry that is neither every kind's nor in ``own``."""
    unknown = sorted(entry.keys() - {"name", "kind", *_ENTRY_OPTIONS, *own})
    if unknown:
        raise InputError(f'tool "{entry["name"]}" has an unknown key "{unknown[0]}"')


def build_registry(
    config: Sequence[Mapping[str, Any]],
    base_dir: str | Path = ".",
    top_k: int | None = None,
    fixtures: dict[tuple[Path, int], FixtureSearchTool] | None = None,
) -> ToolRegistry:
    """Build a registry from tool config entries; ``top_k``, when given, overrides every entry's.

    Each entry is an object with a string ``name`` and ``kind`` (fixture |
    web_search | dense_retriever), plus a string ``corpus`` or ``endpoint``
    by kind; see the README. A malformed entry, a key its kind does not
    accept, or a ``top_k`` that is not an integer of at least 1, is an
    InputError naming the tool.

    ``fixtures`` maps a (corpus path, top_k) pair to the fixture tool built
    over it. A build reuses a tool found there and adds any it makes, so
    builds that share one map read and index each corpus once; a build
    given none uses a map of its own.
    """
    fixtures = {} if fixtures is None else fixtures
    registry = ToolRegistry()
    for entry in config:
        if type(entry) is not dict:
            raise InputError("a tool entry is not a JSON object")
        check_fields(entry, {"name": (str,), "kind": (str,)})
        check_fields(entry, _ENTRY_OPTIONS, optional=True)
        name, kind = entry["name"], entry["kind"]
        options: dict[str, Any] = {}
        if top_k is not None or "top_k" in entry:
            value = entry["top_k"] if top_k is None else top_k
            try:
                options["top_k"] = int(value)
            except ValueError:
                raise InputError(f'tool "{name}" has a top_k that is not an integer: {value!r}') from None
            if options["top_k"] < 1:
                raise InputError(f'tool "{name}" needs a top_k of at least 1, not {options["top_k"]}')
        if kind == "fixture":
            check_tool_keys(entry, {"corpus"})
            check_fields(entry, {"corpus": (str,)})
            path = Path(base_dir) / entry["corpus"]
            key = (path, options.get("top_k", DEFAULT_TOP_K))
            if key not in fixtures:
                fixtures[key] = FixtureSearchTool(corpus=load_corpus(path), **options)
            executor: Executor = fixtures[key]
            description = "Keyword search over a fixture corpus."
        elif kind in ("web_search", "dense_retriever"):
            from .remote import search_client  # only a config that names an HTTP client loads one

            executor, description = search_client(entry, options)
        else:
            raise InputError(f'unknown tool kind "{kind}" for tool "{name}"')
        registry.register(search_spec(name, entry.get("description", description)), executor)
    return registry
