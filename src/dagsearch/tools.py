"""Tool registry and clients: fixture search, web search, and dense retrieval.

Every executor returns a normalized ToolResult regardless of the upstream
wire shape, so the engine and register never see provider-specific payloads.
Fixture tools make the whole engine runnable offline.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

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


# A lone surrogate: JSON can escape one, but it is not Unicode, so UTF-8
# cannot encode it. Only a line holding a surrogate's escape can hold one.
_SURROGATE_RE = re.compile("[\ud800-\udfff]")
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
                and _SURROGATE_RE.search(json.dumps(record, ensure_ascii=False))
            ):
                raise InputError("holds a lone surrogate (U+D800-U+DFFF), which is not Unicode")
            if check:
                check(record)
            yield number, record


_TYPE_NAMES = {
    int: "an integer", float: "a number", str: "a string", dict: "an object", list: "a list", type(None): "null"
}


def check_fields(record: Mapping[str, Any], fields: Mapping[str, tuple[type, ...]], *, optional: bool = False) -> None:
    """Raise an InputError unless each of ``fields`` (required unless ``optional``) has one of its JSON types.

    ``type(...) in``, not isinstance: JSON true and false are not integers.
    """
    for name, expected in fields.items():
        if name not in record:
            if optional:
                continue
            raise InputError(f"missing field {name!r}")
        if type(record[name]) not in expected:
            raise InputError(f'field "{name}" is not {" or ".join(map(_TYPE_NAMES.get, expected))}')


def check_strings(record: Mapping[str, Any], name: str) -> None:
    """Raise an InputError unless every entry of the list or object field ``name`` is a string."""
    values = record[name].values() if type(record[name]) is dict else record[name]
    if not all(type(value) is str for value in values):
        raise InputError(f'field "{name}" holds an entry that is not a string')


class ToolError(Exception):
    """Base for tool failures; ``str(err)`` is a re-prompt-ready diagnostic."""


class DuplicateTool(ToolError, ValueError):
    """A tool name registered twice: a bad tool config, so a ValueError too."""


class UnknownTool(ToolError):
    pass


class ArgumentSchemaViolation(ToolError):
    pass


class ToolTransportError(ToolError):
    pass


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
    ``from_dict`` ignores it.
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
        raise ArgumentSchemaViolation(f'tool "{spec.tool_name}" requires argument "query"')
    for name, value in arguments.items():
        if name != "query":
            raise ArgumentSchemaViolation(f'tool "{spec.tool_name}" does not accept argument "{name}"')
        if not isinstance(value, str):
            raise ArgumentSchemaViolation(f'tool "{spec.tool_name}" argument "query" must be of type string')


def stable_source_id(tool_name: str, key: str) -> str:
    """``<tool>:<stable-hash>`` id for doc_extraction back-references."""
    digest = hashlib.sha1(key.encode("utf-8")).hexdigest()[:12]
    return f"{tool_name}:{digest}"


Executor = Callable[[Mapping[str, Any]], ToolResult]


class ToolRegistry:
    """Immutable-after-startup name -> (spec, executor) table."""

    def __init__(self) -> None:
        self._tools: dict[str, tuple[ToolSpec, Executor]] = {}

    def register(self, spec: ToolSpec, executor: Executor) -> "ToolRegistry":
        if spec.tool_name in self._tools:
            raise DuplicateTool(f'tool "{spec.tool_name}" is already registered')
        self._tools[spec.tool_name] = (spec, executor)
        return self

    def get(self, tool_name: str) -> ToolSpec:
        if tool_name not in self._tools:
            raise UnknownTool(
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
    """Read a JSONL corpus of {source_id, title, text} string records."""
    records = read_json(path, lambda record: check_fields(record, DOCUMENT_FIELDS))
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
# HTTP clients
# ---------------------------------------------------------------------------


def _request_with_retries(
    method: str,
    url: str,
    *,
    max_retries: int,
    backoff: float,
    timeout: float,
    error: type[Exception] = ToolTransportError,
    params: Mapping[str, Any] | None = None,
    body: Any = None,
    headers: Mapping[str, str] | None = None,
) -> bytes:
    """Send a request and return the response body, retrying transient failures.

    ``params`` go in the query string; ``body`` is sent as JSON. Connection
    errors, timeouts, HTTP 429 and 5xx are logged and retried with
    exponential backoff until the retries are spent; any other failure, a
    bad URL included, raises ``error`` at once.

    This is the one place that sends HTTP, so the HTTP stack is imported
    here: runs that never send a request never load it.
    """
    import http.client
    import urllib.error
    import urllib.parse
    import urllib.request

    if params:
        url = f"{url}{'&' if '?' in url else '?'}{urllib.parse.urlencode(params)}"
    headers = dict(headers or {})
    data = None
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        headers.setdefault("Content-Type", "application/json")
    last_error: Exception | None = None
    for attempt in range(max_retries + 1):
        try:
            request = urllib.request.Request(url, data=data, headers=headers, method=method)
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            last_error = error(f"{url} answered HTTP {exc.code}")
            if exc.code != 429 and exc.code < 500:
                raise last_error from None
        except (ValueError, http.client.InvalidURL) as exc:
            raise error(f"Invalid URL or header for {url}: {exc}") from None
        except (http.client.HTTPException, OSError) as exc:
            # OSError covers URLError, timeouts and connection resets.
            last_error = exc
        logger.warning("request attempt %d/%d failed: %s", attempt + 1, max_retries + 1, last_error)
        if attempt < max_retries:
            time.sleep(backoff * (2**attempt))
    raise error(f"request to {url} failed after {max_retries + 1} attempts: {last_error}")


def _dig(payload: Any, path: str) -> Any:
    """Follow a dotted path through nested dicts; '' returns the payload."""
    current = payload
    if not path:
        return current
    for part in path.split("."):
        if not isinstance(current, dict) or part not in current:
            raise ToolTransportError(f'response is missing field "{path}"')
        current = current[part]
    return current


def _result_items(body: bytes, path: str, top_k: int) -> list[dict]:
    """The first ``top_k`` result objects of the array at ``path`` in a JSON body."""
    try:
        payload = json.loads(body)
    except ValueError as exc:
        raise ToolTransportError(f"response body is not JSON: {exc}") from None
    items = _dig(payload, path)
    if not isinstance(items, list):
        raise ToolTransportError(f'response field "{path}" is not an array')
    items = items[:top_k]
    if not all(isinstance(item, dict) for item in items):
        raise ToolTransportError(f'response field "{path}" holds a result that is not an object')
    return items


@dataclass
class WebSearchClient:
    """Provider-agnostic "query -> ranked snippets" adapter.

    The wire format is config-mapped (param names and response field paths),
    so any commercial search API with a JSON results array fits without code
    changes.
    """

    tool_name: str
    endpoint: str
    top_k: int = DEFAULT_TOP_K
    method: str = "GET"
    query_param: str = "q"
    extra_params: Mapping[str, str] = field(default_factory=dict)
    results_path: str = "results"
    title_field: str = "title"
    url_field: str = "url"
    snippet_field: str = "snippet"
    api_key: str | None = None
    api_key_param: str | None = None
    api_key_header: str | None = None
    timeout: float = 15.0
    max_retries: int = 3
    backoff: float = 0.5

    def __call__(self, arguments: Mapping[str, Any]) -> ToolResult:
        params = dict(self.extra_params)
        params[self.query_param] = str(arguments["query"])
        headers = {}
        if self.api_key:
            if self.api_key_header:
                headers[self.api_key_header] = self.api_key
            else:
                params[self.api_key_param or "api_key"] = self.api_key
        post = self.method.upper() == "POST"
        response = _request_with_retries(
            self.method.upper(),
            self.endpoint,
            max_retries=self.max_retries,
            backoff=self.backoff,
            timeout=self.timeout,
            params=None if post else params,
            body=params if post else None,
            headers=headers,
        )
        docs = []
        for item in _result_items(response, self.results_path, self.top_k):
            url = str(item.get(self.url_field, ""))
            title = str(item.get(self.title_field, ""))
            docs.append(
                Document(
                    source_id=stable_source_id(self.tool_name, url or title),
                    title=title,
                    text=str(item.get(self.snippet_field, "")),
                )
            )
        return ToolResult(documents=tuple(docs))


@dataclass
class DenseRetrieverClient:
    """Client for a local "query -> top-k scored passages" retrieval service."""

    tool_name: str
    endpoint: str
    top_k: int = DEFAULT_TOP_K
    query_field: str = "query"
    top_k_field: str = "top_k"
    results_path: str = "passages"
    id_field: str = "id"
    title_field: str = "title"
    text_field: str = "text"
    timeout: float = 15.0
    max_retries: int = 3
    backoff: float = 0.5

    def __call__(self, arguments: Mapping[str, Any]) -> ToolResult:
        body = {self.query_field: str(arguments["query"]), self.top_k_field: self.top_k}
        response = _request_with_retries(
            "POST",
            self.endpoint,
            max_retries=self.max_retries,
            backoff=self.backoff,
            timeout=self.timeout,
            body=body,
        )
        docs = []
        for item in _result_items(response, self.results_path, self.top_k):
            doc_id = str(item.get(self.id_field, ""))
            docs.append(
                Document(
                    source_id=stable_source_id(self.tool_name, doc_id),
                    title=str(item.get(self.title_field, "")),
                    text=str(item.get(self.text_field, "")),
                )
            )
        return ToolResult(documents=tuple(docs))


# ---------------------------------------------------------------------------
# Registry construction from config
# ---------------------------------------------------------------------------

def search_spec(tool_name: str, description: str) -> ToolSpec:
    return ToolSpec(tool_name=tool_name, description=description)


# Per client kind: the class, the optional config keys passed through to it
# when an entry sets them, with their JSON types (each default lives on the
# class), and the default description.
_CLIENTS: dict[str, tuple[type, dict[str, tuple[type, ...]], str]] = {
    "web_search": (
        WebSearchClient,
        {
            **dict.fromkeys(("method", "query_param", "results_path", "title_field", "url_field"), (str,)),
            **dict.fromkeys(("snippet_field", "api_key_param", "api_key_header"), (str,)),
            "extra_params": (dict,),
        },
        "Web search returning ranked snippets.",
    ),
    "dense_retriever": (
        DenseRetrieverClient,
        dict.fromkeys(("query_field", "top_k_field", "results_path", "id_field", "title_field", "text_field"), (str,)),
        "Dense passage retrieval over a local index.",
    ),
}
# The optional keys of every entry, with their JSON types.
_ENTRY_OPTIONS = {"top_k": (int, str), "description": (str,), "api_key_env": (str,)}


def build_registry(
    config: Sequence[Mapping[str, Any]],
    base_dir: str | Path = ".",
    top_k: int | None = None,
    fixtures: dict[tuple[Path, int], FixtureSearchTool] | None = None,
) -> ToolRegistry:
    """Build a registry from tool config entries; ``top_k``, when given, overrides every entry's.

    Each entry is an object with a string ``name`` and ``kind`` (fixture |
    web_search | dense_retriever), plus a string ``corpus`` or ``endpoint``
    by kind; see the README. A malformed entry, or a ``top_k`` that is not
    an integer of at least 1, is an InputError naming the tool.

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
            check_fields(entry, {"corpus": (str,)})
            path = Path(base_dir) / entry["corpus"]
            key = (path, options.get("top_k", DEFAULT_TOP_K))
            if key not in fixtures:
                fixtures[key] = FixtureSearchTool(corpus=load_corpus(path), **options)
            executor: Executor = fixtures[key]
            description = "Keyword search over a fixture corpus."
        elif kind in _CLIENTS:
            client, keys, description = _CLIENTS[kind]
            check_fields(entry, {"endpoint": (str,)})
            check_fields(entry, keys, optional=True)
            options.update((key, entry[key]) for key in keys if key in entry)
            if kind == "web_search" and entry.get("api_key_env"):
                options["api_key"] = os.environ.get(entry["api_key_env"])
            executor = client(tool_name=name, endpoint=entry["endpoint"], **options)
        else:
            raise InputError(f'unknown tool kind "{kind}" for tool "{name}"')
        registry.register(search_spec(name, entry.get("description", description)), executor)
    return registry
