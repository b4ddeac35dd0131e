"""Tool registry and clients: fixture search, web search, and dense retrieval.

Every executor returns a normalized ToolResult regardless of the upstream
wire shape, so the engine and register never see provider-specific payloads.
Fixture tools make the whole engine runnable offline.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import requests

logger = logging.getLogger(__name__)

DEFAULT_TOP_K = 3


class ToolError(Exception):
    """Base for tool failures; ``str(err)`` is a re-prompt-ready diagnostic."""

    @property
    def diagnostic(self) -> str:
        return str(self)


class DuplicateTool(ToolError):
    pass


class UnknownTool(ToolError):
    pass


class ArgumentSchemaViolation(ToolError):
    pass


class ToolTransportError(ToolError):
    pass


@dataclass(frozen=True)
class Document:
    source_id: str
    title: str
    text: str

    def to_dict(self) -> dict:
        return {"source_id": self.source_id, "title": self.title, "text": self.text}


@dataclass(frozen=True)
class ToolResult:
    """Normalized tool output: ranked documents plus optional raw payload."""

    documents: tuple[Document, ...] = ()
    raw: Any = None

    def to_dict(self) -> dict:
        return {"documents": [doc.to_dict() for doc in self.documents], "raw": self.raw}

    @classmethod
    def from_dict(cls, data: dict) -> "ToolResult":
        return cls(
            documents=tuple(Document(**doc) for doc in data["documents"]),
            raw=data.get("raw"),
        )


@dataclass(frozen=True)
class ToolSpec:
    tool_name: str
    description: str
    argument_schema: Mapping[str, dict]


_SCHEMA_TYPES = {
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "array": list,
    "object": dict,
}


def validate_arguments(spec: ToolSpec, arguments: Mapping[str, Any]) -> None:
    """Check required keys and primitive types against the spec schema."""
    for name, rule in spec.argument_schema.items():
        if rule.get("required", False) and name not in arguments:
            raise ArgumentSchemaViolation(
                f'tool "{spec.tool_name}" requires argument "{name}"'
            )
    for name, value in arguments.items():
        rule = spec.argument_schema.get(name)
        if rule is None:
            raise ArgumentSchemaViolation(
                f'tool "{spec.tool_name}" does not accept argument "{name}"'
            )
        expected = _SCHEMA_TYPES.get(rule.get("type", "string"))
        if expected is not None and not isinstance(value, expected):
            raise ArgumentSchemaViolation(
                f'tool "{spec.tool_name}" argument "{name}" must be of type {rule.get("type")}'
            )


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
    """Read a JSONL corpus of {source_id, title, text} records."""
    docs = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            docs.append(
                Document(
                    source_id=record["source_id"],
                    title=record["title"],
                    text=record["text"],
                )
            )
    return docs


@dataclass
class FixtureSearchTool:
    """Deterministic keyword search over an in-memory corpus.

    Scores by case-insensitive query-token overlap; ties break on source_id
    so identical queries always return identical rankings.
    """

    corpus: Sequence[Document]
    top_k: int = DEFAULT_TOP_K

    def __call__(self, arguments: Mapping[str, Any]) -> ToolResult:
        query_tokens = {tok for tok in str(arguments["query"]).lower().split() if tok}
        scored = []
        for doc in self.corpus:
            doc_tokens = set(f"{doc.title} {doc.text}".lower().split())
            scored.append((-len(query_tokens & doc_tokens), doc.source_id, doc))
        scored.sort(key=lambda item: (item[0], item[1]))
        return ToolResult(documents=tuple(doc for _, _, doc in scored[: self.top_k]))


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
    **kwargs: Any,
) -> requests.Response:
    last_error: Exception | None = None
    for attempt in range(max_retries + 1):
        try:
            response = requests.request(method, url, **kwargs)
            if response.status_code in (429,) or response.status_code >= 500:
                raise ToolTransportError(
                    f"{url} answered HTTP {response.status_code}"
                )
            response.raise_for_status()
            return response
        except (requests.RequestException, ToolTransportError) as exc:
            last_error = exc
            if attempt < max_retries:
                time.sleep(backoff * (2**attempt))
    raise ToolTransportError(f"request to {url} failed after {max_retries + 1} attempts: {last_error}")


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


def _result_items(response: requests.Response, path: str, top_k: int) -> list[dict]:
    """The first ``top_k`` result objects of the array at ``path`` in a JSON body."""
    try:
        payload = response.json()
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
        kwargs: dict[str, Any] = {"timeout": self.timeout, "headers": headers}
        if self.method.upper() == "POST":
            kwargs["json"] = params
        else:
            kwargs["params"] = params
        response = _request_with_retries(
            self.method.upper(),
            self.endpoint,
            max_retries=self.max_retries,
            backoff=self.backoff,
            **kwargs,
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
            json=body,
            timeout=self.timeout,
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

SEARCH_ARGUMENT_SCHEMA = {"query": {"type": "string", "required": True}}


def search_spec(tool_name: str, description: str) -> ToolSpec:
    return ToolSpec(
        tool_name=tool_name,
        description=description,
        argument_schema=SEARCH_ARGUMENT_SCHEMA,
    )


def build_registry(config: Sequence[Mapping[str, Any]], base_dir: str | Path = ".") -> ToolRegistry:
    """Build a registry from tool config entries.

    Each entry needs ``name`` and ``kind`` (fixture | web_search |
    dense_retriever) plus kind-specific fields; see the README for the file
    format.
    """
    import os

    registry = ToolRegistry()
    for entry in config:
        name = entry["name"]
        kind = entry["kind"]
        top_k = int(entry.get("top_k", DEFAULT_TOP_K))
        if kind == "fixture":
            corpus_path = Path(base_dir) / entry["corpus"]
            executor: Executor = FixtureSearchTool(corpus=load_corpus(corpus_path), top_k=top_k)
            description = entry.get("description", "Keyword search over a fixture corpus.")
        elif kind == "web_search":
            api_key = os.environ.get(entry["api_key_env"]) if entry.get("api_key_env") else None
            executor = WebSearchClient(
                tool_name=name,
                endpoint=entry["endpoint"],
                top_k=top_k,
                method=entry.get("method", "GET"),
                query_param=entry.get("query_param", "q"),
                extra_params=entry.get("extra_params", {}),
                results_path=entry.get("results_path", "results"),
                title_field=entry.get("title_field", "title"),
                url_field=entry.get("url_field", "url"),
                snippet_field=entry.get("snippet_field", "snippet"),
                api_key=api_key,
                api_key_param=entry.get("api_key_param"),
                api_key_header=entry.get("api_key_header"),
            )
            description = entry.get("description", "Web search returning ranked snippets.")
        elif kind == "dense_retriever":
            executor = DenseRetrieverClient(
                tool_name=name,
                endpoint=entry["endpoint"],
                top_k=top_k,
                query_field=entry.get("query_field", "query"),
                top_k_field=entry.get("top_k_field", "top_k"),
                results_path=entry.get("results_path", "passages"),
                id_field=entry.get("id_field", "id"),
                title_field=entry.get("title_field", "title"),
                text_field=entry.get("text_field", "text"),
            )
            description = entry.get("description", "Dense passage retrieval over a local index.")
        else:
            raise ValueError(f'unknown tool kind "{kind}" for tool "{name}"')
        registry.register(search_spec(name, description), executor)
    return registry
