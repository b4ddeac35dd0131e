"""Everything that sends HTTP: the retrying transport, both search adapters and the chat backend.

Nothing imports this module at package import time: ``tools.build_registry``
imports it for a ``web_search`` or ``dense_retriever`` entry, and the CLI
for ``--backend http``. Offline commands (replay, stats, export, scripted
or fixture eval) never load it.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import logging
import os
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Mapping

from .backend import Backend, BackendError, CompletionRequest
from .tools import DEFAULT_TOP_K, SURROGATE_RE, Document, Executor, ToolResult, ToolTransportError, check_fields

logger = logging.getLogger(__name__)

ENDPOINT_ENV = "DAGSEARCH_LLM_ENDPOINT"
MODEL_ENV = "DAGSEARCH_LLM_MODEL"
API_KEY_ENV = "DAGSEARCH_LLM_API_KEY"


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
    """
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


# ---------------------------------------------------------------------------
# Search adapters
# ---------------------------------------------------------------------------


def stable_source_id(tool_name: str, key: str) -> str:
    """``<tool>:<stable-hash>`` id for doc_extraction back-references."""
    digest = hashlib.sha1(key.encode("utf-8")).hexdigest()[:12]
    return f"{tool_name}:{digest}"


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


def _result_items(body: bytes, path: str, top_k: int, fields: tuple[str, ...]) -> list[list[str]]:
    """The ``fields`` of the first ``top_k`` result objects of the array at ``path`` in a JSON body, as strings.

    A field a result lacks reads as "". JSON can escape a lone surrogate,
    which no trajectory could save, so each one reads as U+FFFD.
    """
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
    return [[SURROGATE_RE.sub("\ufffd", str(item.get(name, ""))) for name in fields] for item in items]


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
        fields = (self.url_field, self.title_field, self.snippet_field)
        return ToolResult(
            documents=tuple(
                Document(source_id=stable_source_id(self.tool_name, url or title), title=title, text=text)
                for url, title, text in _result_items(response, self.results_path, self.top_k, fields)
            )
        )


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
        fields = (self.id_field, self.title_field, self.text_field)
        return ToolResult(
            documents=tuple(
                Document(source_id=stable_source_id(self.tool_name, doc_id), title=title, text=text)
                for doc_id, title, text in _result_items(response, self.results_path, self.top_k, fields)
            )
        )


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


def search_client(entry: Mapping[str, Any], options: dict[str, Any]) -> tuple[Executor, str]:
    """The client a ``web_search`` or ``dense_retriever`` tool entry configures, and its default description.

    ``options`` holds the settings ``build_registry`` has already read from
    the entry (``top_k``). A malformed entry is an InputError.
    """
    name, kind = entry["name"], entry["kind"]
    client, keys, description = _CLIENTS[kind]
    check_fields(entry, {"endpoint": (str,)})
    check_fields(entry, keys, optional=True)
    options.update((key, entry[key]) for key in keys if key in entry)
    if kind == "web_search" and entry.get("api_key_env"):
        options["api_key"] = os.environ.get(entry["api_key_env"])
    return client(tool_name=name, endpoint=entry["endpoint"], **options), description


# ---------------------------------------------------------------------------
# Chat backend
# ---------------------------------------------------------------------------


@dataclass
class HttpChatBackend(Backend):
    """OpenAI-compatible chat-completions client.

    Endpoint, model, and key default to the DAGSEARCH_LLM_* environment
    variables (OPENAI_API_KEY is honored as a key fallback). Transient
    transport failures are retried with exponential backoff; a 200 response
    whose body is not a chat completion raises BackendError at once.
    """

    endpoint: str = ""
    model: str = ""
    api_key: str | None = None
    timeout: float = 120.0
    max_retries: int = 3
    backoff: float = 0.5

    def __post_init__(self) -> None:
        self.endpoint = self.endpoint or os.environ.get(ENDPOINT_ENV, "")
        self.model = self.model or os.environ.get(MODEL_ENV, "")
        if self.api_key is None:
            self.api_key = os.environ.get(API_KEY_ENV) or os.environ.get("OPENAI_API_KEY")
        if not self.endpoint:
            raise ValueError(f"no chat endpoint configured (set {ENDPOINT_ENV})")

    def _messages(self, request: CompletionRequest) -> list[dict]:
        system = (request.system or "").rstrip()
        if system and request.context.startswith(system):
            user = request.context[len(system):].lstrip("\n")
            return [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ]
        return [{"role": "user", "content": request.context}]

    def complete(self, request: CompletionRequest) -> str:
        payload = {
            "model": self.model,
            "messages": self._messages(request),
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }
        headers = {}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        response = _request_with_retries(
            "POST",
            self.endpoint,
            max_retries=self.max_retries,
            backoff=self.backoff,
            timeout=self.timeout,
            error=BackendError,
            body=payload,
            headers=headers,
        )
        try:
            content = json.loads(response)["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError) as exc:
            raise BackendError(f"chat endpoint answered a malformed body: {exc!r}") from None
        if not isinstance(content, str):
            raise BackendError(f"chat endpoint answered non-text content: {content!r}")
        return content
