"""Everything that sends HTTP: the retrying transport, the search client and the chat backend.

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

from .backend import Backend, BackendError, CompletionRequest, chat_messages
from .protocol import SURROGATE_RE
from .tools import DEFAULT_TOP_K, Document, Executor, ToolResult, ToolTransportError
from .tools import InputError, check_fields, check_tool_keys

logger = logging.getLogger(__name__)

ENDPOINT_ENV = "DAGSEARCH_LLM_ENDPOINT"
MODEL_ENV = "DAGSEARCH_LLM_MODEL"
API_KEY_ENV = "DAGSEARCH_LLM_API_KEY"
# The transport policy of every request: a transient failure is retried
# MAX_RETRIES times, after waits of BACKOFF_S seconds, doubling each time.
# A search socket times out after SEARCH_TIMEOUT_S, a chat one after CHAT_TIMEOUT_S.
MAX_RETRIES = 3
BACKOFF_S = 0.5
SEARCH_TIMEOUT_S = 15.0
CHAT_TIMEOUT_S = 120.0


def _request_with_retries(
    method: str,
    url: str,
    *,
    timeout: float,
    error: type[Exception] = ToolTransportError,
    params: Mapping[str, Any] | None = None,
    body: Any = None,
    headers: Mapping[str, str] | None = None,
) -> bytes:
    """Send a request and return the response body, retrying transient failures.

    ``params`` go in the query string; ``body`` is sent as JSON. Connection
    errors, timeouts, HTTP 429 and 5xx are logged and retried with
    exponential backoff until ``MAX_RETRIES`` are spent; any other failure,
    a bad URL included, raises ``error`` at once.
    """
    if params:
        url = f"{url}{'&' if '?' in url else '?'}{urllib.parse.urlencode(params)}"
    headers = dict(headers or {})
    data = None
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        headers.setdefault("Content-Type", "application/json")
    last_error: Exception | None = None
    for attempt in range(MAX_RETRIES + 1):
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
        logger.warning("request attempt %d/%d failed: %s", attempt + 1, MAX_RETRIES + 1, last_error)
        if attempt < MAX_RETRIES:
            time.sleep(BACKOFF_S * (2**attempt))
    raise error(f"request to {url} failed after {MAX_RETRIES + 1} attempts: {last_error}")


# ---------------------------------------------------------------------------
# Search adapters
# ---------------------------------------------------------------------------


def stable_source_id(tool_name: str, key: str) -> str:
    """``<tool>:<stable-hash>`` id for doc_extraction back-references."""
    digest = hashlib.sha1(key.encode("utf-8")).hexdigest()[:12]
    return f"{tool_name}:{digest}"


def _dig(payload: Any, path: str) -> Any:
    """Follow a dotted path through nested dicts; '' returns the payload."""
    for part in path.split(".") if path else ():
        if not isinstance(payload, dict) or part not in payload:
            raise ToolTransportError(f'response is missing field "{path}"')
        payload = payload[part]
    return payload


def _text(value: Any) -> str:
    """A result field as text: a string as itself, a number (not true/false) as ``str()`` of it, anything else as "".

    JSON can escape a lone surrogate, which no trajectory could save, so
    each one in a string reads as U+FFFD.
    """
    if type(value) is str:
        return SURROGATE_RE.sub("\ufffd", value)
    return str(value) if type(value) in (int, float) else ""


def _result_items(body: bytes, path: str, top_k: int, fields: tuple[str, ...]) -> list[list[str]]:
    """The ``fields``, read by ``_text``, of the first ``top_k`` objects of the array at ``path`` in a JSON body."""
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
    return [[_text(item.get(name)) for name in fields] for item in items]


@dataclass(kw_only=True)
class SearchClient:
    """A "query -> ranked documents" client for a JSON search API, its wire format set by a ``_KINDS`` entry.

    It sends ``extra_params``, the query, ``top_k`` when ``top_k_key`` is
    set, and the api key unless a header carries it: as URL parameters for
    a GET, as a JSON body for a POST. Each document's id hashes the first
    non-empty one of its id, title and text.
    """

    tool_name: str
    endpoint: str
    top_k: int = DEFAULT_TOP_K
    method: str
    query_key: str
    top_k_key: str | None
    extra_params: Mapping[str, str] = field(default_factory=dict)
    results_path: str
    id_field: str
    title_field: str
    text_field: str
    api_key: str | None = None
    api_key_param: str | None = None
    api_key_header: str | None = None

    def __call__(self, arguments: Mapping[str, Any]) -> ToolResult:
        params: dict[str, Any] = {**self.extra_params, self.query_key: str(arguments["query"])}
        if self.top_k_key is not None:
            params[self.top_k_key] = self.top_k
        headers = {}
        if self.api_key:
            if self.api_key_header:
                headers[self.api_key_header] = self.api_key
            else:
                params[self.api_key_param or "api_key"] = self.api_key
        post = self.method == "POST"
        response = _request_with_retries(
            self.method,
            self.endpoint,
            timeout=SEARCH_TIMEOUT_S,
            params=None if post else params,
            body=params if post else None,
            headers=headers,
        )
        fields = (self.id_field, self.title_field, self.text_field)
        return ToolResult(
            documents=tuple(
                Document(source_id=stable_source_id(self.tool_name, doc_id or title or text), title=title, text=text)
                for doc_id, title, text in _result_items(response, self.results_path, self.top_k, fields)
            )
        )


# Per HTTP tool kind: each config key an entry may set, with its JSON types
# and the client field it sets (``api_key_env`` names the environment
# variable that holds ``api_key``); the kind's default for each wire field;
# and its default description.
_KINDS: dict[str, tuple[dict[str, tuple[tuple[type, ...], str]], dict[str, Any], str]] = {
    "web_search": (
        {
            "method": ((str,), "method"),
            "query_param": ((str,), "query_key"),
            "extra_params": ((dict,), "extra_params"),
            "results_path": ((str,), "results_path"),
            "url_field": ((str,), "id_field"),
            "title_field": ((str,), "title_field"),
            "snippet_field": ((str,), "text_field"),
            "api_key_param": ((str,), "api_key_param"),
            "api_key_header": ((str,), "api_key_header"),
            "api_key_env": ((str,), "api_key"),
        },
        dict(method="GET", query_key="q", top_k_key=None, results_path="results", id_field="url")
        | dict(title_field="title", text_field="snippet"),
        "Web search returning ranked snippets.",
    ),
    "dense_retriever": (
        {
            "query_field": ((str,), "query_key"),
            "top_k_field": ((str,), "top_k_key"),
            "results_path": ((str,), "results_path"),
            "id_field": ((str,), "id_field"),
            "title_field": ((str,), "title_field"),
            "text_field": ((str,), "text_field"),
        },
        dict(method="POST", query_key="query", top_k_key="top_k", results_path="passages", id_field="id")
        | dict(title_field="title", text_field="text"),
        "Dense passage retrieval over a local index.",
    ),
}


def search_client(entry: Mapping[str, Any], options: dict[str, Any]) -> tuple[Executor, str]:
    """The client a ``web_search`` or ``dense_retriever`` tool entry configures, and its default description.

    ``options`` holds the settings ``build_registry`` has already read from
    the entry (``top_k``). A malformed entry, an unknown key, a method
    other than GET or POST in any case (stored upper-cased), or an
    ``api_key_env`` naming an unset or empty variable, is an InputError.
    """
    keys, defaults, description = _KINDS[entry["kind"]]
    check_tool_keys(entry, {"endpoint", *keys})
    check_fields(entry, {"endpoint": (str,)})
    check_fields(entry, {key: types for key, (types, _) in keys.items()}, optional=True)
    options.update(defaults)
    for key, (_, name) in keys.items():
        if key in entry:
            options[name] = os.environ.get(entry[key]) if key == "api_key_env" else entry[key]
    options["method"] = options["method"].upper()
    if options["method"] not in ("GET", "POST"):
        raise InputError(f'tool "{entry["name"]}" has method "{entry["method"]}", which is neither GET nor POST')
    if "api_key_env" in entry and not options["api_key"]:
        variable = entry["api_key_env"]
        raise InputError(f'tool "{entry["name"]}" reads its API key from {variable}, which is unset or empty')
    return SearchClient(tool_name=entry["name"], endpoint=entry["endpoint"], **options), description


# ---------------------------------------------------------------------------
# Chat backend
# ---------------------------------------------------------------------------


class HttpChatBackend(Backend):
    """OpenAI-compatible chat-completions client.

    Endpoint, model, and key come only from the DAGSEARCH_LLM_* environment
    variables (OPENAI_API_KEY is honored as a key fallback). Transient
    transport failures are retried with exponential backoff; a 200 response
    whose body is not a chat completion raises BackendError at once.
    """

    def __init__(self) -> None:
        self.endpoint = os.environ.get(ENDPOINT_ENV, "")
        self.model = os.environ.get(MODEL_ENV, "")
        self.api_key = os.environ.get(API_KEY_ENV) or os.environ.get("OPENAI_API_KEY")
        if not self.endpoint:
            raise ValueError(f"no chat endpoint configured (set {ENDPOINT_ENV})")

    def complete(self, request: CompletionRequest) -> str:
        payload = {
            "model": self.model,
            "messages": chat_messages(request),
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }
        headers = {}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        response = _request_with_retries(
            "POST",
            self.endpoint,
            timeout=CHAT_TIMEOUT_S,
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
