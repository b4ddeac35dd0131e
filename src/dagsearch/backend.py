"""LLM completion backends: production HTTP chat plus deterministic doubles.

The scripted and replay backends make every end-to-end test reproducible
bit-for-bit; the HTTP backend speaks the OpenAI-compatible chat wire format
with retries and backoff.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Sequence

from .tools import _request_with_retries

ENDPOINT_ENV = "DAGSEARCH_LLM_ENDPOINT"
MODEL_ENV = "DAGSEARCH_LLM_MODEL"
API_KEY_ENV = "DAGSEARCH_LLM_API_KEY"


class BackendError(Exception):
    pass


@dataclass(frozen=True)
class CompletionRequest:
    """One completion call: the full context plus decoding parameters.

    ``system`` optionally names the stage prompt that ``context`` begins
    with, as rendered there (trailing whitespace stripped), so chat backends
    can send a proper system/user message pair.
    """

    context: str
    system: str | None = None
    max_output_tokens: int = 1024
    temperature: float = 0.0


class Backend:
    """Completion interface; per-run calls are sequential."""

    def complete(self, request: CompletionRequest) -> str:
        raise NotImplementedError


@dataclass
class ScriptedBackend(Backend):
    """Returns canned responses in order and fails loudly when exhausted."""

    responses: Sequence[str]
    served: int = 0

    def complete(self, request: CompletionRequest) -> str:
        if self.served >= len(self.responses):
            raise BackendError(f"scripted backend exhausted after {self.served} responses")
        response = self.responses[self.served]
        self.served += 1
        return response


@dataclass
class ReplayBackend(Backend):
    """Re-serves a recording's model outputs in order, whatever the request.

    Whether the replay matches its recording is ``engine.replay_divergence``'s
    to decide, after the run.
    """

    outputs: Sequence[str]
    served: int = 0

    def complete(self, request: CompletionRequest) -> str:
        if self.served >= len(self.outputs):
            raise BackendError(f"replay exhausted after {self.served} recorded steps")
        self.served += 1
        return self.outputs[self.served - 1]


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
