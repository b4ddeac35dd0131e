"""LLM completion backends: the ``Backend`` interface and its deterministic doubles.

The scripted and replay backends make every end-to-end test reproducible
bit-for-bit. The production HTTP chat backend is ``remote.HttpChatBackend``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


class BackendError(Exception):
    pass


@dataclass(frozen=True)
class CompletionRequest:
    """One completion call: the model input as its lines plus decoding parameters, which ``RunConfig`` sets.

    The first ``system_lines`` lines are the stage prompt's ``prompt_lines``,
    where ``chat_messages`` splits the input into a system/user pair.
    """

    lines: tuple[str, ...]
    system_lines: int
    max_output_tokens: int
    temperature: float


def chat_messages(request: CompletionRequest) -> list[dict]:
    """The stage prompt as the system message and the rest, leading newlines stripped, as the user message.

    With no prompt text, one user message holds the whole input.
    """
    system = "\n".join(request.lines[: request.system_lines])
    if not system:
        return [{"role": "user", "content": "\n".join(request.lines)}]
    user = "\n".join(request.lines[request.system_lines :]).lstrip("\n")
    return [{"role": "system", "content": system}, {"role": "user", "content": user}]


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
