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
    """One completion call: the full context plus decoding parameters, which ``RunConfig`` sets.

    ``system`` names the stage prompt that ``context`` begins with, as
    rendered there (trailing whitespace stripped), or is "" for none, so
    chat backends can send a proper system/user message pair.
    """

    context: str
    system: str
    max_output_tokens: int
    temperature: float


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
