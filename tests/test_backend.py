import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from dagsearch.backend import BackendError, ReplayBackend, ScriptedBackend
from dagsearch.engine import PromptPack, run
from dagsearch.remote import HttpChatBackend
from dagsearch.tools import ToolRegistry, build_registry
from helpers import DATA_DIR, TWO_HOP_QUESTION, completion, fixed_clock, two_hop_responses

pytestmark = pytest.mark.usefixtures("sleeps")


@pytest.fixture
def chat_stub(monkeypatch):
    """Local OpenAI-compatible stub; scriptable status codes and replies.

    A 200 response is a chat completion carrying the next of ``replies``,
    served in order, or ``content`` once they are spent. ``body``, when
    set, is sent as its JSON instead. The DAGSEARCH_LLM_* variables point
    the chat backend at it, with model "test-model" and key "sk-test".
    """

    content = '<final_answer>{"answer":"ok"}</final_answer>'
    state = {"requests": [], "fail_next": 0, "replies": [], "content": content, "body": None}

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length))
            state["requests"].append({"path": self.path, "body": body, "headers": dict(self.headers)})
            if state["fail_next"] > 0:
                state["fail_next"] -= 1
                self.send_response(503)
                self.end_headers()
                return
            content = state["replies"].pop(0) if state["replies"] else state["content"]
            reply = {"choices": [{"message": {"role": "assistant", "content": content}}]}
            if state["body"] is not None:
                reply = state["body"]
            payload = json.dumps(reply).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    # A short poll keeps shutdown() from waiting out the default 0.5 s.
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    state["url"] = f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    monkeypatch.setenv("DAGSEARCH_LLM_ENDPOINT", state["url"])
    monkeypatch.setenv("DAGSEARCH_LLM_MODEL", "test-model")
    monkeypatch.setenv("DAGSEARCH_LLM_API_KEY", "sk-test")
    yield state
    server.shutdown()
    server.server_close()
    thread.join(timeout=2)


class TestScripted:
    def test_serves_in_order_then_fails_loudly(self):
        backend = ScriptedBackend(responses=["r1", "r2"])
        request = completion("ctx")
        assert backend.complete(request) == "r1"
        assert backend.complete(request) == "r2"
        with pytest.raises(BackendError, match="^scripted backend exhausted after 2 responses$"):
            backend.complete(request)


class TestReplay:
    def test_returns_recorded_output(self):
        # Outputs come in recorded order whatever the request holds; whether
        # the replay matches its recording is engine.replay_divergence's call.
        backend = ReplayBackend(outputs=["out1", "out2"])
        assert backend.complete(completion("anything")) == "out1"
        assert backend.complete(completion("ctx2")) == "out2"
        with pytest.raises(BackendError, match="^replay exhausted after 2 recorded steps$"):
            backend.complete(completion("ctx3"))
        assert backend.served == 2


class TestHttpChat:
    def test_end_to_end_parses_reply(self, chat_stub):
        out = HttpChatBackend().complete(completion("hello"))
        assert out == '<final_answer>{"answer":"ok"}</final_answer>'
        body = chat_stub["requests"][0]["body"]
        assert body["model"] == "test-model"
        assert (body["temperature"], body["max_tokens"]) == (0.0, 1024)
        assert chat_stub["requests"][0]["headers"]["Authorization"] == "Bearer sk-test"

    def test_system_user_split(self, chat_stub):
        backend = HttpChatBackend()
        # the prompt's lines, however many, are the system message; the
        # user message starts after the blank lines that follow them
        for text, system_lines in (("SYSTEM PROMPT\n\nuser part", 1), ("SYSTEM\nPROMPT\n\n\nuser\npart", 2)):
            backend.complete(completion(text, system_lines))
        assert [request["body"]["messages"] for request in chat_stub["requests"]] == [
            [{"role": "system", "content": "SYSTEM PROMPT"}, {"role": "user", "content": "user part"}],
            [{"role": "system", "content": "SYSTEM\nPROMPT"}, {"role": "user", "content": "user\npart"}],
        ]

    def test_single_user_message_without_system(self, chat_stub):
        backend = HttpChatBackend()
        # no prompt lines, or an empty prompt, whose one line is empty
        for text, system_lines in (("plain context", 0), ("\n\n## Question\nq", 1)):
            backend.complete(completion(text, system_lines))
        assert [request["body"]["messages"] for request in chat_stub["requests"]] == [
            [{"role": "user", "content": "plain context"}],
            [{"role": "user", "content": "\n\n## Question\nq"}],
        ]

    def test_a_whole_run_sends_each_recorded_input_as_its_stage_prompt_and_the_rest(self, chat_stub):
        replies = two_hop_responses()
        replies.insert(3, "no block here")  # the second solving turn is re-prompted once
        chat_stub["replies"] = replies
        tools = json.loads((DATA_DIR / "tools.json").read_text(encoding="utf-8"))["tools"]
        prompts = PromptPack.load_default()
        result = run(
            TWO_HOP_QUESTION,
            backend=HttpChatBackend(),
            tools=build_registry(tools, base_dir=DATA_DIR),
            prompts=prompts,
            clock=fixed_clock(),
        )
        assert result.outcome == "answered"
        steps = result.trajectory.steps
        assert [step.retries for step in steps] == [0, 0, 0, 1] + [0] * (len(steps) - 4)
        stage_prompts = {"planning": prompts.holistic, "solving": prompts.solving}
        requests = iter(chat_stub["requests"])
        for step in steps:
            system = {"role": "system", "content": stage_prompts[step.stage].rstrip()}
            attempts = [next(requests)["body"]["messages"] for _ in range(step.retries + 1)]
            assert all(messages[0] == system and messages[1]["role"] == "user" for messages in attempts)
            first = attempts[0][1]["content"]
            if step.retries == 0:
                assert f"{system['content']}\n\n{first}" == step.state
            # a re-prompt's user message is the first one with the correction block appended
            for diagnostic, (_, user) in zip(step.diagnostics, attempts[1:]):
                assert user["content"] == (
                    f"{first}\n\n## Correction\nYour previous response was rejected: {diagnostic}\n"
                    "Emit exactly one corrected action block now."
                )
        assert next(requests, None) is None

    def test_retries_transient_failures(self, chat_stub, sleeps):
        chat_stub["fail_next"] = 2
        assert HttpChatBackend().complete(completion("x")).startswith("<final_answer>")
        assert len(chat_stub["requests"]) == 3
        assert sleeps == [0.5, 1.0]

    def test_transport_error_after_retry_budget(self, chat_stub, sleeps):
        chat_stub["fail_next"] = 10
        with pytest.raises(BackendError, match=r"^request to (\S+) failed after 4 attempts: \1 answered HTTP 503$"):
            HttpChatBackend().complete(completion("x"))
        assert len(chat_stub["requests"]) == 4
        assert sleeps == [0.5, 1.0, 2.0]

    @pytest.mark.parametrize(
        "body",
        [{"choices": []}, [{"choices": []}], {"choices": [{"message": {"role": "assistant", "content": None}}]}],
        ids=["no-choices", "array", "null-content"],
    )
    def test_malformed_body_is_transport_error_without_retry(self, chat_stub, sleeps, body):
        chat_stub["body"] = body
        with pytest.raises(BackendError, match="^chat endpoint answered (a malformed body|non-text content): "):
            HttpChatBackend().complete(completion("x"))
        assert len(chat_stub["requests"]) == 1
        assert sleeps == []

    def test_malformed_body_aborts_the_run(self, chat_stub):
        chat_stub["body"] = {"choices": []}
        result = run("q?", backend=HttpChatBackend(), tools=ToolRegistry(), clock=fixed_clock())
        assert result.outcome == "aborted"
        assert result.error.startswith("BackendError: chat endpoint answered a malformed body")

    def test_missing_endpoint_is_configuration_error(self, monkeypatch):
        monkeypatch.delenv("DAGSEARCH_LLM_ENDPOINT", raising=False)
        with pytest.raises(ValueError, match=r"^no chat endpoint configured \(set DAGSEARCH_LLM_ENDPOINT\)$"):
            HttpChatBackend()

    def test_env_configuration(self, monkeypatch, chat_stub):
        monkeypatch.setenv("DAGSEARCH_LLM_MODEL", "env-model")
        monkeypatch.setenv("DAGSEARCH_LLM_API_KEY", "env-key")
        HttpChatBackend().complete(completion("x"))
        assert chat_stub["requests"][0]["body"]["model"] == "env-model"
        assert chat_stub["requests"][0]["headers"]["Authorization"] == "Bearer env-key"

    @pytest.mark.parametrize("key", [None, ""], ids=["unset", "empty"])
    def test_openai_api_key_is_the_key_fallback(self, monkeypatch, chat_stub, key):
        if key is None:
            monkeypatch.delenv("DAGSEARCH_LLM_API_KEY")
        else:
            monkeypatch.setenv("DAGSEARCH_LLM_API_KEY", key)
        monkeypatch.setenv("OPENAI_API_KEY", "openai-key")
        HttpChatBackend().complete(completion("x"))
        assert chat_stub["requests"][0]["headers"]["Authorization"] == "Bearer openai-key"

    def test_no_key_sends_no_authorization(self, monkeypatch, chat_stub):
        monkeypatch.delenv("DAGSEARCH_LLM_API_KEY")
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        HttpChatBackend().complete(completion("x"))
        assert "Authorization" not in chat_stub["requests"][0]["headers"]
