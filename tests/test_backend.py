import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from dagsearch.backend import BackendError, ReplayBackend, ScriptedBackend
from dagsearch.engine import run
from dagsearch.remote import HttpChatBackend
from dagsearch.tools import ToolRegistry
from helpers import completion, fixed_clock

pytestmark = pytest.mark.usefixtures("sleeps")


@pytest.fixture
def chat_stub(monkeypatch):
    """Local OpenAI-compatible stub; scriptable status codes and replies.

    ``body``, when set, is sent as the 200 response's JSON in place of a
    chat completion carrying ``content``. The DAGSEARCH_LLM_* variables
    point the chat backend at it, with model "test-model" and key "sk-test".
    """

    state = {"requests": [], "fail_next": 0, "content": '<final_answer>{"answer":"ok"}</final_answer>', "body": None}

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
            reply = {"choices": [{"message": {"role": "assistant", "content": state["content"]}}]}
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
        # the register renders a stage prompt without its trailing whitespace
        for system in ("SYSTEM PROMPT", "SYSTEM PROMPT \n", "SYSTEM PROMPT\n\n\n"):
            backend.complete(completion("SYSTEM PROMPT\n\nuser part", system))
        for request in chat_stub["requests"]:
            messages = request["body"]["messages"]
            assert [m["role"] for m in messages] == ["system", "user"]
            assert messages[0]["content"] == "SYSTEM PROMPT"
            assert messages[1]["content"] == "user part"

    def test_single_user_message_without_system(self, chat_stub):
        HttpChatBackend().complete(completion("plain context"))
        messages = chat_stub["requests"][0]["body"]["messages"]
        assert [m["role"] for m in messages] == ["user"]

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
