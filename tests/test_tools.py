import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from dagsearch.tools import (
    ArgumentSchemaViolation,
    DenseRetrieverClient,
    Document,
    DuplicateTool,
    FixtureSearchTool,
    ToolRegistry,
    ToolResult,
    ToolTransportError,
    UnknownTool,
    WebSearchClient,
    build_registry,
    load_corpus,
    search_spec,
    stable_source_id,
)
from helpers import DATA_DIR


@pytest.fixture
def registry():
    reg = ToolRegistry()
    reg.register(
        search_spec("search", "fixture search"),
        FixtureSearchTool(corpus=load_corpus(DATA_DIR / "corpus.jsonl"), top_k=3),
    )
    return reg


@pytest.fixture
def json_stub():
    """Tiny HTTP stub serving a configurable JSON payload, or raw body bytes."""

    state = {"payload": {}, "raw": None, "fail_next": 0, "requests": []}

    class Handler(BaseHTTPRequestHandler):
        def _serve(self):
            length = int(self.headers.get("Content-Length", 0) or 0)
            raw = self.rfile.read(length) if length else b""
            state["requests"].append(
                {"path": self.path, "body": json.loads(raw) if raw else None}
            )
            if state["fail_next"] > 0:
                state["fail_next"] -= 1
                self.send_response(500)
                self.end_headers()
                return
            payload = state["raw"]
            if payload is None:
                payload = json.dumps(state["payload"]).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        do_GET = _serve
        do_POST = _serve

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    state["url"] = f"http://127.0.0.1:{server.server_port}/search"
    yield state
    server.shutdown()
    thread.join(timeout=2)


class TestRegistry:
    def test_duplicate_registration(self, registry):
        with pytest.raises(DuplicateTool):
            registry.register(search_spec("search", "again"), lambda args: ToolResult())

    def test_unknown_tool(self, registry):
        with pytest.raises(UnknownTool):
            registry.invoke("crawler", {"query": "x"})

    def test_missing_required_argument(self, registry):
        with pytest.raises(ArgumentSchemaViolation):
            registry.invoke("search", {})

    def test_unexpected_argument(self, registry):
        with pytest.raises(ArgumentSchemaViolation):
            registry.invoke("search", {"query": "x", "depth": 2})

    def test_wrong_argument_type(self, registry):
        with pytest.raises(ArgumentSchemaViolation):
            registry.invoke("search", {"query": 42})

    def test_empty_result_is_legal_and_logged(self, caplog):
        reg = ToolRegistry()
        reg.register(search_spec("void", "returns nothing"), lambda args: ToolResult())
        with caplog.at_level(logging.WARNING):
            result = reg.invoke("void", {"query": "x"})
        assert result.documents == ()
        assert any("no documents" in rec.message for rec in caplog.records)


class TestFixtureSearch:
    def test_returns_exactly_top_k_with_stable_ids(self, registry):
        result = registry.invoke("search", {"query": "capital of France"})
        assert len(result.documents) == 3
        again = registry.invoke("search", {"query": "capital of France"})
        assert [d.source_id for d in result.documents] == [d.source_id for d in again.documents]

    def test_relevant_documents_rank(self, registry):
        result = registry.invoke(
            "search", {"query": "inventor of the World Wide Web university degree"}
        )
        ids = {doc.source_id for doc in result.documents}
        assert "fix:www" in ids
        assert "fix:tbl" in ids

    def test_corpus_loader(self):
        docs = load_corpus(DATA_DIR / "corpus.jsonl")
        assert len(docs) == 6
        assert all(isinstance(doc, Document) for doc in docs)


class TestStableSourceIds:
    def test_format_and_stability(self):
        a = stable_source_id("web", "https://example.org/page")
        b = stable_source_id("web", "https://example.org/page")
        assert a == b
        assert a.startswith("web:")
        assert len(a.split(":")[1]) == 12

    def test_distinct_keys_distinct_ids(self):
        assert stable_source_id("web", "u1") != stable_source_id("web", "u2")


class TestWebSearchClient:
    def test_config_mapped_fields(self, json_stub):
        json_stub["payload"] = {
            "organic": [
                {"name": f"Result {i}", "link": f"https://example.org/{i}", "blurb": f"snippet {i}"}
                for i in range(5)
            ]
        }
        client = WebSearchClient(
            tool_name="web",
            endpoint=json_stub["url"],
            top_k=3,
            results_path="organic",
            title_field="name",
            url_field="link",
            snippet_field="blurb",
            backoff=0.01,
        )
        result = client({"query": "anything"})
        assert len(result.documents) == 3
        assert result.documents[0].title == "Result 0"
        assert result.documents[0].text == "snippet 0"
        assert result.documents[0].source_id == stable_source_id("web", "https://example.org/0")

    def test_missing_query_argument_rejected_by_registry(self, json_stub):
        reg = ToolRegistry()
        reg.register(
            search_spec("web", "web search"),
            WebSearchClient(tool_name="web", endpoint=json_stub["url"], backoff=0.01),
        )
        with pytest.raises(ArgumentSchemaViolation):
            reg.invoke("web", {})

    def test_transport_error_after_retries(self, json_stub):
        json_stub["fail_next"] = 10
        client = WebSearchClient(
            tool_name="web", endpoint=json_stub["url"], max_retries=1, backoff=0.01
        )
        with pytest.raises(ToolTransportError):
            client({"query": "x"})
        assert len(json_stub["requests"]) == 2

    def test_api_key_in_header(self, json_stub):
        json_stub["payload"] = {"results": []}
        client = WebSearchClient(
            tool_name="web",
            endpoint=json_stub["url"],
            api_key="secret",
            api_key_header="X-API-Key",
            backoff=0.01,
        )
        client({"query": "x"})


class TestDenseRetrieverClient:
    def test_top_k_passages_scores_non_increasing(self, json_stub):
        json_stub["payload"] = {
            "passages": [
                {"id": "p1", "title": "P1", "text": "first passage", "score": 0.9},
                {"id": "p2", "title": "P2", "text": "second passage", "score": 0.7},
                {"id": "p3", "title": "P3", "text": "third passage", "score": 0.4},
                {"id": "p4", "title": "P4", "text": "fourth passage", "score": 0.2},
            ]
        }
        client = DenseRetrieverClient(tool_name="dense", endpoint=json_stub["url"], top_k=3, backoff=0.01)
        result = client({"query": "passage"})
        assert len(result.documents) == 3
        # the client preserves the service's own ranking
        served = json_stub["payload"]["passages"]
        scores = [entry["score"] for entry in served[:3]]
        assert scores == sorted(scores, reverse=True)
        assert [d.title for d in result.documents] == ["P1", "P2", "P3"]
        body = json_stub["requests"][0]["body"]
        assert body == {"query": "passage", "top_k": 3}

    def test_missing_results_field(self, json_stub):
        json_stub["payload"] = {"unexpected": []}
        client = DenseRetrieverClient(tool_name="dense", endpoint=json_stub["url"], backoff=0.01, max_retries=0)
        with pytest.raises(ToolTransportError):
            client({"query": "x"})


def web_client(url):
    return WebSearchClient(tool_name="web", endpoint=url, max_retries=0, backoff=0.01)


def dense_client(url):
    return DenseRetrieverClient(tool_name="dense", endpoint=url, max_retries=0, backoff=0.01)


@pytest.mark.parametrize("make_client", [web_client, dense_client], ids=["web", "dense"])
class TestGarbledResponses:
    def test_non_json_body_is_transport_error(self, json_stub, make_client):
        json_stub["raw"] = b"<html>rate limited</html>"
        with pytest.raises(ToolTransportError, match="not JSON"):
            make_client(json_stub["url"])({"query": "x"})

    def test_non_object_result_item_is_transport_error(self, json_stub, make_client):
        json_stub["payload"] = {"results": ["just a string"], "passages": [42]}
        with pytest.raises(ToolTransportError, match="not an object"):
            make_client(json_stub["url"])({"query": "x"})


class TestBuildRegistry:
    def test_fixture_entry(self):
        registry = build_registry(
            [{"name": "search", "kind": "fixture", "corpus": "corpus.jsonl", "top_k": 3}],
            base_dir=DATA_DIR,
        )
        assert len(registry.invoke("search", {"query": "oxford"}).documents) == 3

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_registry([{"name": "x", "kind": "crawler"}])
