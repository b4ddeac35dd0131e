import json
import logging
import threading
import tracemalloc
import urllib.parse
from collections.abc import Sequence
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dagsearch.backend import BackendError, ScriptedBackend
from dagsearch.engine import PromptPack, replay_run, run
from dagsearch.protocol import ProtocolError
from dagsearch.remote import HttpChatBackend, SearchClient, stable_source_id
from dagsearch.tools import (
    Document,
    FixtureSearchTool,
    InputError,
    ToolRegistry,
    ToolResult,
    ToolTransportError,
    build_registry,
    load_corpus,
    search_spec,
)
from dagsearch.trajectory import Trajectory
from helpers import DATA_DIR, TWO_HOP_QUESTION, brute_force_search, completion, fixed_clock, two_hop_responses

pytestmark = pytest.mark.usefixtures("sleeps")


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
    """Tiny HTTP stub serving a configurable JSON payload, or raw body bytes.

    The next ``fail_next`` requests are answered with ``fail_status``.
    """

    state = {"payload": {}, "raw": None, "fail_next": 0, "fail_status": 500, "requests": []}

    class Handler(BaseHTTPRequestHandler):
        def _serve(self):
            length = int(self.headers.get("Content-Length", 0) or 0)
            raw = self.rfile.read(length) if length else b""
            state["requests"].append(
                {
                    "method": self.command,
                    "path": self.path,
                    "body": json.loads(raw) if raw else None,
                    "headers": self.headers,
                }
            )
            if state["fail_next"] > 0:
                state["fail_next"] -= 1
                self.send_response(state["fail_status"])
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
    # A short poll keeps shutdown() from waiting out the default 0.5 s.
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    state["url"] = f"http://127.0.0.1:{server.server_port}/search"
    yield state
    server.shutdown()
    server.server_close()
    thread.join(timeout=2)


class TestRegistry:
    def test_duplicate_registration(self, registry):
        with pytest.raises(InputError, match='^tool "search" is already registered$'):
            registry.register(search_spec("search", "again"), lambda args: ToolResult())

    def test_unknown_tool(self, registry):
        with pytest.raises(ProtocolError, match='^unknown tool "crawler"; registered tools: search$'):
            registry.invoke("crawler", {"query": "x"})

    def test_missing_required_argument(self, registry):
        with pytest.raises(ProtocolError, match='^tool "search" requires argument "query"$'):
            registry.invoke("search", {})

    def test_unexpected_argument(self, registry):
        with pytest.raises(ProtocolError, match='^tool "search" does not accept argument "depth"$'):
            registry.invoke("search", {"query": "x", "depth": 2})

    def test_wrong_argument_type(self, registry):
        with pytest.raises(ProtocolError, match='^tool "search" argument "query" must be of type string$'):
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


# Words that collide or change length under lower(), and whitespace that
# str.split() breaks on, joined with no separator so runs and glued words occur.
_WORDS = ["a", "A", "b", "ab", "İ", "i̇", "i", "Σ", "σ", "ς", "ß", "SS", "ss"]
_SPACES = [" ", "\t", "\n", "\u3000"]
_texts = st.lists(st.sampled_from(_WORDS + _SPACES), max_size=8).map("".join)
_source_ids = st.sampled_from(["s0", "s1", "s2", "S1"])
_documents = st.builds(Document, source_id=_source_ids, title=_texts, text=_texts)


@st.composite
def _searches(draw):
    corpus = draw(st.lists(_documents, max_size=15))
    # Up to 100 filler documents sharing one word, which the query may hold:
    # in a corpus of more than 32 documents, the index keeps a token held by
    # few of them as an array of ranks and the filler word as a bitmask, so
    # both forms are searched.
    word = draw(st.sampled_from(_WORDS))
    filler = st.builds(Document, source_id=_source_ids, title=st.just(word), text=st.just(""))
    count = draw(st.integers(min_value=0, max_value=100))
    corpus = draw(st.permutations(corpus + draw(st.lists(filler, min_size=count, max_size=count))))
    top_k = draw(st.integers(min_value=1, max_value=len(corpus) + 2))
    query = draw(
        st.one_of(_texts, _texts.map(lambda text: f"{text} {text}"), _texts.map(lambda text: f"{text} {word}"))
    )
    return corpus, query, top_k


@settings(max_examples=400, deadline=None)
@given(_searches())
@example(([], "", 1))
@example(([Document("s1", "a", "b"), Document("s0", "", ""), Document("s1", "b", "a")], "a a\tb", 2))
@example(([Document("s1", "Σ", ""), Document("s0", "ß", "")], "σ SS", 4))
@example(([Document("s0", "b", ""), Document("s1", "a", "")], "a a b", 1))
@example(([Document("s1", "a", ""), Document("s0", "b", "")], "", 2))  # an empty query
@example(([Document("s1", "a", ""), Document("s0", "b", "a")], "a", 5))  # top_k beyond the corpus
# One source_id on score levels 2 and 1, another on levels 1 and 0.
@example(
    ([Document("s1", "a", ""), Document("s0", "", ""), Document("s1", "a b", ""), Document("s0", "b", "")], "a b", 3)
)
# "a" is held by 1 document in 41, an array of ranks; "ab" by 40, a bitmask.
@example(([Document("s1", "a", "b")] + [Document(f"s{i % 3}", "ab", "") for i in range(40)], "a ab b", 4))
def test_index_ranks_like_the_brute_force_scorer(search):
    corpus, query, top_k = search
    found = FixtureSearchTool(corpus=corpus, top_k=top_k)({"query": query}).documents
    expected = brute_force_search(corpus, query, top_k)
    assert len(found) == len(expected)
    assert all(got is want for got, want in zip(found, expected))


class CountingCorpus(Sequence):
    """A corpus that counts the documents read from it by index."""

    def __init__(self, documents):
        self.documents = documents
        self.reads = 0

    def __len__(self):
        return len(self.documents)

    def __getitem__(self, index):
        self.reads += 1
        return self.documents[index]


def test_a_search_reads_only_the_documents_it_returns():
    corpus = CountingCorpus([Document(f"s{i % 7}", "shared", f"w{i}") for i in range(200)])
    tool = FixtureSearchTool(corpus=corpus, top_k=3)
    for query in ("shared", "shared w5 w17", "w9", "absent", ""):
        corpus.reads = 0
        found = tool({"query": query}).documents
        assert found == tuple(brute_force_search(corpus.documents, query, 3))
        assert corpus.reads <= 3, query


def test_the_index_holds_a_bitmask_only_where_it_is_smaller_than_the_ranks():
    # Each document holds a token of its own and one word they all share. The
    # index holds about 3.5 MB; with a bitmask for every token, about 55 MB.
    corpus = [Document(f"s{i}", f"t{i}", "shared") for i in range(20_000)]
    tracemalloc.start()
    try:
        tool = FixtureSearchTool(corpus=corpus)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 6_000_000
    assert tool({"query": "shared t7"}).documents[0] is corpus[7]


class TestStableSourceIds:
    def test_format_and_stability(self):
        a = stable_source_id("web", "https://example.org/page")
        b = stable_source_id("web", "https://example.org/page")
        assert a == b
        assert a.startswith("web:")
        assert len(a.split(":")[1]) == 12

    def test_distinct_keys_distinct_ids(self):
        assert stable_source_id("web", "u1") != stable_source_id("web", "u2")


def built(entry):
    """The client that tool config ``entry`` builds."""
    return build_registry([entry])._tools[entry["name"]][1]


class TestWebSearchClient:
    def test_config_mapped_fields(self, json_stub):
        json_stub["payload"] = {
            "organic": [
                {"name": f"Result {i}", "link": f"https://example.org/{i}", "blurb": f"snippet {i}"}
                for i in range(5)
            ]
        }
        entry = {"name": "web", "kind": "web_search", "endpoint": json_stub["url"], "top_k": 3}
        entry |= {"results_path": "organic", "title_field": "name", "url_field": "link", "snippet_field": "blurb"}
        result = built(entry)({"query": "anything"})
        assert len(result.documents) == 3
        assert result.documents[0].title == "Result 0"
        assert result.documents[0].text == "snippet 0"
        assert result.documents[0].source_id == stable_source_id("web", "https://example.org/0")

    def test_missing_query_argument_rejected_by_registry(self, json_stub):
        reg = build_registry([{"name": "web", "kind": "web_search", "endpoint": json_stub["url"]}])
        with pytest.raises(ProtocolError, match='^tool "web" requires argument "query"$'):
            reg.invoke("web", {})

    def test_transport_error_after_retries(self, json_stub, sleeps):
        json_stub["fail_next"] = 10
        with pytest.raises(ToolTransportError, match=r"^request to \S+ failed after 4 attempts: "):
            web_client(json_stub["url"])({"query": "x"})
        assert len(json_stub["requests"]) == 4
        assert sleeps == [0.5, 1.0, 2.0]

    def test_api_key_in_header(self, json_stub, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "secret")
        json_stub["payload"] = {"results": []}
        entry = {"name": "web", "kind": "web_search", "endpoint": json_stub["url"]}
        built(entry | {"api_key_env": KEY_ENV, "api_key_header": "X-API-Key"})({"query": "x"})
        assert json_stub["requests"][0]["headers"]["X-API-Key"] == "secret"


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
        entry = {"name": "dense", "kind": "dense_retriever", "endpoint": json_stub["url"], "top_k": 3}
        result = built(entry)({"query": "passage"})
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
        client = dense_client(json_stub["url"])
        with pytest.raises(ToolTransportError):
            client({"query": "x"})


def web_client(url):
    return built({"name": "web", "kind": "web_search", "endpoint": url})


def dense_client(url):
    return built({"name": "dense", "kind": "dense_retriever", "endpoint": url})


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


@pytest.mark.parametrize(
    "make_client, field, document",
    [
        (web_client, "url", Document(stable_source_id("web", "https://example.org/a\ufffd"), "T", "s")),
        (web_client, "snippet", Document(stable_source_id("web", "https://example.org/a"), "T", "s\ufffd")),
        (dense_client, "id", Document(stable_source_id("dense", "p1\ufffd"), "T", "t")),
        (dense_client, "text", Document(stable_source_id("dense", "p1"), "T", "t\ufffd")),
    ],
    ids=["web-url", "web-snippet", "dense-id", "dense-text"],
)
def test_a_lone_surrogate_in_a_result_reads_as_u_fffd(tmp_path, json_stub, make_client, field, document):
    """JSON can escape a lone surrogate, which no trajectory could save: the run answers, saves and replays."""
    item = {"title": "T", "url": "https://example.org/a", "snippet": "s", "id": "p1", "text": "t"}
    item[field] += "\ud800"  # json.dumps escapes it as \ud800
    json_stub["payload"] = {"results": [item], "passages": [item]}
    tools = ToolRegistry()
    tools.register(search_spec("search", "search over HTTP"), make_client(json_stub["url"]))
    result = run(
        TWO_HOP_QUESTION,
        backend=ScriptedBackend(responses=two_hop_responses()),
        tools=tools,
        prompts=PromptPack.load_default(),
        question_id="two-hop-www",
        clock=fixed_clock(),
    )
    assert (result.outcome, result.answer) == ("answered", "1096")
    results = [step.tool_result for step in result.trajectory.steps if step.tool_result]
    assert len(results) == 2 and all(tool_result.documents == (document,) for tool_result in results)
    path = tmp_path / "run.jsonl"
    result.trajectory.save(path)
    replayed = replay_run(Trajectory.load(path), strict=True, clock=fixed_clock())
    assert (replayed.outcome, replayed.answer) == ("answered", "1096")


KIND_FIELDS = {"web_search": ("url", "title", "snippet"), "dense_retriever": ("id", "title", "text")}


@pytest.mark.parametrize("kind", KIND_FIELDS)
@pytest.mark.parametrize(
    "value, text",
    [
        ("T", "T"),
        ("T\ud800", "T\ufffd"),
        (7, "7"),
        (-2.5, "-2.5"),
        (None, ""),
        (True, ""),
        (False, ""),
        ({"a": [1]}, ""),
        ([1], ""),
    ],
    ids=["string", "lone-surrogate", "integer", "float", "null", "true", "false", "object", "array"],
)
def test_a_result_field_reads_as_its_string_its_number_or_empty(json_stub, kind, value, text):
    # The second result has none of the fields.
    items = [dict.fromkeys(KIND_FIELDS[kind], value), {}]
    json_stub["payload"] = {"results": items, "passages": items}
    result = built({"name": "s", "kind": kind, "endpoint": json_stub["url"]})({"query": "x"})
    empty = Document(stable_source_id("s", ""), "", "")
    assert result.documents == (Document(stable_source_id("s", text), text, text), empty)


@pytest.mark.parametrize("kind", KIND_FIELDS)
def test_a_result_without_an_id_is_identified_by_its_title_or_else_its_text(json_stub, kind):
    id_field, title_field, text_field = KIND_FIELDS[kind]
    items = [
        {title_field: "A", text_field: "same"},
        {title_field: "B", text_field: "same"},
        {text_field: "one"},
        {id_field: "", title_field: None, text_field: "two"},
        {id_field: "p", title_field: "A", text_field: "one"},
    ]
    json_stub["payload"] = {"results": items, "passages": items}
    entry = {"name": "s", "kind": kind, "endpoint": json_stub["url"], "top_k": 5}
    documents = built(entry)({"query": "x"}).documents
    assert [doc.source_id for doc in documents] == [stable_source_id("s", key) for key in ("A", "B", "one", "two", "p")]
    assert len({doc.source_id for doc in documents}) == 5


def _chat_call(url):
    with pytest.MonkeyPatch.context() as env:
        env.setenv("DAGSEARCH_LLM_ENDPOINT", url)
        backend = HttpChatBackend()
    return lambda: backend.complete(completion("x")), BackendError


def _dense_call(url):
    client = dense_client(url)
    return lambda: client({"query": "x"}), ToolTransportError


@pytest.mark.parametrize("make_call", [_chat_call, _dense_call], ids=["chat", "dense"])
def test_a_call_that_keeps_failing_sends_4_requests_waiting_half_then_1_then_2_seconds(json_stub, sleeps, make_call):
    json_stub["fail_next"] = 10
    json_stub["fail_status"] = 503
    call, error = make_call(json_stub["url"])
    with pytest.raises(error, match=r"^request to (\S+) failed after 4 attempts: \1 answered HTTP 503$"):
        call()
    assert len(json_stub["requests"]) == 4
    assert sleeps == [0.5, 1.0, 2.0]


@pytest.mark.parametrize("make_call", [_chat_call, _dense_call], ids=["chat", "dense"])
@pytest.mark.parametrize("status, transient", [(401, False), (404, False), (429, True), (503, True)])
def test_only_transient_statuses_are_retried(json_stub, sleeps, make_call, status, transient):
    json_stub["fail_next"] = 10
    json_stub["fail_status"] = status
    call, error = make_call(json_stub["url"])
    with pytest.raises(error, match=f"HTTP {status}"):
        call()
    assert len(json_stub["requests"]) == (4 if transient else 1)
    assert sleeps == ([0.5, 1.0, 2.0] if transient else [])


@pytest.mark.parametrize("make_call", [_chat_call, _dense_call], ids=["chat", "dense"])
def test_invalid_url_fails_at_once(make_call, sleeps, caplog):
    # A URL with no scheme is rejected before any connection is opened.
    call, error = make_call("no-scheme.invalid/search")
    with caplog.at_level(logging.WARNING), pytest.raises(error, match="Invalid URL"):
        call()
    assert not [rec for rec in caplog.records if "request attempt" in rec.message]
    assert sleeps == []


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

    def test_a_name_used_twice_is_a_value_error(self):
        entry = {"name": "s", "kind": "fixture", "corpus": "corpus.jsonl"}
        with pytest.raises(ValueError, match='tool "s" is already registered'):
            build_registry([entry, entry], base_dir=DATA_DIR)

    def test_builds_sharing_a_fixture_map_share_one_tool_per_corpus_and_top_k(self):
        config = [
            {"name": "one", "kind": "fixture", "corpus": "corpus.jsonl", "top_k": 1},
            {"name": "two", "kind": "fixture", "corpus": "corpus.jsonl", "top_k": "2"},
        ]
        fixtures = {}
        first = build_registry(config, base_dir=DATA_DIR, fixtures=fixtures)
        second = build_registry(config, base_dir=DATA_DIR, fixtures=fixtures)
        assert sorted(fixtures) == [(DATA_DIR / "corpus.jsonl", 1), (DATA_DIR / "corpus.jsonl", 2)]
        assert first._tools["one"][1] is not first._tools["two"][1]
        for name, top_k in [("one", 1), ("two", 2)]:
            assert second._tools[name][1] is first._tools[name][1] is fixtures[(DATA_DIR / "corpus.jsonl", top_k)]
            assert len(second.invoke(name, {"query": "oxford"}).documents) == top_k

    def test_builds_without_a_fixture_map_build_their_own_tools(self):
        config = [{"name": "search", "kind": "fixture", "corpus": "corpus.jsonl"}]
        first, second = (build_registry(config, base_dir=DATA_DIR) for _ in range(2))
        assert first._tools["search"][1] is not second._tools["search"][1]
        assert first._tools["search"][1] == second._tools["search"][1]

    @pytest.mark.parametrize("top_k", [0, -1])
    @pytest.mark.parametrize(
        "entry",
        [
            {"kind": "fixture", "corpus": "corpus.jsonl"},
            {"kind": "web_search", "endpoint": "http://127.0.0.1:1/search"},
            {"kind": "dense_retriever", "endpoint": "http://127.0.0.1:1/search"},
        ],
        ids=["fixture", "web_search", "dense_retriever"],
    )
    def test_top_k_below_one_is_rejected(self, entry, top_k):
        with pytest.raises(ValueError, match=f'tool "s" needs a top_k of at least 1, not {top_k}'):
            build_registry([{"name": "s", "top_k": top_k, **entry}], base_dir=DATA_DIR)

    @pytest.mark.parametrize(
        "kind, wire",
        [
            (
                "web_search",
                dict(method="GET", query_key="q", top_k_key=None, results_path="results")
                | dict(id_field="url", title_field="title", text_field="snippet"),
            ),
            (
                "dense_retriever",
                dict(method="POST", query_key="query", top_k_key="top_k", results_path="passages")
                | dict(id_field="id", title_field="title", text_field="text"),
            ),
        ],
        ids=["web_search", "dense_retriever"],
    )
    def test_required_keys_only_build_the_default_client(self, kind, wire):
        endpoint = "http://127.0.0.1:1/search"
        registry = build_registry([{"name": "s", "kind": kind, "endpoint": endpoint}])
        assert registry._tools["s"][1] == SearchClient(tool_name="s", endpoint=endpoint, **wire)

    def test_every_optional_key_reaches_the_client(self, monkeypatch):
        monkeypatch.setenv("DAGSEARCH_TEST_SEARCH_KEY", "secret")
        endpoint = "http://127.0.0.1:1/search"
        web = {
            "method": "POST",
            "query_param": "query",
            "extra_params": {"lang": "en"},
            "results_path": "data.items",
            "title_field": "name",
            "url_field": "link",
            "snippet_field": "body",
            "api_key_param": "key",
            "api_key_header": "X-Key",
        }
        dense = {
            "query_field": "text",
            "top_k_field": "k",
            "results_path": "hits",
            "id_field": "pid",
            "title_field": "heading",
            "text_field": "passage",
        }
        web_entry = {
            "name": "w",
            "kind": "web_search",
            "endpoint": endpoint,
            "top_k": "5",
            "api_key_env": "DAGSEARCH_TEST_SEARCH_KEY",
            "description": "web",
            **web,
        }
        dense_entry = {"name": "d", "kind": "dense_retriever", "endpoint": endpoint, "top_k": 7, **dense}
        registry = build_registry([web_entry, dense_entry])
        assert registry._tools["w"][1] == SearchClient(
            tool_name="w",
            endpoint=endpoint,
            top_k=5,
            api_key="secret",
            method="POST",
            query_key="query",
            top_k_key=None,
            extra_params={"lang": "en"},
            results_path="data.items",
            id_field="link",
            title_field="name",
            text_field="body",
            api_key_param="key",
            api_key_header="X-Key",
        )
        assert registry._tools["d"][1] == SearchClient(
            tool_name="d",
            endpoint=endpoint,
            top_k=7,
            method="POST",
            query_key="text",
            top_k_key="k",
            results_path="hits",
            id_field="pid",
            title_field="heading",
            text_field="passage",
        )
        assert registry.get("w").description == "web"
        assert registry.get("d").description == "Dense passage retrieval over a local index."

    @pytest.mark.parametrize(
        "entry, key",
        [
            ({"kind": "web_search", "endpoint": "http://127.0.0.1:1/", "snipet_field": "body"}, "snipet_field"),
            ({"kind": "web_search", "endpoint": "http://127.0.0.1:1/", "query_field": "text"}, "query_field"),
            ({"kind": "dense_retriever", "endpoint": "http://127.0.0.1:1/", "api_key_env": "MY_KEY"}, "api_key_env"),
            ({"kind": "dense_retriever", "endpoint": "http://127.0.0.1:1/", "url_field": "link"}, "url_field"),
            ({"kind": "fixture", "corpus": "corpus.jsonl", "api_key_env": "MY_KEY"}, "api_key_env"),
            ({"kind": "fixture", "corpus": "corpus.jsonl", "endpoint": "http://127.0.0.1:1/"}, "endpoint"),
        ],
        ids=[
            "web-misspelled",
            "web-dense-key",
            "dense-api-key-env",
            "dense-web-key",
            "fixture-api-key-env",
            "fixture-endpoint",
        ],
    )
    def test_a_key_its_kind_does_not_accept_is_rejected(self, entry, key):
        with pytest.raises(InputError, match=f'^tool "w" has an unknown key "{key}"$'):
            build_registry([{"name": "w", **entry}], base_dir=DATA_DIR)

    @pytest.mark.parametrize("method", ["GETT", "head", "PUT", "", " GET"])
    def test_a_method_other_than_get_or_post_is_rejected(self, method):
        entry = {"name": "w", "kind": "web_search", "endpoint": "http://127.0.0.1:1/", "method": method}
        with pytest.raises(InputError, match=f'^tool "w" has method "{method}", which is neither GET nor POST$'):
            build_registry([entry])

    @pytest.mark.parametrize("method, stored", [("get", "GET"), ("Post", "POST"), ("POST", "POST")])
    def test_a_method_is_read_in_any_case_and_stored_upper_cased(self, json_stub, method, stored):
        json_stub["payload"] = {"results": []}
        entry = {"name": "w", "kind": "web_search", "endpoint": json_stub["url"], "method": method}
        client = built(entry)
        assert client.method == stored
        client({"query": "x"})
        assert json_stub["requests"][0]["method"] == stored

    @pytest.mark.parametrize("value", [None, ""], ids=["unset", "empty"])
    def test_an_api_key_env_naming_an_unset_or_empty_variable_is_rejected(self, monkeypatch, value):
        if value is None:
            monkeypatch.delenv(KEY_ENV, raising=False)
        else:
            monkeypatch.setenv(KEY_ENV, value)
        entry = {"name": "w", "kind": "web_search", "endpoint": "http://127.0.0.1:1/", "api_key_env": KEY_ENV}
        with pytest.raises(InputError, match=f'^tool "w" reads its API key from {KEY_ENV}, which is unset or empty$'):
            build_registry([entry])


KEY_ENV = "DAGSEARCH_TEST_SEARCH_KEY"


def served(id_field, title_field, text_field, ids):
    """``len(ids)`` result objects of the endpoint, with their fields under the given names."""
    return [{id_field: doc_id, title_field: f"Title {i}", text_field: f"text {i}"} for i, doc_id in enumerate(ids)]


def read(ids):
    """The documents of tool "s" for results ``served`` with these ids."""
    return tuple(Document(stable_source_id("s", doc_id), f"Title {i}", f"text {i}") for i, doc_id in enumerate(ids))


URLS = [f"https://example.org/{i}" for i in range(8)]
PASSAGES = [f"p{i}" for i in range(8)]
EVERY_WEB_KEY = {
    "kind": "web_search",
    "method": "POST",
    "query_param": "query",
    "extra_params": {"lang": "en"},
    "results_path": "data.items",
    "title_field": "name",
    "url_field": "link",
    "snippet_field": "body",
    "api_key_param": "key",
    "api_key_header": "X-Key",
    "api_key_env": KEY_ENV,
    "top_k": "5",
    "description": "web",
}
EVERY_DENSE_KEY = {
    "kind": "dense_retriever",
    "query_field": "text",
    "top_k_field": "k",
    "results_path": "hits",
    "id_field": "pid",
    "title_field": "heading",
    "text_field": "passage",
    "top_k": 7,
    "description": "dense",
}


# Each case: a tool entry's keys besides its name and endpoint, the payload
# its endpoint serves, the request a search for "who invented" sends (method,
# path, query string, JSON body, X-Key header) and the documents it returns.
@pytest.mark.parametrize(
    "entry, payload, request_, documents",
    [
        pytest.param(
            {"kind": "web_search"},
            {"results": served("url", "title", "snippet", URLS)},
            ("GET", "/search", "q=who+invented", None, None),
            read(URLS[:3]),
            id="web-defaults",
        ),
        pytest.param(
            {
                "kind": "web_search",
                "method": "GET",
                "extra_params": {"lang": "en", "safe": "off"},
                "api_key_param": "key",
                "api_key_env": KEY_ENV,
            },
            {"results": served("url", "title", "snippet", URLS)},
            ("GET", "/search", "lang=en&safe=off&q=who+invented&key=secret", None, None),
            read(URLS[:3]),
            id="web-get-key-param",
        ),
        pytest.param(
            {"kind": "web_search", "api_key_header": "X-Key", "api_key_env": KEY_ENV},
            {"results": served("url", "title", "snippet", URLS)},
            ("GET", "/search", "q=who+invented", None, "secret"),
            read(URLS[:3]),
            id="web-get-key-header",
        ),
        pytest.param(
            {"kind": "web_search", "method": "post", "api_key_env": KEY_ENV, "top_k": 2},
            {"results": served("url", "title", "snippet", URLS)},
            ("POST", "/search", "", {"q": "who invented", "api_key": "secret"}, None),
            read(URLS[:2]),
            id="web-post-key-param",
        ),
        pytest.param(
            EVERY_WEB_KEY,
            {"data": {"items": served("link", "name", "body", URLS)}},
            ("POST", "/search", "", {"lang": "en", "query": "who invented"}, "secret"),
            read(URLS[:5]),
            id="web-every-key",
        ),
        pytest.param(
            {"kind": "dense_retriever"},
            {"passages": served("id", "title", "text", PASSAGES)},
            ("POST", "/search", "", {"query": "who invented", "top_k": 3}, None),
            read(PASSAGES[:3]),
            id="dense-defaults",
        ),
        pytest.param(
            EVERY_DENSE_KEY,
            {"hits": served("pid", "heading", "passage", PASSAGES)},
            ("POST", "/search", "", {"text": "who invented", "k": 7}, None),
            read(PASSAGES[:7]),
            id="dense-every-key",
        ),
    ],
)
def test_a_tool_entry_sets_the_request_and_how_results_are_read(
    json_stub, monkeypatch, entry, payload, request_, documents
):
    monkeypatch.setenv(KEY_ENV, "secret")
    json_stub["payload"] = payload
    registry = build_registry([{"name": "s", "endpoint": json_stub["url"], **entry}])
    assert registry.invoke("s", {"query": "who invented"}).documents == documents
    [sent] = json_stub["requests"]
    url = urllib.parse.urlsplit(sent["path"])
    assert (sent["method"], url.path, url.query, sent["body"], sent["headers"].get("X-Key")) == request_
