"""Every name a package module imports is read in that module, the package
defines one exception class per way a failure is handled, and the HTTP
clients load only when a config or ``--backend http`` names one.

A name counts as read if it appears as an identifier anywhere in the
module, annotations included (``from __future__ import annotations`` keeps
them in the AST).
"""

import ast
import builtins
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dagsearch"
DATA_DIR = Path(__file__).resolve().parent / "data"
V2_FIXTURE = DATA_DIR / "two_hop_trajectory_v2.jsonl"
MODULES = sorted(PACKAGE.glob("*.py"))
# What an offline command must not load: the module that sends HTTP, the
# HTTP stack, the hash behind web source ids, and eval's --parallel pool.
OFFLINE_UNLOADED = ("dagsearch.remote", "urllib.request", "http.client", "hashlib", "concurrent.futures")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unread = sorted((line, name) for name, line in imported.items() if name not in read)
    return [f"line {line}: {name}" for line, name in unread]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_rule_flags_an_unread_import():
    source = (
        "import os\nimport json\nfrom typing import Any, Callable\n\n"
        "def f(x: Any) -> str:\n    return json.dumps(x)\n"
    )
    assert unused_imports(source) == ["line 1: os", "line 3: Callable"]


def exception_classes(sources: list[str]) -> list[str]:
    """The classes defined in ``sources`` that derive from a built-in exception, directly or through each other."""
    bases: dict[str, set[str]] = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {getattr(base, "id", getattr(base, "attr", "")) for base in node.bases}
    found = {
        name for name, kind in vars(builtins).items() if isinstance(kind, type) and issubclass(kind, BaseException)
    }
    while new := {name for name, names in bases.items() if names & found} - found:
        found |= new
    return sorted(found & bases.keys())


def test_one_exception_class_per_handling():
    # A rejected action re-prompts (ProtocolError); a spent retry budget
    # (EngineError), a failed completion (BackendError) or a failed tool
    # (ToolTransportError) aborts the run; an over-long input ends it
    # context_overflow (ContextOverflow); a malformed input file exits 2
    # (InputError).
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    assert exception_classes(sources) == sorted(
        ["ProtocolError", "EngineError", "BackendError", "ToolTransportError", "ContextOverflow", "InputError"]
    )


def run_python(script: str) -> list[str]:
    """Run ``script`` in a fresh interpreter on the package sources; its stdout lines."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.splitlines()


def test_offline_commands_never_load_the_http_stack(tmp_path):
    # Importing the package and running every offline command (replay,
    # stats, export, a scripted fixture eval) loads none of OFFLINE_UNLOADED.
    runs = tmp_path / "runs"
    runs.mkdir()
    for fixture in DATA_DIR.glob("*trajectory*.jsonl"):
        (runs / fixture.name).write_bytes(fixture.read_bytes())
    gold = tmp_path / "gold.jsonl"
    gold.write_text('{"question_id": "two-hop-www", "question": "q", "answers": ["1096"]}\n')
    commands = [
        ["replay", "--strict", "--trajectory", str(V2_FIXTURE)],
        ["stats", "--trajectories", str(runs), "--curve-out", str(tmp_path / "curve.csv"),
         "--cache-out", str(tmp_path / "cache.csv")],
        ["export", "--trajectories", str(runs), "--gold", str(gold), "--out", str(tmp_path / "sft.jsonl")],
        ["eval", "--strict", "--dataset", str(DATA_DIR / "eval_dataset.jsonl"),
         "--backend", f"scripted:{DATA_DIR / 'eval_scripted.json'}", "--tools", str(DATA_DIR / "tools.json"),
         "--out", str(tmp_path / "eval.csv")],
    ]
    script = (
        "import sys\n"
        "import dagsearch.engine, dagsearch.tools, dagsearch.cli\n"
        f"loaded = lambda: [name for name in {OFFLINE_UNLOADED!r} if name in sys.modules]\n"
        "print('loaded', loaded())\n"
        f"for argv in {commands!r}:\n"
        "    code = dagsearch.cli.main(argv)\n"
        "    print('loaded', argv[0], code, loaded())\n"
    )
    lines = [line for line in run_python(script) if line.startswith("loaded")]
    assert lines == ["loaded []"] + [f"loaded {argv[0]} 0 []" for argv in commands]


def test_only_an_http_tool_entry_loads_remote():
    # An unknown tool kind is rejected, with its message, before ``remote``
    # loads; a web_search entry loads it.
    script = """
import sys
from dagsearch.tools import InputError, build_registry
try:
    build_registry([{"name": "x", "kind": "bogus", "endpoint": "http://127.0.0.1:1/"}])
except InputError as exc:
    print(exc, "dagsearch.remote" in sys.modules)
build_registry([{"name": "web", "kind": "web_search", "endpoint": "http://127.0.0.1:1/"}])
print("dagsearch.remote" in sys.modules)
"""
    assert run_python(script) == ['unknown tool kind "bogus" for tool "x" False', "True"]


def test_http_clients_need_no_third_party_package():
    # With ``requests`` unimportable, a search and a chat call still go
    # through a local stub.
    script = """
import json, os, sys, threading
from http.server import BaseHTTPRequestHandler, HTTPServer
sys.modules["requests"] = None

class Handler(BaseHTTPRequestHandler):
    def do_GET(self):
        self.reply({"results": [{"title": "T", "url": "https://example.org/", "snippet": "S"}]})

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.reply({"choices": [{"message": {"content": "<final_answer>{}</final_answer>"}}]})

    def reply(self, payload):
        body = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass

server = HTTPServer(("127.0.0.1", 0), Handler)
threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True).start()
url = f"http://127.0.0.1:{server.server_port}/"
from dagsearch.backend import CompletionRequest
from dagsearch.remote import HttpChatBackend
from dagsearch.tools import build_registry
search = build_registry([{"name": "web", "kind": "web_search", "endpoint": url}])
print(search.invoke("web", {"query": "q"}).documents[0].title)
os.environ["DAGSEARCH_LLM_ENDPOINT"] = url
print(HttpChatBackend().complete(CompletionRequest(("x",), 0, max_output_tokens=64, temperature=0.0)))
server.shutdown()
server.server_close()
"""
    assert run_python(script) == ["T", "<final_answer>{}</final_answer>"]
