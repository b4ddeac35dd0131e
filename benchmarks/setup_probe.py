"""Time one fresh-process set-up: import, prompts, and the tool registry.

Usage: python3 setup_probe.py <src dir> [<tool config JSON>]

Prints the elapsed seconds. Without a tool config, set-up is what every
launch pays: importing dagsearch and loading the default prompts. With one,
the config also goes through ``build_registry``, corpus load included.
"""

import json
import sys
import time
from pathlib import Path

started = time.perf_counter()
src_dir = Path(sys.argv[1])
sys.path.insert(0, str(src_dir))

from dagsearch.engine import PromptPack  # noqa: E402
from dagsearch.tools import build_registry  # noqa: E402

PromptPack.load_default()
if len(sys.argv) > 2:
    config_path = Path(sys.argv[2])
    config = json.loads(config_path.read_text(encoding="utf-8"))
    if not build_registry(config["tools"], base_dir=config_path.parent).specs():
        sys.exit("set-up built an empty tool registry")
print(f"{time.perf_counter() - started:.9f}")
