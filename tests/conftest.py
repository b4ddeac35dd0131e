import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dagsearch.register import prompt_lines  # noqa: E402


@pytest.fixture(autouse=True)
def _fresh_prompt_counts():
    """Forget the stage prompts' lines and counts, so a tokenizer spy sees the same calls whichever test ran before."""
    prompt_lines.cache_clear()
    yield


@pytest.fixture
def sleeps(monkeypatch):
    """The waits the HTTP transport asks for between attempts, recorded instead of slept.

    ``remote.time`` is the ``time`` module, so ``time.sleep`` records for the whole test.
    """
    waits = []
    monkeypatch.setattr("dagsearch.remote.time.sleep", waits.append)
    return waits
