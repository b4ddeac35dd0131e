import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dagsearch.register import prompt_line_counts  # noqa: E402


@pytest.fixture(autouse=True)
def _fresh_prompt_counts():
    """Forget the stage prompts' line counts, so a tokenizer spy sees the same calls whichever test ran before."""
    prompt_line_counts.cache_clear()
    yield
