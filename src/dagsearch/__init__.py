"""Structured-protocol agentic search with a DAG plan and a context register.

Names are imported from their modules, e.g. ``from dagsearch.engine import run``.
"""

__version__ = "0.1.0"
