"""The audit benchmark's tracer wraps compaudit functions by name; every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "auditbench" / "tracing.py"


def wrapped_names():
    spec = importlib.util.spec_from_file_location("auditbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, _ in tracing.WRAPPED]


@pytest.mark.parametrize("module, attr", wrapped_names())
def test_wrapped_function_exists(module, attr):
    owner = importlib.import_module(f"compaudit.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
