"""The benchmark's tracer wraps package functions by name; every name it
wraps must still resolve, or a traced run fails before it starts."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for owner, attr, _ in tracing.SPANNED + tracing.COUNTED],
    ids=lambda v: v if isinstance(v, str) else getattr(v, "__name__", ""),
)
def test_traced_name_resolves(owner, attr):
    assert callable(getattr(owner, attr))
