"""Every name the benchmark's tracer rebinds (perfbench/tracing.py) still
resolves, so that deleting or renaming a traced function fails here and not
only in a `--trace 1` benchmark run."""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, PERFBENCH)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import tracing
        yield tracing
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(PERFBENCH)


def test_every_spanned_and_counted_name_resolves(tracing):
    names = [(module, qualname)
             for module, categories in tracing.SPANS.values()
             for qualnames in categories.values() for qualname in qualnames]
    names += list(tracing.COUNTS.values())
    missing = []
    for module, qualname in names:
        try:
            tracing._resolve(module, qualname)
        except (AttributeError, KeyError):
            missing.append(f"{module.__name__}.{qualname}")
    assert names and not missing
