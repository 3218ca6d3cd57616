"""The benchmark's span tracer patches germlab functions by name.

``perfbench/tracer.py`` lists them in ``PATCHES`` as (module, attribute path)
pairs and replaces each with a timing wrapper, so a renamed or deleted name
stops every traced benchmark run with an AttributeError.  These tests read
that list without installing the tracer.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

import germlab

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_patches() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, path) for module, path, _ in tracer.PATCHES]


PATCHES = _tracer_patches()


@pytest.mark.parametrize("module, path", PATCHES, ids=[f"{m}:{p}" for m, p in PATCHES])
def test_patched_name_resolves(module, path):
    importlib.import_module(f"germlab.{module}")
    owner = getattr(germlab, module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
