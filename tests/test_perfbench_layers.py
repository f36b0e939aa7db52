"""Every entry point the benchmark's tracer wraps still exists.

``perfbench/tracer.py`` patches the ``repro`` layers from outside, by
module, owner and attribute name.  A renamed or moved entry point would
only fail the benchmark's traced run; resolving each one here, with the
lookup :meth:`Tracer.install` uses, fails the test suite instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _layers()


@pytest.mark.parametrize(
    "module_name, owner_name, attr",
    [entry[:3] for entry in LAYERS],
    ids=[f"{m}:{o + '.' if o else ''}{a}" for m, o, a, *_ in LAYERS],
)
def test_traced_entry_point_resolves(module_name, owner_name, attr):
    module = importlib.import_module(module_name)
    owner = getattr(module, owner_name) if owner_name else module
    # Tracer.install reads class attributes from the class's own __dict__
    # (an inherited method would be patched on the wrong class).
    if isinstance(owner, type):
        assert attr in owner.__dict__, f"{owner_name}.{attr} is not defined"
        raw = owner.__dict__[attr]
    else:
        raw = getattr(owner, attr)
    assert callable(raw)
