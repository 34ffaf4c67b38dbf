"""The traced benchmark wraps trustkit names it looks up with ``getattr``; a
name it cannot find breaks the traced run. These checks keep every name it
hooks resolvable on the package, without running the benchmark."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_hooked_function_resolves(tracing):
    missing = [f"{modname}.{attr}"
               for modname, entries in tracing.FUNCTIONS.items()
               for attr, _, _ in entries
               if not callable(getattr(importlib.import_module(modname), attr, None))]
    assert missing == []


def test_every_hooked_method_resolves(tracing):
    missing = []
    for (modname, clsname), entries in tracing.METHODS.items():
        cls = getattr(importlib.import_module(modname), clsname, None)
        # the tracer reads the class's own __dict__, not an inherited attribute
        missing += [f"{modname}.{clsname}.{attr}" for attr, _, _ in entries
                    if cls is None or attr not in vars(cls)]
    assert missing == []


def test_hooked_arguments_keep_their_positions():
    # the checkpoint hook reads the path at index 3, the forward hooks cfg at index 1
    from trustkit.model import forward, params

    assert list(inspect.signature(params.checkpoint_save).parameters).index("path") == 3
    for fn in (forward.forward_trust, forward.forward_unet):
        assert list(inspect.signature(fn).parameters).index("cfg") == 1
