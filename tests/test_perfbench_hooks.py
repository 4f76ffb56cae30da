"""The end-to-end benchmark's per-layer hooks still find what they wrap.

``perfbench/layers.py`` times layers by replacing attributes on the
program's own classes and modules, looked up by name.  A rename or a
deleted method breaks the traced benchmark run; this test makes it break
the test suite first.  It only reads ``perfbench/``: the module is loaded
without writing a bytecode cache next to it.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"

#: Attributes ``install`` replaces (the event loop's ``run_due`` plus one
#: wrapper per timed layer).
EXPECTED_PATCHES = 22


@pytest.fixture
def layers():
    name = "_perfbench_layers_under_test"
    spec = importlib.util.spec_from_file_location(name, LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    # @dataclass resolves the module through sys.modules while the class
    # body executes.
    sys.modules[name] = module
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.dont_write_bytecode = dont_write
        sys.modules.pop(name, None)


def test_install_patches_every_layer_and_uninstall_restores(layers):
    replaced: list[tuple[object, str, object]] = []

    class RecordingTracer(layers.Tracer):
        def replace(self, owner, attr, new):
            replaced.append((owner, attr, layers._own_attr(owner, attr)))
            super().replace(owner, attr, new)

    tracer = RecordingTracer()
    try:
        layers.install(tracer)
        assert len(replaced) == EXPECTED_PATCHES
        for owner, attr, original in replaced:
            assert layers._own_attr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in replaced:
        assert layers._own_attr(owner, attr) is original, attr

