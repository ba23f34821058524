"""Every program file has a perfbench layer.

perfbench's traced runs profile the program and map each profiled file
under ``src/repro`` to a layer through ``perfbench/layers.py``
``FILE_RULES``; a file no rule covers raises ``KeyError`` there and the
traced run exits 1.  ``perfbench/tests`` checks the same, but this
suite is the one every change runs.
"""

import importlib.util
import os

import pytest

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_spec = importlib.util.spec_from_file_location(
    "layers", os.path.join(_ROOT, "perfbench", "layers.py"))
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)


def test_every_source_file_resolves_to_a_layer():
    src = os.path.join(_ROOT, "src", "repro")
    unruled = []
    for dirpath, _dirs, filenames in os.walk(src):
        for name in filenames:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                try:
                    layer = layers.layer_of_file(os.path.abspath(path))
                except KeyError:
                    unruled.append(os.path.relpath(path, src))
                    continue
                assert layer in layers.LAYERS, path
    assert unruled == []


def test_a_file_no_rule_covers_raises():
    with pytest.raises(KeyError):
        layers.layer_of_file("/x/src/repro/newpkg/thing.py")
