"""BENCHMARK.json, the catalogue, the layer map and the README agree."""

import os
import re

from perfbench import catalogue, layers
from perfbench.cases import CASES

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SRC = os.path.join(catalogue.ROOT, "src", "repro")


def test_layer_map_is_total():
    for dirpath, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                rel = os.path.relpath(os.path.join(dirpath, name), SRC)
                assert layers.layer_of_source(rel) in layers.LAYERS, rel


def test_unmapped_file_is_noticed():
    assert layers.layer_of_source("newpkg/thing.py") is None
    assert layers.layer_of_file("/usr/lib/python3/json/decoder.py") == "python"
    assert layers.layer_of_file("/x/src/repro/fs/vfs.py") == "fs.vfs"


def test_benchmark_json_matches_the_code():
    bench = catalogue.load_benchmark()
    assert sorted(bench) == ["command", "end_to_end", "paths", "per_layer",
                             "run_seconds", "workloads"]
    assert [w["name"] for w in bench["workloads"]] == list(CASES)
    for w in bench["workloads"]:
        assert w["why"] == CASES[w["name"]].why and len(w["why"]) <= 200
    declared = [(m["name"], m["unit"], m["better"])
                for m in bench["per_layer"]]
    assert declared == [(n, u, b) for n, u, b, _moves in
                        catalogue.per_layer()]
    assert len(declared) <= 128
    assert ([m["name"] for m in bench["end_to_end"]]
            == list(catalogue.END_TO_END_DOC))


def test_every_name_is_well_formed_and_documented():
    bench = catalogue.load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    for m in bench["end_to_end"]:
        assert 0 < m["bound"] <= 0.25, m
    for m in bench["end_to_end"] + bench["per_layer"]:
        names.append(m["name"])
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.match(name), name
    for name, _unit, _better, moves in catalogue.per_layer():
        assert moves, name
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in bench["end_to_end"])}]


def test_readme_catalogue_is_generated():
    with open(os.path.join(catalogue.ROOT, "perfbench", "README.md")) as fh:
        readme = fh.read()
    assert catalogue.render_markdown() in readme, (
        "regenerate: python -m perfbench catalogue")
