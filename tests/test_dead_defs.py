"""Every function and method defined under src/repro is named somewhere
else in src/, tests/, perfbench/, examples/ or tools/.

A def whose name appears only on its own ``def`` line has no caller, no
test and no override: it is dead code.  This is a floor, not a proof --
a name shared with some other live def or attribute (a ``run`` or a
``clear``) passes whether or not this def is ever called.
"""

import ast
import os
import re
from collections import Counter

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_SEARCHED = ("src", "tests", "perfbench", "examples", "tools")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _sources(top):
    for dirpath, _, filenames in os.walk(os.path.join(_ROOT, top)):
        for name in filenames:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name),
                          encoding="utf-8") as fileobj:
                    yield fileobj.read()


def _def_names(source):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and not (node.name.startswith("__")
                         and node.name.endswith("__")):
            yield node.name


def test_every_def_is_named_somewhere_else():
    mentions = Counter()
    for top in _SEARCHED:
        for source in _sources(top):
            mentions.update(_WORD.findall(source))
    defs = Counter()
    for source in _sources(os.path.join("src", "repro")):
        defs.update(_def_names(source))
    dead = sorted(name for name, count in defs.items()
                  if mentions[name] <= count)
    assert dead == []
