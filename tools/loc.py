#!/usr/bin/env python3
"""Count code lines: the repo's tracked "source line count" metric.

A code line is a physical line that carries at least one token other
than a comment, outside docstrings.  Blank lines, comment-only lines and
docstrings (module, class and function) do not count; a statement or a
string literal spread over N lines counts N.  Counted with ``tokenize``
(what is on each line) plus ``ast`` (which strings are docstrings), so
reformatting comments or docstrings never moves the number.

    python tools/loc.py                  # src/repro, one row per package
    python tools/loc.py src/repro/fs/base.py src/repro/core/hinfs.py

A directory argument prints one row per package (directory) under it, a
file argument one row for the file; the last row is the total.
"""

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = frozenset((
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
))
_DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef,
                     ast.AsyncFunctionDef)


def _docstring_starts(tree):
    """``(line, column)`` of every docstring's first token."""
    starts = set()
    for node in ast.walk(tree):
        if not isinstance(node, _DOCSTRING_OWNERS) or not node.body:
            continue
        first = node.body[0]
        if isinstance(first, ast.Expr) \
                and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(source):
    """Number of code lines in one module's source text."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count_file(path):
    with open(path, encoding="utf-8") as fileobj:
        return code_lines(fileobj.read())


def count(paths):
    """``[(label, files, lines)]``: per package for a directory, per
    file for a file, in the order given (packages sorted)."""
    rows = []
    for path in paths:
        if os.path.isfile(path):
            rows.append((path, 1, count_file(path)))
            continue
        packages = {}
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    entry = packages.setdefault(dirpath, [0, 0])
                    entry[0] += 1
                    entry[1] += count_file(os.path.join(dirpath, name))
        if not packages:
            raise SystemExit("loc: no Python files under %r" % path)
        rows.extend((label, files, lines)
                    for label, (files, lines) in sorted(packages.items()))
    return rows


def main(argv=None):
    paths = (sys.argv[1:] if argv is None else argv) or ["src/repro"]
    rows = count(paths)
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(label) for label, _, _ in rows)
    print("%-*s  %5s  %6s" % (width, "path", "files", "code"))
    for label, files, lines in rows:
        print("%-*s  %5d  %6d" % (width, label, files, lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
