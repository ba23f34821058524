"""tools/loc.py: what counts as a code line."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "loc.py")
_spec = importlib.util.spec_from_file_location("loc", _PATH)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SOURCE = '''"""Module docstring.

Three lines of it."""

import os  # a trailing comment still leaves a code line


# a comment-only line
class Thing:
    """Class docstring."""

    def method(self, a,
               b):
        """Method docstring."""
        text = """a string that is
        not a docstring"""
        return (a +
                b, text, os)
'''


def test_code_lines_skip_comments_blanks_and_docstrings():
    # import, class, def (2 physical lines), text = (2), return (2)
    assert loc.code_lines(SOURCE) == 8


def test_per_package_rows_and_file_rows(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "sub" / "b.py").write_text('"""doc"""\nz = 3\n')
    (pkg / "notes.txt").write_text("not python\n")
    rows = loc.count([str(pkg), str(pkg / "a.py")])
    assert rows == [(str(pkg), 1, 2), (str(pkg / "sub"), 1, 1),
                    (str(pkg / "a.py"), 1, 2)]
