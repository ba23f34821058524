"""Unit tests for the report tables and series."""

import pytest

from repro.bench.report import Series, Table


def test_table_formats_aligned():
    table = Table("Title", ["a", "bb"])
    table.add_row(1, 2.5)
    table.add_row("long-cell", 0.123)
    text = table.format()
    lines = text.splitlines()
    assert lines[0] == "Title"
    assert "a" in lines[2] and "bb" in lines[2]
    assert "long-cell" in text
    assert "0.123" in text


def test_table_rejects_wrong_arity():
    table = Table("t", ["a", "b"])
    with pytest.raises(ValueError):
        table.add_row(1)


def test_table_column_access():
    table = Table("t", ["x", "y"])
    table.add_row(1, 10)
    table.add_row(2, 20)
    assert table.column("x") == ["1", "2"]


def test_table_float_formatting():
    table = Table("t", ["v"])
    table.add_row(12345.6)
    table.add_row(3.14159)
    table.add_row(0.001234)
    col = table.column("v")
    assert col[0] == "12346"
    assert col[1] == "3.14"
    assert col[2] == "0.001"


def test_series():
    series = Series("s")
    series.add(1, 10.0)
    series.add(2, 20.0)
    assert series.xs() == [1, 2]
    assert series.ys() == [10.0, 20.0]


def test_str_is_format():
    table = Table("t", ["a"])
    table.add_row("x")
    assert str(table) == table.format()


def test_series_and_table_serialise_as_plain_lists():
    series = Series("s")
    series.add(1, 10.0)
    assert series.to_json() == {"name": "s", "points": [[1, 10.0]]}
    table = Table("t", ["a", "b"])
    table.add_row(1, 2.5)
    assert table.to_json() == {"title": "t", "columns": ["a", "b"],
                               "rows": [["1", "2.50"]]}
