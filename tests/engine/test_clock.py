"""Unit tests for the virtual-time units."""

from repro.engine.clock import NS_PER_SEC, format_ns


def test_format_ns_units():
    assert format_ns(5) == "5ns"
    assert format_ns(1_500) == "1.500us"
    assert format_ns(2_000_000) == "2.000ms"
    assert format_ns(3 * NS_PER_SEC) == "3.000s"
