"""Unit tests for statistics accumulation and the shared exact-percentile
and fairness helpers."""

import pytest

from repro.engine.stats import (
    SimStats,
    TimeBreakdown,
    fairness_spread,
    jain_index,
    percentile,
    percentiles,
)


def test_nearest_rank_percentile_small_sets():
    # Classic nearest-rank: rank = ceil(p/100 * n), value from the set.
    assert percentile([15, 20, 35, 40, 50], 30) == 20
    assert percentile([15, 20, 35, 40, 50], 40) == 20
    assert percentile([15, 20, 35, 40, 50], 50) == 35
    assert percentile([15, 20, 35, 40, 50], 100) == 50
    assert percentile([7], 1) == 7
    assert percentile([7], 99.9) == 7


def test_percentiles_one_sort_many_ps():
    samples = list(range(1000, 0, -1))  # unsorted on purpose
    out = percentiles(samples, (50, 99, 99.9))
    assert out == {50: 500, 99: 990, 99.9: 999}
    # p999 only reaches the true maximum once n >= 1000.
    assert percentiles(list(range(1, 1002)), (99.9,))[99.9] == 1000


def test_percentile_always_an_element():
    samples = [3, 1, 4, 1, 5, 9, 2, 6]
    for p in (1, 10, 25, 50, 75, 90, 99, 99.9, 100):
        assert percentile(samples, p) in samples


def test_percentiles_validates_input():
    with pytest.raises(ValueError):
        percentiles([])
    with pytest.raises(ValueError):
        percentiles([1], (0,))
    with pytest.raises(ValueError):
        percentiles([1], (101,))


def test_fairness_spread_edges():
    assert fairness_spread([]) == 1.0
    assert fairness_spread([0, 0]) == 1.0
    assert fairness_spread([5, 5, 5]) == 1.0
    assert fairness_spread([10, 5]) == 2.0
    assert fairness_spread([10, 0]) == float("inf")


def test_jain_index_edges():
    assert jain_index([]) == 1.0
    assert jain_index([0, 0]) == 1.0
    assert jain_index([4, 4, 4, 4]) == 1.0
    assert jain_index([1, 0, 0, 0]) == pytest.approx(0.25)


def test_breakdown_accumulates():
    bd = TimeBreakdown()
    bd.add("write_access", 100)
    bd.add("write_access", 50)
    bd.add("others", 50)
    assert bd.get("write_access") == 150
    assert bd.total() == 200


def test_breakdown_fractions():
    bd = TimeBreakdown()
    bd.add("a", 75)
    bd.add("b", 25)
    fr = bd.fractions()
    assert fr["a"] == pytest.approx(0.75)
    assert fr["b"] == pytest.approx(0.25)


def test_breakdown_empty_fractions():
    assert TimeBreakdown().fractions() == {}


def test_breakdown_zero_add_ignored():
    bd = TimeBreakdown()
    bd.add("a", 0)
    assert bd.as_dict() == {}


def _merge(breakdown, other):
    """Fold ``other``'s buckets into ``breakdown``."""
    for cat, ns in other.as_dict().items():
        breakdown.add(cat, ns)


def test_breakdown_merge():
    a = TimeBreakdown()
    a.add("x", 10)
    b = TimeBreakdown()
    b.add("x", 5)
    b.add("y", 1)
    _merge(a, b)
    assert a.get("x") == 15
    assert a.get("y") == 1


def test_stats_counters():
    stats = SimStats()
    stats.bump("buffer_hits")
    stats.bump("buffer_hits", 2)
    assert stats.count("buffer_hits") == 3
    assert stats.count("missing") == 0


def _throughput_ops_per_sec(stats, elapsed_ns):
    if elapsed_ns <= 0:
        return 0.0
    return stats.ops_completed * 1e9 / elapsed_ns


def test_stats_throughput():
    stats = SimStats()
    stats.ops_completed = 500
    assert _throughput_ops_per_sec(stats, 1_000_000_000) \
        == pytest.approx(500.0)
    assert _throughput_ops_per_sec(stats, 0) == 0.0


def test_stats_summary_is_plain_data():
    stats = SimStats()
    stats.bump("c")
    stats.breakdown.add("write_access", 7)
    stats.syscall_time_ns["fsync"] += 9
    stats.syscall_counts["fsync"] += 1
    summary = stats.summary()
    assert summary["counters"] == {"c": 1}
    assert summary["breakdown"] == {"write_access": 7}
    assert summary["syscall_time_ns"] == {"fsync": 9}
    assert summary["syscall_counts"] == {"fsync": 1}
