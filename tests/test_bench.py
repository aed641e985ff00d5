"""Ring scaling benchmark plumbing."""
import numpy as np
import pytest

from lsmdp.bench import (
    flat_counts,
    hierarchical_counts,
    ring_scaling,
    spacing_for,
)
from lsmdp.errors import InvalidSpec


def test_spacing_tracks_the_logarithm():
    assert spacing_for(3) == 2
    assert spacing_for(16) == 3
    assert spacing_for(32) == 4
    assert spacing_for(256) == 6


def test_sizes_are_validated():
    with pytest.raises(InvalidSpec):
        ring_scaling([])
    with pytest.raises(InvalidSpec):
        ring_scaling([2, 16])


@pytest.mark.parametrize("size", [8.7, 16.5, np.float64(8.7), float("nan"),
                                  float("inf"), True, np.True_])
def test_sizes_that_are_not_integers_are_rejected(size):
    # int() used to truncate 8.7 and report the row as n=8
    with pytest.raises(InvalidSpec, match="ring sizes must be integers"):
        ring_scaling([8, size])


def test_integral_float_sizes_are_taken_as_ints():
    rows, _ = ring_scaling([8.0, np.float64(12.0)])
    assert rows == ring_scaling([8, 12])[0]
    assert [type(r.n) for r in rows] == [int] * 4


def test_counts_are_deterministic():
    assert flat_counts(8) == flat_counts(8)
    assert hierarchical_counts(12) == hierarchical_counts(12)


def test_small_ring_counts_are_pinned():
    assert flat_counts(16) == (368, 256)
    assert hierarchical_counts(16) == (276, 404)
    assert flat_counts(32) == (1344, 1024)
    assert hierarchical_counts(32) == (596, 1004)


def test_large_ring_counts_are_pinned():
    assert flat_counts(128) == (18944, 16384)
    assert hierarchical_counts(128) == (2860, 5350)
    assert flat_counts(512) == (262656, 262144)
    assert hierarchical_counts(512) == (14263, 30463)


def test_single_size_reports_no_slopes():
    rows, slopes = ring_scaling([8])
    assert slopes == {}
    assert [(r.n, r.condition) for r in rows] == [(8, "flat"),
                                                  (8, "hierarchical")]
    assert all(r.total_iterations > 0 and r.nonzeros > 0 for r in rows)


def test_two_sizes_report_four_slopes():
    rows, slopes = ring_scaling([8, 16])
    assert len(rows) == 4
    assert sorted(slopes) == [
        "flat_nonzeros", "flat_total_iterations",
        "hierarchical_nonzeros", "hierarchical_total_iterations",
    ]
    assert all(s > 0 for s in slopes.values())
