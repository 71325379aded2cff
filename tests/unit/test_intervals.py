"""Unit tests for the busy-interval timelines (one-port substrate)."""

import pytest

from repro.utils.intervals import _EPS, Interval, Timeline, earliest_common_slot


class TestInterval:
    def test_duration(self):
        assert Interval(2.0, 5.0).duration == 3.0

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            Interval(5.0, 2.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Interval(float("nan"), 2.0)

    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ((0, 2), (1, 3), True),
            ((0, 2), (2, 3), False),
            ((0, 2), (3, 4), False),
            ((1, 4), (0, 10), True),
        ],
    )
    def test_overlaps(self, a, b, expected):
        assert Interval(*a).overlaps(Interval(*b)) is expected

    def test_contains(self):
        iv = Interval(1.0, 2.0)
        assert iv.contains(1.0)
        assert iv.contains(1.5)
        assert not iv.contains(2.0)
        assert not iv.contains(0.5)


class TestTimeline:
    def test_empty_timeline(self):
        tl = Timeline()
        assert len(tl) == 0
        assert tl.busy_time == 0.0
        assert tl.makespan == 0.0
        assert tl.earliest_slot(3.0, 2.0) == 3.0

    def test_reserve_and_query(self):
        tl = Timeline()
        tl.reserve(0.0, 5.0)
        assert tl.busy_time == 5.0
        assert tl.makespan == 5.0
        assert not tl.is_free(2.0, 1.0)
        assert tl.is_free(5.0, 1.0)

    def test_reserve_overlap_rejected(self):
        tl = Timeline()
        tl.reserve(0.0, 5.0)
        with pytest.raises(ValueError):
            tl.reserve(4.0, 2.0)

    def test_zero_duration_always_fits(self):
        tl = Timeline()
        tl.reserve(0.0, 5.0)
        assert tl.is_free(2.0, 0.0)
        tl.reserve(2.0, 0.0)  # no-op, no error
        assert tl.busy_time == 5.0

    def test_earliest_slot_skips_busy_intervals(self):
        tl = Timeline()
        tl.reserve(0.0, 5.0)
        tl.reserve(6.0, 4.0)
        # a 1-unit gap exists between 5 and 6
        assert tl.earliest_slot(0.0, 1.0) == 5.0
        # a 2-unit job does not fit into the gap
        assert tl.earliest_slot(0.0, 2.0) == 10.0

    def test_earliest_slot_respects_ready_time(self):
        tl = Timeline()
        tl.reserve(0.0, 2.0)
        assert tl.earliest_slot(7.0, 1.0) == 7.0

    def test_insertion_into_gap(self):
        tl = Timeline()
        tl.reserve(0.0, 2.0)
        tl.reserve(10.0, 2.0)
        slot = tl.earliest_slot(0.0, 3.0)
        assert slot == 2.0
        tl.reserve(slot, 3.0)
        assert tl.busy_time == 7.0

    def test_intervals_sorted(self):
        tl = Timeline()
        tl.reserve(10.0, 1.0)
        tl.reserve(0.0, 1.0)
        tl.reserve(5.0, 1.0)
        starts = [iv.start for iv in tl.intervals]
        assert starts == sorted(starts)

    def test_copy_is_independent(self):
        tl = Timeline()
        tl.reserve(0.0, 1.0)
        clone = tl.copy()
        clone.reserve(5.0, 1.0)
        assert len(tl) == 1
        assert len(clone) == 2

    def test_constructor_from_intervals(self):
        tl = Timeline([Interval(3.0, 4.0), Interval(0.0, 1.0)])
        assert len(tl) == 2
        assert tl.makespan == 4.0

    def test_labels_follow_their_intervals(self):
        tl = Timeline()
        tl.reserve(5.0, 1.0, "late")
        assert tl.intervals == (Interval(5.0, 6.0),)
        tl.reserve(0.0, 1.0, "early")  # a read before this one must not stick
        assert [(iv.start, iv.end, iv.label) for iv in tl] == [
            (0.0, 1.0, "early"),
            (5.0, 6.0, "late"),
        ]
        assert tl.intervals is tl.intervals  # built once per change

    @pytest.mark.parametrize(
        "start,duration",
        [(float("nan"), 1.0), (0.0, float("nan")), (float("nan"), 0.0), (0.0, -1.0)],
    )
    def test_invalid_reservations_rejected(self, start, duration):
        tl = Timeline()
        with pytest.raises(ValueError):
            tl.reserve(start, duration)
        assert len(tl) == 0

    def test_earliest_slot_tolerance_case(self):
        """Within ``_EPS`` of the end of [0, 1), a request starts before it."""
        tl = Timeline()
        tl.reserve(0.0, 1.0)
        assert tl.earliest_slot(0.9, 0.5) == 1.0
        assert tl.earliest_slot(1 - 5e-10, 0.5) == 0.9999999995

    def test_earliest_slot_is_not_monotone(self):
        """A gap 1.4·_EPS shorter than the request takes it from a ready
        time just before the gap but not from an earlier one: a slot
        search at a lower bound of the ready time bounds nothing, and
        ``slot_floor`` does."""
        tl = Timeline()
        tl.reserve(0.0, 1 + 0.9 * _EPS)
        tl.reserve(1.5 - 0.5 * _EPS, 0.5)
        assert tl.earliest_slot(0.5, 0.5) == 2.0 - 0.5 * _EPS
        assert tl.earliest_slot(1.0, 0.5) == 1.0
        assert tl.slot_floor(0.5, 0.5) <= 1.0

    def test_slot_floor(self):
        tl = Timeline()
        assert tl.slot_floor(3.0, 2.0) == 3.0
        tl.reserve(0.0, 1.0)
        tl.reserve(4.0, 1.0)
        assert tl.slot_floor(0.5, 0.0) == 0.5  # zero-length requests never wait
        assert tl.slot_floor(0.5, 2.0) == 1.0 - 2 * _EPS
        assert tl.slot_floor(0.5, 4.0) == 5.0 - 2 * _EPS
        assert tl.slot_floor(2.0, 1.0) == 2.0


class TestEarliestCommonSlot:
    def test_no_timelines(self):
        assert earliest_common_slot([], 3.0, 2.0) == 3.0

    def test_two_free_timelines(self):
        assert earliest_common_slot([Timeline(), Timeline()], 1.0, 2.0) == 1.0

    def test_one_busy_timeline_pushes_the_slot(self):
        a, b = Timeline(), Timeline()
        a.reserve(0.0, 5.0)
        assert earliest_common_slot([a, b], 0.0, 2.0) == 5.0

    def test_interleaved_busy_periods(self):
        a, b = Timeline(), Timeline()
        a.reserve(0.0, 2.0)
        b.reserve(2.0, 2.0)
        a.reserve(4.0, 2.0)
        # first instant where both are free for 1 unit is 6
        assert earliest_common_slot([a, b], 0.0, 1.5) == 6.0

    def test_zero_duration(self):
        a = Timeline()
        a.reserve(0.0, 5.0)
        assert earliest_common_slot([a], 1.0, 0.0) == 1.0

    def test_result_is_actually_free(self):
        a, b = Timeline(), Timeline()
        a.reserve(1.0, 3.0)
        a.reserve(6.0, 1.0)
        b.reserve(0.0, 2.0)
        b.reserve(5.0, 2.0)
        slot = earliest_common_slot([a, b], 0.0, 1.0)
        assert a.is_free(slot, 1.0)
        assert b.is_free(slot, 1.0)
