"""Unit tests of the shared discrete-event simulation kernel (repro.sim)."""

import heapq
import math

import pytest
from conftest import completions, offline_run

from repro.core.ltf import ltf_schedule
from repro.exceptions import ScheduleError
from repro.graph.examples import figure2_graph
from repro.platform.builders import figure2_platform
from repro.sim.events import EventQueue
from repro.sim.kernel import PipelineKernel


@pytest.fixture(scope="module")
def strict():
    """Figure 2 workflow, ε = 1, kill-set-disjoint replicas (strict resilience)."""
    return ltf_schedule(
        figure2_graph(), figure2_platform(10), throughput=0.05, epsilon=1,
        strict_resilience=True,
    )


def _pop(q: EventQueue) -> tuple:
    """Pop the earliest entry the way the kernel does: straight off the heap."""
    return heapq.heappop(q.heap)


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(3.0, 0, 1)
        q.push(1.0, 1, 2)
        q.push(2.0, 2, 3)
        assert [_pop(q)[0] for _ in range(3)] == [1.0, 2.0, 3.0]

    def test_fifo_on_ties(self):
        q = EventQueue()
        for k in range(5):
            q.push(1.0, 0, k)
        assert [_pop(q)[3] for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_kind_never_participates_in_ordering(self):
        # (time, seq) is always a unique sort key: same-time events pop in
        # push order even when their kinds sort the other way
        q = EventQueue()
        q.push(1.0, 9, "first")
        q.push(1.0, 0, "second")
        assert [_pop(q)[3] for _ in range(2)] == ["first", "second"]

    def test_push_builds_flat_entries(self):
        # operands are spliced into the entry: no payload tuple per event
        q = EventQueue()
        q.push(4.5, 2, "a", "b", None)
        assert q.heap == [(4.5, 1, 2, "a", "b", None)]
        assert len(q) == 1
        _pop(q)
        assert not q

    def test_batch_sequence_numbering_matches_push(self):
        """next_seq/set_next_seq let batch admission hand-build heap entries
        with exactly the sequence numbers a push loop would have drawn."""
        q = EventQueue()
        q.push(5.0, 0, "pushed")
        seq = q.next_seq()
        q.heap.extend((1.0, s, 0, f"batch{i}") for i, s in enumerate((seq, seq + 1)))
        q.set_next_seq(seq + 2)
        heapq.heapify(q.heap)
        assert [_pop(q)[3] for _ in range(3)] == ["batch0", "batch1", "pushed"]
        q.push(0.5, 0, "after")  # the counter really advanced past the batch
        assert _pop(q) == (0.5, 4, 0, "after")
        with pytest.raises(ValueError):
            q.set_next_seq(1)  # sequence numbers must never move backwards


class TestBatchKernel:
    def test_batch_matches_offline_run(self, strict):
        n = 12
        releases = [j * strict.period for j in range(n)]
        kernel = PipelineKernel(strict)
        kernel.admit_batch(releases)
        done = dict(kernel.run_to_completion())
        assert tuple(done[j] for j in range(n)) == completions(offline_run(strict, n))

    def test_incremental_admission_matches_batch(self, strict):
        n = 10
        releases = [j * strict.period for j in range(n)]
        batch = PipelineKernel(strict)
        batch.admit_batch(releases)
        incremental = PipelineKernel(strict)
        for j, r in enumerate(releases):
            incremental.admit(j, r)
        assert incremental.run_to_completion() == batch.run_to_completion()

    def test_run_until_is_progressive(self, strict):
        kernel = PipelineKernel(strict)
        kernel.admit_batch([j * strict.period for j in range(8)])
        early = kernel.run_until(strict.period)
        assert all(t <= strict.period for _, t in early)
        rest = kernel.run_to_completion()
        done = dict(early) | dict(rest)
        assert sorted(done) == list(range(8))
        assert kernel.pending_datasets() == ()

    def test_double_admission_raises(self, strict):
        kernel = PipelineKernel(strict)
        kernel.admit(0, 0.0)
        with pytest.raises(ScheduleError):
            kernel.admit(0, 1.0)

    def test_incomplete_schedule_rejected(self, strict):
        from repro.schedule.schedule import Schedule

        incomplete = Schedule(strict.graph, strict.platform, period=20.0, epsilon=1)
        with pytest.raises(ScheduleError):
            PipelineKernel(incomplete)

    def test_exit_coverage_enforced(self, strict):
        used = strict.used_processors()
        with pytest.raises(ScheduleError):
            PipelineKernel(strict, failed=used)


class TestMidRunCrash:
    def test_tolerated_crash_mid_run_still_completes(self, strict):
        """ε = 1, strict resilience: killing one processor mid-run loses nothing."""
        victim = strict.used_processors()[0]
        n = 15
        kernel = PipelineKernel(strict)
        for j in range(n):
            kernel.admit(j, j * strict.period)
        crash_time = 4.5 * strict.period
        done = dict(kernel.run_until(crash_time))
        kernel.crash(victim)
        done.update(kernel.run_to_completion())
        assert sorted(done) == list(range(n))

    def test_crash_degrades_latency_of_in_flight_work(self, strict):
        victim = strict.used_processors()[0]
        n = 10
        baseline = PipelineKernel(strict)
        baseline.admit_batch([j * strict.period for j in range(n)])
        expected = dict(baseline.run_to_completion())
        crashed = PipelineKernel(strict)
        for j in range(n):
            crashed.admit(j, j * strict.period)
        done = dict(crashed.run_until(2.5 * strict.period))
        crashed.crash(victim)
        done.update(crashed.run_to_completion())
        # nothing lost, and the crash really interleaved with the pipeline:
        # at least one in-flight data set completes at a different instant
        # (losing the victim changes both the compute and the port contention)
        assert sorted(done) == list(range(n))
        assert any(done[j] != expected[j] for j in range(n))

    def test_crash_outside_the_platform_changes_nothing(self, strict):
        # an elastic pool member that never joined hosts nothing here
        n = 10
        baseline = PipelineKernel(strict)
        crashed = PipelineKernel(strict)
        for kernel in (baseline, crashed):
            for j in range(n):
                kernel.admit(j, j * strict.period)
            kernel.run_until(2.5 * strict.period)
        crashed.crash("spare-1")
        assert baseline.run_to_completion() == crashed.run_to_completion()


class TestCheckpointRestore:
    def test_restored_outputs_are_not_recomputed(self, strict):
        probe = PipelineKernel(strict)
        probe.admit(0, 0.0)
        [(_, full_latency)] = probe.run_to_completion()

        restore_at = 100.0
        restored = PipelineKernel(strict)
        # restore everything except the exit tasks: only they recompute
        partial = frozenset(strict.graph.task_names) - frozenset(strict.graph.exit_tasks())
        restored.admit_restored(0, restore_at, partial)
        [(_, completion)] = restored.run_to_completion()
        assert completion - restore_at < full_latency

    def test_restore_with_no_checkpoint_is_plain_admission(self, strict):
        a = PipelineKernel(strict)
        a.admit(0, 5.0)
        b = PipelineKernel(strict)
        b.admit_restored(0, 5.0, ())
        assert a.run_to_completion() == b.run_to_completion()

    def test_completed_tasks_grow_monotonically(self, strict):
        """The checkpoint of an in-flight data set only grows, event instant
        by event instant, until the data set completes and is evicted."""
        kernel = PipelineKernel(strict)
        kernel.admit(0, 0.0)
        snapshots = []
        while kernel.pending_datasets():
            snapshots.append(kernel.completed_tasks(0))
            kernel.run_until(kernel._queue.heap[0][0])
        assert all(a <= b for a, b in zip(snapshots, snapshots[1:]))
        exits = frozenset(strict.graph.exit_tasks())
        assert snapshots[-1] | exits == frozenset(strict.graph.task_names)
        kernel.run_to_completion()
        assert kernel.completed_tasks(0) == frozenset()  # evicted


#: release instants every admission method must refuse
BAD_INSTANTS = [math.nan, math.inf, -math.inf, -1.0]


class TestAdmissionRejectsBadInstants:
    """A NaN, infinite or negative release is a ScheduleError that names the
    argument, raised before anything is registered.  Unchecked, a NaN
    release "completed" at an arbitrary instant, and a stream whose
    ``j·period`` overflowed returned infinite completions."""

    @staticmethod
    def _rejects(kernel, match, admit):
        with pytest.raises(ScheduleError, match=match):
            admit()
        assert kernel.live_datasets == 0
        assert len(kernel._queue) == 0

    @pytest.mark.parametrize("bad", BAD_INSTANTS)
    def test_admit(self, strict, bad):
        kernel = PipelineKernel(strict)
        self._rejects(kernel, "release", lambda: kernel.admit(0, bad))

    @pytest.mark.parametrize("bad", BAD_INSTANTS)
    def test_admit_batch(self, strict, bad):
        kernel = PipelineKernel(strict)
        self._rejects(
            kernel, r"releases\[1\]", lambda: kernel.admit_batch([0.0, bad, 2.0])
        )

    @pytest.mark.parametrize("bad", BAD_INSTANTS)
    def test_admit_restored(self, strict, bad):
        kernel = PipelineKernel(strict)
        self._rejects(kernel, "restore", lambda: kernel.admit_restored(0, bad, ()))

    @pytest.mark.parametrize("reserved", [0, 2])
    def test_finite_period_overflowing_to_infinity(self, strict, reserved):
        kernel = PipelineKernel(strict)
        kernel.reserve(reserved)
        self._rejects(kernel, "release", lambda: kernel.admit(3, 3 * 1e308))

    @pytest.mark.parametrize("reserved", [0, 2])
    def test_zero_release_and_period_are_valid(self, strict, reserved):
        kernel = PipelineKernel(strict)
        kernel.reserve(reserved)
        kernel.admit(0, 0.0)
        kernel.admit(1, 0.0)  # a zero period: every release at instant 0
        assert sorted(j for j, _ in kernel.run_to_completion()) == [0, 1]
