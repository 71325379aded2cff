"""Unit tests of the shared discrete-event simulation kernel (repro.sim)."""

import heapq
import math

import pytest
from conftest import completions, offline_run

from repro.core.ltf import ltf_schedule
from repro.exceptions import ScheduleError
from repro.graph.examples import figure2_graph
from repro.platform.builders import figure2_platform
from repro.sim import kernel as kernel_module
from repro.sim.kernel import PipelineKernel


@pytest.fixture(scope="module")
def strict():
    """Figure 2 workflow, ε = 1, kill-set-disjoint replicas (strict resilience)."""
    return ltf_schedule(
        figure2_graph(), figure2_platform(10), throughput=0.05, epsilon=1,
        strict_resilience=True,
    )


def _pop(kernel: PipelineKernel) -> tuple:
    """Pop the earliest entry the way the kernel's loop does: off its heap."""
    return heapq.heappop(kernel._heap)


class TestEventHeap:
    """The kernel's event heap: ``(time, seq)`` order, FIFO on ties."""

    def test_orders_by_time(self, strict):
        kernel = PipelineKernel(strict)
        for j, release in enumerate((3.0, 1.0, 2.0)):
            kernel.admit(j, release)
        assert [_pop(kernel)[0] for _ in range(3)] == [1.0, 2.0, 3.0]

    def test_fifo_on_ties(self, strict):
        kernel = PipelineKernel(strict)
        for j in range(5):
            kernel.admit(j, 1.0)
        assert [_pop(kernel)[4][kernel_module._INDEX] for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_entries_are_flat(self, strict):
        # (time, seq, kind, operand, record): no payload tuple per event, and
        # the unique (time, seq) prefix keeps the kind out of the ordering
        kernel = PipelineKernel(strict)
        kernel.admit(0, 4.5)
        (entry,) = kernel._heap
        assert entry[:4] == (4.5, 1, kernel_module._RELEASE_ALL, None)
        assert entry[4][kernel_module._INDEX] == 0

    def test_batch_numbering_matches_a_push_loop(self, strict):
        """admit_batch hand-builds its entries with exactly the sequence
        numbers a push loop would have drawn, and the counter moves past
        them."""
        kernel = PipelineKernel(strict)
        kernel.admit_batch([1.0, 1.0])
        entries = 2 * len(kernel._entry_states)
        kernel.admit(2, 0.5)
        assert sorted(entry[1] for entry in kernel._heap) == list(range(1, entries + 2))
        assert _pop(kernel)[:2] == (0.5, entries + 1)

    def test_reserve_draws_numbers_ahead(self, strict):
        """A reserved admission wins the same-instant ties against every
        event pushed after its reservation, however late it is admitted."""
        kernel = PipelineKernel(strict)
        kernel.reserve(1)
        kernel.admit_restored(1, 1.0, ())
        kernel.admit(0, 1.0)
        first = _pop(kernel)
        assert first[1] == 1 and first[4][kernel_module._INDEX] == 0
        assert all(entry[1] > 1 for entry in kernel._heap)


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
            kernel.run_until(kernel._heap[0][0])
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
        assert not kernel._heap

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
