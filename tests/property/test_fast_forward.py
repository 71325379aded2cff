"""Property tests of the steady-state fast forward (`repro.sim.steady`).

The fast path is a *pure optimization* under its exactness certificate:
traces, completion instants and trace summaries must be **bit-identical**
with the flag on and off, across every fault regime — zero faults (the
maximal jump), sparse faults (lock, jump, reset, re-lock), and dense faults
(the detector must keep resetting and never extrapolate at all).  These
properties are the correctness bar of the ISSUE: if any of them fails, the
fast path is wrong, not merely slow.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ltf import ltf_schedule
from repro.failures.scenarios import FaultEvent, FaultTrace
from repro.failures.simulator import StreamingSimulator
from repro.graph.examples import figure2_graph
from repro.obs.probe import MetricsProbe
from repro.platform.builders import figure2_platform
from repro.runtime.engine import OnlineRuntime
from repro.runtime.trace import summarize_trace
from repro.sim import steady
from repro.sim.kernel import PipelineKernel

SLOW = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# Integer durations and an integer period: the exactness certificate holds,
# so the fast path really engages on quiet stretches of this schedule.
_EPS1 = ltf_schedule(
    figure2_graph(), figure2_platform(10), throughput=0.05, epsilon=1,
    strict_resilience=True,
)

# One crash of this processor is tolerated under strict resilience (ε = 1),
# so a faulted stream keeps completing data sets after the fault.
_VICTIM = sorted(_EPS1.used_processors())[0]


def _fault_trace(crash_times, n):
    period = _EPS1.period
    events = []
    for t in crash_times:
        events.append(FaultEvent(t, _VICTIM, "crash"))
        events.append(FaultEvent(t + 5 * period, _VICTIM, "repair"))
    return FaultTrace(tuple(events), horizon=n * period)


# ------------------------------------------------------------------ engine
@SLOW
@given(
    n=st.integers(min_value=600, max_value=1600),
    regime=st.sampled_from(["zero", "sparse", "dense"]),
    offset=st.integers(min_value=0, max_value=400),
)
def test_engine_fast_forward_is_bit_identical(n, regime, offset):
    """``fast_forward=True`` ≡ ``fast_forward=False`` for the online engine,
    trace for trace and summary for summary, in every fault regime."""
    period = _EPS1.period
    if regime == "zero":
        crashes = []
    elif regime == "sparse":
        crashes = [(300 + offset) * period + 0.5 * period]
    else:  # dense: every ~50 data sets — never two clean windows in a row
        crashes = [t * period for t in range(40 + offset % 37, n, 50)]
    faults = _fault_trace(crashes, n)
    run = lambda ff: OnlineRuntime(
        _EPS1, faults, rebuild_beyond_epsilon=False, fast_forward=ff
    ).run(n)
    fast, full = run(True), run(False)
    assert fast == full
    assert summarize_trace(fast) == summarize_trace(full)


def test_dense_faults_never_enter_fast_forward():
    """With a fault every two admission windows the detector can never see
    two clean boundaries in a row: zero fast-forward spans, identical trace."""
    import repro.runtime.engine as engine_mod

    n = 1500
    period = _EPS1.period
    gap = engine_mod._ADMIT_WINDOW * 2  # strictly less than the 2-window lock
    crashes = [t * period for t in range(gap // 2, n, gap)]
    faults = _fault_trace(crashes, n)
    probe = MetricsProbe()
    fast = OnlineRuntime(
        _EPS1, faults, rebuild_beyond_epsilon=False, probe=probe
    ).run(n)
    assert probe.registry.counter("runtime.fast_forward.spans") == 0
    full = OnlineRuntime(
        _EPS1, faults, rebuild_beyond_epsilon=False, fast_forward=False
    ).run(n)
    assert fast == full


def test_quiet_stream_does_enter_fast_forward():
    """The flip side of the dense-fault guard: a zero-fault certified stream
    must actually jump (otherwise the properties above test nothing)."""
    n = 2000
    probe = MetricsProbe()
    faults = _fault_trace([], n)
    trace = OnlineRuntime(_EPS1, faults, probe=probe).run(n)
    assert probe.registry.counter("runtime.fast_forward.spans") >= 1
    assert probe.registry.counter("runtime.fast_forward.datasets") > n // 2
    # aggregates stay exact across the bulk path
    assert probe.registry.counter("datasets.completed") == n
    assert probe.registry.histogram("latency").total == n
    records = [r for r in trace.records if r.status == "completed"]
    assert probe.registry.gauge("latency.max") == max(
        r.completion - r.release for r in records
    )


# ----------------------------------------------------------------- offline
@SLOW
@given(
    n=st.integers(min_value=1, max_value=1400),
    crash_first=st.booleans(),
)
def test_offline_fast_forward_is_bit_identical(n, crash_first):
    """StreamingSimulator with the flag on ≡ off, including short streams
    (below the engage threshold) and crash scenarios (one processor down
    from the start — still periodic, still certified)."""
    scenario = (_VICTIM,) if crash_first else ()
    on = StreamingSimulator(_EPS1, scenario, fast_forward=True).run(n)
    off = StreamingSimulator(_EPS1, scenario, fast_forward=False).run(n)
    assert on.latencies == off.latencies
    assert on.completion_times == off.completion_times


def test_offline_fast_forward_engages_and_reports():
    n = 4000
    sim = StreamingSimulator(_EPS1)
    result = sim.run(n)
    assert sim.last_fast_forward["datasets"] > n // 2
    assert len(result.latencies) == n


# ------------------------------------------------------------- certificate
def test_certificate_holds_on_integer_schedule():
    kernel = PipelineKernel(_EPS1)
    assert steady.certified_grid(kernel, _EPS1.period, 10_000 * _EPS1.period) is not None


def test_certificate_rejects_off_grid_period():
    """A full-mantissa period produces a ~2**-51 grid: the range screen
    fails immediately and the fast path self-disables."""
    kernel = PipelineKernel(_EPS1)
    assert steady.certified_grid(kernel, math.pi, 1000 * math.pi) is None


def test_certificate_rejects_out_of_range_horizon():
    kernel = PipelineKernel(_EPS1)
    assert steady.certified_grid(kernel, _EPS1.period, float(2**60)) is None


@given(x=st.integers(min_value=1, max_value=2**40), e=st.integers(min_value=-20, max_value=20))
@settings(max_examples=50, deadline=None)
def test_lsb_exponent_is_exact(x, e):
    """``_lsb_exp(m·2**e)`` recovers the dyadic valuation for any odd m."""
    odd = 2 * x - 1
    assert steady._lsb_exp(math.ldexp(float(odd), e)) == e


# ----------------------------------------------------- detector mechanics
def test_detector_locks_and_jump_matches_full_simulation():
    """Drive the detector by hand: it must lock on a quiet certified stream,
    and the jumped kernel must finish the stream bit-identically to a kernel
    that simulated every event."""
    n, window = 2000, steady.DEFAULT_WINDOW
    period = _EPS1.period

    def drive(fast):
        kernel = PipelineKernel(_EPS1, releases_first=True)
        grid_exp = steady.certified_grid(kernel, period, n * period)
        assert grid_exp is not None
        detector = steady.SteadyStateDetector(kernel, grid_exp, period, window)
        completions = {}
        locked_at = None
        j = 0
        while j < n:
            stop = min(j + window, n)
            for k in range(j, stop):
                kernel.admit(k, k * period)
            j = stop
            if j >= n:
                break
            boundary = j * period
            drained = kernel.run_until(math.nextafter(boundary, -math.inf))
            completions.update(drained)
            if detector.observe(boundary, j, True) and fast and locked_at is None:
                locked_at = j
                m = detector.max_windows(boundary, (n - j) // window, math.inf)
                assert m >= 1
                for s in range(1, m + 1):
                    for d, t in drained[-window:]:
                        completions[d + s * window] = (t - boundary) + (
                            boundary + s * detector.delta
                        )
                detector.jump(m)
                j += m * window
        completions.update(kernel.run_to_completion())
        return completions, locked_at

    fast, locked_at = drive(True)
    full, _ = drive(False)
    assert locked_at is not None and locked_at <= 3 * window
    assert fast == full


def test_dirty_boundary_resets_the_detector():
    kernel = PipelineKernel(_EPS1, releases_first=True)
    grid_exp = steady.certified_grid(kernel, _EPS1.period, 10_000 * _EPS1.period)
    detector = steady.SteadyStateDetector(kernel, grid_exp, _EPS1.period, 4)
    period = _EPS1.period
    for k in range(8):
        kernel.admit(k, k * period)
    kernel.run_until(math.nextafter(4 * period, -math.inf))
    assert detector.observe(4 * period, 4, clean=False) is False
    assert detector._prev is None and detector.lock is None
