"""Correctness of the spec-hash result cache (`repro.cache`).

The acceptance bar of the caching layer: a hit is **bit-identical** to a cold
run, editing *any* spec field or the seed misses, ``--no-cache`` bypasses,
and corrupted entries are discarded, never trusted.
"""

from __future__ import annotations

import pickle

import pytest

from repro.api import Session
from repro.cache import (
    MISS,
    CacheStats,
    DiskCache,
    NullCache,
    campaign_key,
    canonical_json,
    open_cache,
    result_key,
)
from repro.cache import keys as cache_keys
from repro.experiments.parallel import RuntimeCampaignResult, run_runtime_campaign
from repro.scenario import ScenarioSpec

SPEC = ScenarioSpec.from_dict(
    {
        "workload": {"num_tasks": 10, "num_processors": 5},
        "scheduler": {"epsilon": 1},
        "faults": {"mttf_periods": 40.0},
        "runtime": {"num_datasets": 15},
    }
)


class TestKeys:
    def test_key_is_deterministic_and_order_independent(self):
        a = result_key("campaign", SPEC, 3, trials=2)
        b = result_key("campaign", ScenarioSpec.from_dict(SPEC.to_dict()), 3, trials=2)
        assert a == b
        assert len(a) == 64 and set(a) <= set("0123456789abcdef")

    def test_canonical_json_sorts_keys_and_normalizes_tuples(self):
        assert canonical_json({"b": 1, "a": (1, 2)}) == '{"a":[1,2],"b":1}'

    def test_canonical_json_rejects_non_json_values(self):
        with pytest.raises(TypeError, match="JSON types"):
            canonical_json({"x": object()})
        with pytest.raises(TypeError, match="string dict keys"):
            canonical_json({1: "x"})
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_seed_and_kind_and_extra_change_the_key(self):
        base = result_key("campaign", SPEC, 3, trials=2)
        assert result_key("campaign", SPEC, 4, trials=2) != base
        assert result_key("online", SPEC, 3, trials=2) != base
        assert result_key("campaign", SPEC, 3, trials=3) != base

    @pytest.mark.parametrize(
        "path, value",
        [
            ("name", "other"),
            ("workload.num_tasks", 11),
            ("workload.granularity", 2.0),
            ("scheduler.epsilon", 0),
            ("scheduler.period_slack", 3.0),
            ("faults.mttf_periods", 41.0),
            ("faults.mttr_periods", 10.0),
            ("faults.distribution", "weibull"),
            ("runtime.num_datasets", 16),
            ("runtime.policy", "remap"),
            ("runtime.rebuild_on_repair", True),
        ],
    )
    def test_editing_any_spec_field_changes_the_key(self, path, value):
        base = campaign_key(SPEC, 3, 2)
        assert campaign_key(SPEC.updated({path: value}), 3, 2) != base

    def test_code_version_is_part_of_the_key(self, monkeypatch):
        base = campaign_key(SPEC, 3, 2)
        monkeypatch.setattr(cache_keys, "cache_code_version", lambda: "999.0.0")
        assert campaign_key(SPEC, 3, 2) != base


class TestDiskCache:
    def test_round_trip_is_bit_identical(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = result_key("unit", SPEC, 0)
        value = {"nested": (1.5, None), "spec": SPEC}
        cache.put(key, value)
        loaded = cache.get(key)
        assert loaded == value
        assert pickle.dumps(loaded) == pickle.dumps(value)
        assert cache.stats.hits == 1 and cache.stats.writes == 1

    def test_unknown_key_misses(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.get("ab" * 32) is MISS
        assert cache.stats.misses == 1 and cache.stats.errors == 0

    @pytest.mark.parametrize(
        "corruption",
        ["truncate", "garbage", "flip-checksum", "bad-magic", "wrong-key"],
    )
    def test_corrupted_entries_are_discarded_not_trusted(self, tmp_path, corruption):
        cache = DiskCache(tmp_path)
        key = result_key("unit", SPEC, 1)
        cache.put(key, [1, 2, 3])
        path = cache.path_of(key)
        blob = path.read_bytes()
        if corruption == "truncate":
            path.write_bytes(blob[: len(blob) // 2])
        elif corruption == "garbage":
            path.write_bytes(b"not a cache entry at all")
        elif corruption == "flip-checksum":
            path.write_bytes(blob[:-3] + bytes([blob[-3] ^ 0xFF]) + blob[-2:])
        elif corruption == "bad-magic":
            path.write_bytes(b"X" + blob[1:])
        elif corruption == "wrong-key":
            other = result_key("unit", SPEC, 2)
            cache.put(other, [9])
            path.write_bytes(cache.path_of(other).read_bytes())
        assert cache.get(key) is MISS
        assert cache.stats.errors >= 1
        assert not path.exists(), "untrustworthy entry must be deleted"
        # the slot is reusable after the discard
        cache.put(key, [4, 5])
        assert cache.get(key) == [4, 5]

    def test_transient_read_error_misses_without_deleting(self, tmp_path, monkeypatch):
        """An EIO-style read failure must not destroy a valid entry."""
        from pathlib import Path

        cache = DiskCache(tmp_path)
        key = result_key("unit", SPEC, 8)
        cache.put(key, [1, 2])
        path = cache.path_of(key)
        real_read = Path.read_bytes

        def flaky_read(self):
            if self == path:
                raise OSError(5, "Input/output error")
            return real_read(self)

        monkeypatch.setattr(Path, "read_bytes", flaky_read)
        assert cache.get(key) is MISS
        monkeypatch.undo()
        assert path.exists(), "transient failure must not unlink the entry"
        assert cache.stats.errors == 1
        assert cache.get(key) == [1, 2]  # readable again → served

    def test_expected_type_mismatch_is_treated_as_corruption(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = result_key("unit", SPEC, 3)
        cache.put(key, "a string, not a campaign")
        assert cache.get(key, expect=RuntimeCampaignResult) is MISS
        assert cache.stats.errors == 1
        assert not cache.path_of(key).exists()

    def test_unpicklable_value_is_counted_not_raised(self, tmp_path):
        """put() must never kill a campaign — pickle raises TypeError (not
        PicklingError) for values like thread locks."""
        import threading

        cache = DiskCache(tmp_path)
        key = result_key("unit", SPEC, 9)
        cache.put(key, {"lock": threading.Lock()})
        assert cache.stats.errors == 1 and cache.stats.writes == 0
        assert cache.get(key) is MISS

    def test_null_cache_never_stores(self):
        cache = NullCache()
        cache.put("ab" * 32, [1])
        assert cache.get("ab" * 32) is MISS
        assert cache.stats.hits == 0 and cache.stats.misses == 1
        assert not cache.enabled

    def test_open_cache_coercions(self, tmp_path):
        assert isinstance(open_cache(None), NullCache)
        assert isinstance(open_cache(tmp_path, enabled=False), NullCache)
        disk = open_cache(tmp_path)
        assert isinstance(disk, DiskCache) and disk.root == tmp_path
        assert open_cache(disk) is disk

    def test_open_cache_passes_through_custom_backends(self):
        """Any object with get/put (a future S3/HTTP backend) passes through."""

        class MemoryCache:
            enabled = True

            def __init__(self):
                self.stats = CacheStats()
                self.store = {}

            def get(self, key, expect=None):
                if key in self.store:
                    self.stats.hits += 1
                    return self.store[key]
                self.stats.misses += 1
                return MISS

            def put(self, key, value):
                self.store[key] = value

        backend = MemoryCache()
        assert open_cache(backend) is backend
        # and it works end-to-end through a campaign
        cold = run_runtime_campaign(SPEC, trials=1, seed=0, cache=backend)
        warm = run_runtime_campaign(SPEC, trials=1, seed=0, cache=backend)
        assert warm == cold and backend.stats.hits == 1

    def test_stats_accounting(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == 0.75
        snap = stats.snapshot()
        stats.hits += 1
        assert snap.hits == 3
        assert "75% hit rate" in stats.describe() or "80% hit rate" in stats.describe()


class TestCampaignCaching:
    def test_hit_returns_bit_identical_result_to_a_cold_run(self, tmp_path):
        cache = DiskCache(tmp_path)
        cold = run_runtime_campaign(SPEC, trials=2, seed=5, cache=cache)
        warm = run_runtime_campaign(SPEC, trials=2, seed=5, cache=cache)
        uncached = run_runtime_campaign(SPEC, trials=2, seed=5)
        assert warm == cold == uncached
        assert pickle.dumps(warm) == pickle.dumps(uncached)
        assert cache.stats.hits == 1 and cache.stats.writes == 1

    def test_editing_spec_or_seed_misses(self, tmp_path):
        cache = DiskCache(tmp_path)
        run_runtime_campaign(SPEC, trials=2, seed=5, cache=cache)
        run_runtime_campaign(SPEC, trials=2, seed=6, cache=cache)
        run_runtime_campaign(
            SPEC.updated({"faults.mttf_periods": 50.0}), trials=2, seed=5, cache=cache
        )
        assert cache.stats.hits == 0
        assert cache.stats.writes == 3

    def test_no_cache_bypasses(self, tmp_path):
        null = NullCache()
        run_runtime_campaign(SPEC, trials=2, seed=5, cache=null)
        run_runtime_campaign(SPEC, trials=2, seed=5, cache=null)
        assert null.stats.hits == 0
        # and a NullCache never touched the disk path at all
        disk = DiskCache(tmp_path)
        assert disk.get(campaign_key(SPEC, 5, 2)) is MISS

    def test_session_monte_carlo_accepts_a_cache(self, tmp_path):
        session = Session(SPEC)
        cold = session.monte_carlo(trials=2, seed=1, cache=tmp_path)
        warm = session.monte_carlo(trials=2, seed=1, cache=tmp_path)
        assert warm.campaign == cold.campaign
        assert warm.summary() == cold.summary()


class TestSourceDigestVersion:
    def test_code_version_carries_a_source_digest(self):
        version = cache_keys.cache_code_version()
        from repro import __version__

        assert version.startswith(f"{__version__}+src.")
        assert version == cache_keys.cache_code_version()  # stable in-process

    def test_source_digest_changes_with_content_and_layout(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1\n")
        baseline = cache_keys.source_digest.__wrapped__(str(tmp_path))
        (tmp_path / "m.py").write_text("x = 2\n")
        edited = cache_keys.source_digest.__wrapped__(str(tmp_path))
        assert edited != baseline
        (tmp_path / "extra.py").write_text("")
        grown = cache_keys.source_digest.__wrapped__(str(tmp_path))
        assert grown not in (baseline, edited)

    def test_editing_execution_source_rekeys_the_cache(self, monkeypatch):
        """The stale-checkout hazard: a source edit must change every key."""
        before = campaign_key(SPEC, seed=1, trials=2)
        monkeypatch.setattr(
            cache_keys, "cache_code_version", lambda: "1.0.0+src.feedfeedfeed"
        )
        assert campaign_key(SPEC, seed=1, trials=2) != before


class TestCacheMaintenance:
    def _fill(self, cache, n=4, size=1000):
        for i in range(n):
            cache.put("ab" + f"{i:062x}", b"x" * size)

    def test_entries_and_usage(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.usage().entries == 0
        self._fill(cache, n=3)
        (tmp_path / "stray.txt").write_text("not an entry")
        entries = list(cache.entries())
        assert len(entries) == 3
        usage = cache.usage()
        assert usage.entries == 3
        assert usage.total_bytes == sum(e.size for e in entries)
        assert usage.oldest_used <= usage.newest_used
        assert (tmp_path / "stray.txt").exists()  # never deleted

    def test_gc_evicts_lru_first_and_respects_bound(self, tmp_path):
        import os

        cache = DiskCache(tmp_path)
        self._fill(cache, n=4)
        entries = sorted(cache.entries(), key=lambda e: e.key)
        # make entry 0 the stalest and entry 1 the freshest by far
        os.utime(entries[0].path, (1, 1))
        os.utime(entries[1].path, (2_000_000_000, 2_000_000_000))
        keep = cache.usage().total_bytes - entries[0].size
        evicted = cache.gc(keep)
        assert [e.key for e in evicted] == [entries[0].key]
        assert cache.usage().total_bytes <= keep

    def test_gc_zero_empties_and_lookup_recomputes(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = campaign_key(SPEC, seed=0, trials=2)
        cache.put(key, "payload")
        assert cache.gc(0) != []
        assert cache.usage().entries == 0
        assert cache.get(key) is MISS  # clean miss, not an error

    def test_hits_touch_the_entry(self, tmp_path):
        import os

        cache = DiskCache(tmp_path)
        cache.put("ab" + "0" * 62, "a")
        cache.put("cd" + "0" * 62, "b")
        stale, fresh = sorted(cache.entries(), key=lambda e: e.key)
        os.utime(stale.path, (1, 1))
        os.utime(fresh.path, (2, 2))
        assert cache.get(stale.key) == "a"  # the hit must refresh its mtime
        ordered = sorted(cache.entries(), key=lambda e: e.used)
        assert ordered[0].key == fresh.key
        assert cache.gc(max(fresh.size, stale.size)) [0].key == fresh.key

    def test_gc_rejects_negative_bound(self, tmp_path):
        with pytest.raises(ValueError):
            DiskCache(tmp_path).gc(-1)

    def test_cli_cache_ls_and_gc(self, tmp_path, capsys):
        from repro.cli import main

        cache = DiskCache(tmp_path / "c")
        self._fill(cache, n=3, size=2048)
        assert main(["cache", "ls", "--cache-dir", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "3" in out
        assert main(
            ["cache", "gc", "--max-size", "3K", "--cache-dir", str(tmp_path / "c")]
        ) == 0
        out = capsys.readouterr().out
        assert "evicted" in out
        assert cache.usage().total_bytes <= 3 * 1024


def test_cache_gc_size_argument_rejects_garbage():
    import argparse

    from repro.cli import _parse_size

    assert _parse_size("2K") == 2048
    assert _parse_size("0") == 0
    assert _parse_size("1.5M") == int(1.5 * 1024**2)
    for bad in ("inf", "nan", "-1", "-2K", "bogus", "12Q"):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_size(bad)


class TestConcurrentAccess:
    """The service makes concurrent cache access a real workload: several
    worker threads (and, with a shared cache dir, several processes) hit one
    directory at once.  The contract under contention is the same as under
    corruption — a reader sees either a complete, checksum-valid value or a
    miss; it never sees torn data and never raises."""

    KEY = "ab" + "0" * 62

    def test_two_writers_racing_one_key_leave_a_valid_entry(self, tmp_path):
        import threading

        cache = DiskCache(tmp_path)
        barrier = threading.Barrier(2)
        errors = []

        def writer(value):
            # one private DiskCache per thread, as service workers would hold
            own = DiskCache(tmp_path)
            barrier.wait()
            try:
                for _ in range(100):
                    own.put(self.KEY, value)
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        payload_a = {"writer": "a", "rows": list(range(500))}
        payload_b = {"writer": "b", "rows": list(range(500, 1000))}
        threads = [
            threading.Thread(target=writer, args=(payload_a,)),
            threading.Thread(target=writer, args=(payload_b,)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # last replace wins; whichever won, the entry is complete and valid
        value = cache.get(self.KEY, expect=dict)
        assert value in (payload_a, payload_b)
        assert cache.stats.errors == 0
        # the atomic-write protocol leaks no temp files
        assert not list(tmp_path.rglob("*.tmp"))

    def test_reader_during_atomic_replace_sees_whole_values_or_misses(
        self, tmp_path
    ):
        import threading

        key = self.KEY
        stop = threading.Event()
        torn = []

        def writer():
            own = DiskCache(tmp_path)
            version = 0
            while not stop.is_set():
                version += 1
                # the value is self-describing: any mix of two writes would
                # fail the entry checksum and read as a miss, not as this
                own.put(key, {"version": version, "fill": [version] * 400})

        reader_cache = DiskCache(tmp_path)
        # seed the entry so every reader iteration races a *replace*, not the
        # creation of the first version
        DiskCache(tmp_path).put(key, {"version": 0, "fill": [0] * 400})
        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        try:
            hits = 0
            for _ in range(300):
                value = reader_cache.get(key, expect=dict)
                if value is MISS:
                    continue
                hits += 1
                if value["fill"] != [value["version"]] * 400:
                    torn.append(value["version"])  # pragma: no cover
        finally:
            stop.set()
            writer_thread.join()
        assert not torn
        assert hits > 0  # the race was actually exercised
        # FileNotFoundError before the first write is a clean miss, never an
        # error; no discard path fired under pure replace contention
        assert reader_cache.stats.errors == 0
