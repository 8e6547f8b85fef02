"""SharedLRUCache under real threads: the live frame server's usage.

The cache started life single-threaded (one harness process); the live
frame server builds sessions on worker threads, so every operation must
hold the lock and ``get_or_build`` must be single-flight.  These tests
fail against the pre-fix unlocked cache: concurrent misses ran the
builder once per thread, and racing ``put`` calls corrupted the
``OrderedDict``/byte accounting.
"""

from __future__ import annotations

import threading
import time

from repro.workloads import SharedLRUCache


def _run_threads(count, target):
    threads = [threading.Thread(target=target, args=(index,))
               for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    assert not any(thread.is_alive() for thread in threads)


class TestSingleFlight:
    def test_concurrent_misses_build_once(self):
        cache = SharedLRUCache(name="t", max_entries=8)
        builds = []
        barrier = threading.Barrier(8)
        results = [None] * 8

        def builder():
            builds.append(threading.get_ident())
            time.sleep(0.05)  # widen the race window
            return object()

        def worker(index):
            barrier.wait()
            results[index] = cache.get_or_build("key", builder)

        _run_threads(8, worker)
        assert len(builds) == 1
        assert all(value is results[0] for value in results)
        # Exactly one lookup counted per caller: one miss, the rest hits.
        assert cache.stats.misses == 1
        assert cache.stats.hits == 7

    def test_failed_build_hands_over_to_a_waiter(self):
        cache = SharedLRUCache(name="t", max_entries=8)
        attempts = []
        barrier = threading.Barrier(4)
        results = [None] * 4
        errors = []

        def builder():
            attempts.append(1)
            if len(attempts) == 1:
                time.sleep(0.02)
                raise RuntimeError("first build dies")
            return "ok"

        def worker(index):
            barrier.wait()
            try:
                results[index] = cache.get_or_build("key", builder)
            except RuntimeError as exc:
                errors.append(exc)

        _run_threads(4, worker)
        # The failing thread sees its own exception; every waiter retries
        # and one of them completes the build for the rest.
        assert len(errors) == 1
        assert [r for r in results if r is not None].count("ok") == 3
        assert cache.get("key") == "ok"

    def test_distinct_keys_build_concurrently(self):
        cache = SharedLRUCache(name="t", max_entries=8)
        inside = []
        lock = threading.Lock()
        overlapped = threading.Event()

        def make_builder(key):
            def builder():
                with lock:
                    inside.append(key)
                    if len(inside) > 1:
                        overlapped.set()
                time.sleep(0.05)
                with lock:
                    inside.remove(key)
                return key
            return builder

        def worker(index):
            key = f"k{index}"
            assert cache.get_or_build(key, make_builder(key)) == key

        _run_threads(4, worker)
        # Single-flight is per key, not a global serialisation.
        assert overlapped.is_set()


class TestConcurrentMutation:
    def test_bounds_hold_under_racing_puts(self):
        cache = SharedLRUCache(name="t", max_entries=16, max_bytes=1000)
        barrier = threading.Barrier(8)

        def worker(index):
            barrier.wait()
            for step in range(200):
                key = f"{index}:{step % 24}"
                cache.put(key, step, size_bytes=50 + (step % 3) * 25)
                cache.get(key)
                cache.report()

        _run_threads(8, worker)
        assert cache.report()["entries"] <= 16
        assert cache.report()["bytes"] <= 1000
        # The byte ledger must agree with the surviving entries.
        assert cache.report()["bytes"] == sum(
            entry.size_bytes for entry in cache._entries.values())

    def test_counters_are_not_lost(self):
        cache = SharedLRUCache(name="t", max_entries=4)
        cache.put("k", 1)
        barrier = threading.Barrier(8)

        def worker(index):
            barrier.wait()
            for _ in range(500):
                cache.get("k")

        _run_threads(8, worker)
        # Pre-fix the unlocked `hits += 1` read-modify-write dropped
        # increments under contention.
        assert cache.stats.hits == 8 * 500
