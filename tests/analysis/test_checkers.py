"""Each built-in checker catches its seeded violation — and only that.

Every test feeds a small fixture snippet (an in-memory ``{path:
source}`` set) through :func:`repro.analysis.analyze_sources` with a
single checker selected, asserting both the positive (the seeded
violation is found, with the right checker id) and the negative (the
idiomatic counterpart stays clean).
"""

from __future__ import annotations

import textwrap

from repro.analysis import AnalysisResult, analyze_sources, get_checker


def run_checker(checker_id: str, sources: dict[str, str]) -> AnalysisResult:
    dedented = {path: textwrap.dedent(text) for path, text in sources.items()}
    return analyze_sources(dedented, checkers=[get_checker(checker_id)])


def messages(result: AnalysisResult) -> list[str]:
    return [f.message for f in result.findings]


# ----------------------------------------------------------------------
# wire-protocol
# ----------------------------------------------------------------------

POOL_PY = """\
    class Pool:
        def submit(self, item):
            self._ctrl.put(("job", item))

        def stop(self):
            self._ctrl.put(("quit",))

        def cancel(self):
            self._ctrl.put(("cancel",))
    """

WORKER_PY = """\
    def loop(ctrl):
        while True:
            message = ctrl.get()
            tag = message[0]
            if tag == "quit":
                break
            if tag == "job":
                handle(message)
            elif tag == "stale":
                pass


    def handle(message):
        pass
    """


def test_wire_protocol_unhandled_tag_and_dead_arm():
    result = run_checker(
        "wire-protocol", {"pool.py": POOL_PY, "worker.py": WORKER_PY}
    )
    texts = messages(result)
    assert any("'cancel'" in m and "no dispatch arm" in m for m in texts), texts
    assert any("'stale'" in m and "matches no send site" in m for m in texts), texts
    assert all(f.checker == "wire-protocol" for f in result.findings)


def test_wire_protocol_exhaustive_dispatch_is_clean():
    handled = WORKER_PY.replace('"stale"', '"cancel"')
    result = run_checker(
        "wire-protocol", {"pool.py": POOL_PY, "worker.py": handled}
    )
    assert result.findings == []


def test_wire_protocol_channel_without_dispatcher():
    sources = {
        "pool.py": """\
        class Pool:
            def publish(self, item):
                self._out_queue.put(("result", item))
        """
    }
    result = run_checker("wire-protocol", sources)
    assert any("no dispatcher" in m for m in messages(result))


# ----------------------------------------------------------------------
# pickle-safety
# ----------------------------------------------------------------------


def test_pickle_safety_flags_lambda_on_mp_queue():
    sources = {
        "pool.py": """\
        import multiprocessing as mp

        def run():
            q = mp.Queue()
            q.put(("job", lambda x: x))
        """
    }
    result = run_checker("pickle-safety", sources)
    assert any("lambda" in m for m in messages(result))


def test_pickle_safety_ignores_thread_queues():
    sources = {
        "local.py": """\
        import queue

        def run():
            q = queue.Queue()
            q.put(("job", lambda x: x))
        """
    }
    assert run_checker("pickle-safety", sources).findings == []


def test_pickle_safety_flags_nested_function_reference():
    sources = {
        "pool.py": """\
        import multiprocessing as mp

        def run():
            q = mp.Queue()

            def helper(x):
                return x

            q.put(("job", helper))
        """
    }
    result = run_checker("pickle-safety", sources)
    assert any("closures do not pickle" in m for m in messages(result))


# ----------------------------------------------------------------------
# queue-discipline
# ----------------------------------------------------------------------


def test_queue_discipline_flags_bare_get_in_loop():
    sources = {
        "drain.py": """\
        def loop(q):
            while True:
                item = q.get()
        """
    }
    result = run_checker("queue-discipline", sources)
    assert result.findings and result.findings[0].checker == "queue-discipline"


def test_queue_discipline_accepts_timeout():
    sources = {
        "drain.py": """\
        def loop(q):
            while True:
                item = q.get(timeout=0.5)
        """
    }
    assert run_checker("queue-discipline", sources).findings == []


def test_queue_discipline_flags_bounded_put_without_timeout():
    sources = {
        "push.py": """\
        import queue

        q = queue.Queue(8)

        def send(x):
            q.put(x)
        """
    }
    result = run_checker("queue-discipline", sources)
    assert any("bounded" in m for m in messages(result))


# ----------------------------------------------------------------------
# blocking-while-locked
# ----------------------------------------------------------------------


def test_locks_flags_blocking_get_under_lock():
    sources = {
        "core.py": """\
        import threading

        lock = threading.Lock()

        def drain(out):
            with lock:
                item = out.get()
            return item
        """
    }
    result = run_checker("blocking-while-locked", sources)
    assert result.findings and result.findings[0].checker == "blocking-while-locked"


def test_locks_allows_put_on_unbounded_thread_queue():
    sources = {
        "core.py": """\
        import queue
        import threading

        lock = threading.Lock()
        q = queue.Queue()

        def push(x):
            with lock:
                q.put(x)
        """
    }
    assert run_checker("blocking-while-locked", sources).findings == []


# ----------------------------------------------------------------------
# event-hygiene
# ----------------------------------------------------------------------

PROGRESS_PY = """\
    __all__ = ["ProgressEvent", "Solved"]


    class ProgressEvent:
        pass


    class Solved(ProgressEvent):
        pass


    class Forgotten(ProgressEvent):
        pass


    def format_event(event):
        if isinstance(event, Solved):
            return "solved"
        return "generic"
    """


def test_event_hygiene_flags_unrendered_unexported_event():
    result = run_checker("event-hygiene", {"src/repro/progress.py": PROGRESS_PY})
    texts = messages(result)
    assert any("'Forgotten'" in m and "rendering arm" in m for m in texts), texts
    assert any("'Forgotten'" in m and "__all__" in m for m in texts), texts
    assert not any("'Solved'" in m for m in texts)


def test_event_hygiene_inert_without_progress_module():
    result = run_checker("event-hygiene", {"src/other.py": "x = 1\n"})
    assert result.findings == []


# ----------------------------------------------------------------------
# config-hygiene
# ----------------------------------------------------------------------

CONFIG_PY = """\
    class VerificationConfig:
        strategy: str = "joint"
        max_frames: int = 500
        budget: int = 3
        dead_knob: str = "x"

        def validate(self):
            if self.max_frames <= 0:
                raise ValueError("max_frames must be positive")
    """

CLI_PY = """\
    def build(args):
        return dict(strategy=args.strategy, max_frames=args.max_frames,
                    budget=args.budget)
    """

CONSUMER_PY = """\
    def run(config):
        return (config.strategy, config.max_frames, config.budget)
    """


def test_config_hygiene_dead_unreachable_unvalidated_fields():
    result = run_checker(
        "config-hygiene",
        {
            "src/repro/config.py": CONFIG_PY,
            "src/repro/cli.py": CLI_PY,
            "src/repro/runner.py": CONSUMER_PY,
        },
    )
    texts = messages(result)
    assert any("'dead_knob'" in m and "never consumed" in m for m in texts), texts
    assert any("'dead_knob'" in m and "not reachable from the CLI" in m for m in texts)
    assert any("'budget'" in m and "validate()" in m for m in texts), texts
    assert not any("'strategy'" in m or "'max_frames'" in m for m in texts)


# ----------------------------------------------------------------------
# cache-hygiene
# ----------------------------------------------------------------------

RAW_CACHE_WRITE = """\
    def save_record(path, text):
        with open(path, "w") as f:
            f.write(text)
    """

PATHLIB_CACHE_WRITE = """\
    def save_record(path, text):
        path.write_text(text)
    """

ATOMIC_CACHE_WRITE = """\
    import os, tempfile

    def atomic_write(path, text):
        fd, tmp = tempfile.mkstemp(dir=".")
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)

    def save_record(path, text):
        atomic_write(path, text)

    def load_record(path):
        with open(path) as f:
            return f.read()
    """

UNCERTIFIED_CONSUMER = """\
    def serve(store, ts, name, cone):
        record = store.get(cone)
        return PropOutcome(name=name, status=record.status)
    """

CERTIFIED_CONSUMER = """\
    def serve(store, ts, name, cone):
        record = store.get(cone)
        if record.status == "holds":
            if not certify_invariant(ts, name, record.invariant).valid:
                return None
        elif not certify_cex(ts, name, record.trace).valid:
            return None
        return PropOutcome(name=name, status=record.status)
    """


class TestCacheHygiene:
    def test_raw_write_in_cache_package_flagged(self):
        result = run_checker(
            "cache-hygiene", {"src/repro/cache/store.py": RAW_CACHE_WRITE}
        )
        assert any("outside atomic_write" in m for m in messages(result))

    def test_pathlib_write_in_cache_package_flagged(self):
        result = run_checker(
            "cache-hygiene", {"src/repro/cache/store.py": PATHLIB_CACHE_WRITE}
        )
        assert any("outside atomic_write" in m for m in messages(result))

    def test_atomic_write_itself_clean(self):
        result = run_checker(
            "cache-hygiene", {"src/repro/cache/store.py": ATOMIC_CACHE_WRITE}
        )
        assert messages(result) == []

    def test_same_write_outside_cache_package_ignored(self):
        result = run_checker(
            "cache-hygiene", {"src/repro/multiprop/clausedb.py": RAW_CACHE_WRITE}
        )
        assert messages(result) == []

    def test_uncertified_store_consumer_flagged(self):
        result = run_checker(
            "cache-hygiene", {"src/repro/cache/resolve.py": UNCERTIFIED_CONSUMER}
        )
        found = messages(result)
        assert any("certify_invariant" in m for m in found)
        assert any("certify_cex" in m for m in found)

    def test_certified_consumer_clean(self):
        result = run_checker(
            "cache-hygiene", {"src/repro/cache/resolve.py": CERTIFIED_CONSUMER}
        )
        assert messages(result) == []

    def test_outcome_builder_without_store_reads_clean(self):
        source = """\
            def fresh(name, status):
                return PropOutcome(name=name, status=status)
            """
        result = run_checker(
            "cache-hygiene", {"src/repro/multiprop/ja.py": source}
        )
        assert messages(result) == []

    def test_dict_get_is_not_a_store_read(self):
        source = """\
            def lookup(self, stores, key, name, status):
                store = self._stores.get(key)
                return PropOutcome(name=name, status=status)
            """
        result = run_checker(
            "cache-hygiene", {"src/repro/service/core.py": source}
        )
        assert messages(result) == []
