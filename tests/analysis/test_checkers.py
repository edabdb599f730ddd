"""Each built-in checker catches its seeded violation — and only that.

Every test feeds a small fixture snippet (an in-memory ``{path:
source}`` set) through :func:`repro.analysis.analyze_sources` with a
single checker selected, asserting both the positive (the seeded
violation is found, with the right checker id) and the negative (the
idiomatic counterpart stays clean).
"""

from __future__ import annotations

import textwrap

from repro.analysis import CHECKERS, AnalysisResult, analyze_sources


def run_checker(checker_id: str, sources: dict[str, str]) -> AnalysisResult:
    dedented = {path: textwrap.dedent(text) for path, text in sources.items()}
    return analyze_sources(dedented, [c for c in CHECKERS if c.id == checker_id])


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
    # Anchored at the field's own line, so a pragma there silences it.
    assert {f.line for f in result.findings if "'dead_knob'" in f.message} == {5}
    pragma = CONFIG_PY.replace(
        'dead_knob: str = "x"', 'dead_knob: str = "x"  # repro: ignore[config-hygiene]'
    )
    result = run_checker(
        "config-hygiene",
        {
            "src/repro/config.py": pragma,
            "src/repro/cli.py": CLI_PY,
            "src/repro/runner.py": CONSUMER_PY,
        },
    )
    assert not any("'dead_knob'" in m for m in messages(result))
    assert result.suppressed == 2
