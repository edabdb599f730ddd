"""The checker tuple, inline suppressions, parse errors and the report."""

from __future__ import annotations

from repro.analysis import CHECKERS, analyze_sources

BUILTIN_IDS = ["config-hygiene", "queue-discipline", "wire-protocol"]
QUEUE_DISCIPLINE = [c for c in CHECKERS if c.id == "queue-discipline"]


def test_builtins_registered_with_descriptions():
    assert [checker.id for checker in CHECKERS] == BUILTIN_IDS
    for checker in CHECKERS:
        assert checker.__doc__.splitlines()[0], f"{checker.id} has no rule line"


# ----------------------------------------------------------------------
# Inline suppressions and parse errors
# ----------------------------------------------------------------------

NOISY = (
    "def loop(q):\n"
    "    while True:\n"
    "        item = q.get()\n"
)


def test_inline_pragma_suppresses_finding():
    source = NOISY.replace(
        "q.get()", "q.get()  # repro: ignore[queue-discipline]"
    )
    result = analyze_sources({"drain.py": source}, QUEUE_DISCIPLINE)
    assert result.findings == []
    assert result.suppressed == 1
    assert result.ok


def test_inline_pragma_wildcard_and_comment_line():
    source = NOISY.replace(
        "        item = q.get()",
        "        # repro: ignore[*]\n        item = q.get()",
    )
    result = analyze_sources({"drain.py": source}, QUEUE_DISCIPLINE)
    assert result.findings == []
    assert result.suppressed == 1


def test_unparsable_file_yields_parse_error_finding():
    result = analyze_sources({"broken.py": "def oops(:\n"})
    assert [f.checker for f in result.findings] == ["parse-error"]
    assert not result.ok


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------


def test_text_report_has_location_and_verdict():
    text = analyze_sources({"drain.py": NOISY}, QUEUE_DISCIPLINE).render()
    assert "drain.py:3: [queue-discipline]" in text
    assert text.endswith(
        "FAILED: 1 finding(s) in 1 file(s) (0 suppressed inline)"
    )
