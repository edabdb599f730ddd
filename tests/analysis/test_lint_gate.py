"""The lint gate over the real tree: meta-tests and the CLI surface.

These tests pin the property the whole subsystem exists for: the
shipped source passes its own analysis, and reverting a real fix the
pass once forced — or breaking a real protocol, like deleting a
dispatch arm in ``parallel/worker.py`` — makes the analysis fail
loudly.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import CHECKERS, analyze_paths, analyze_sources
from repro.cli import main

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
BY_ID = {checker.id: checker for checker in CHECKERS}


@pytest.fixture()
def repo_root(monkeypatch):
    """Run from the repo root, like CI does."""
    monkeypatch.chdir(ROOT)
    return ROOT


def _sources(*patterns: str) -> dict[str, str]:
    """``{path: source}`` of the files under ``src/repro`` matching ``patterns``."""
    return {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for pattern in patterns
        for path in sorted((SRC / "repro").glob(pattern))
    }


def _mutated(patterns, path: str, edits) -> dict[str, str]:
    """Those sources with each ``(old, new)`` edit applied to ``path``."""
    sources = _sources(*patterns)
    for old, new in edits:
        assert old in sources[path], old
        sources[path] = sources[path].replace(old, new)
    return sources


def test_shipped_source_passes_its_own_lint(repo_root):
    result = analyze_paths(["src"])
    assert result.ok, result.render()
    assert result.files_analyzed > 50


# The fix each kept checker exists for: undoing it must make it fire.
REVERTED_FIXES = {
    "job-events-untimed-get": (
        "queue-discipline",
        ["service/jobs.py"],
        "src/repro/service/jobs.py",
        [("self._changed.wait(timeout=EVENT_POLL_S)", "self._changed.wait()")],
        "blocking .wait() with no timeout inside a loop",
    ),
    "cli-without-max-frames": (
        "config-hygiene",
        ["config.py", "cli.py"],
        "src/repro/cli.py",
        [
            ("        max_frames=args.max_frames,\n", ""),
            ('"--max-frames", type=int, default=500, metavar="N",', ""),
        ],
        "config field 'max_frames' is not reachable from the CLI",
    ),
    "worker-without-job-arm": (
        "wire-protocol",
        ["parallel/*.py"],
        "src/repro/parallel/worker.py",
        [('if kind != "job":', "if not kind:")],
        "wire tag 'job' sent on channel 'ctrl' has no dispatch arm",
    ),
}


@pytest.mark.parametrize("fix", sorted(REVERTED_FIXES))
def test_reverting_a_real_fix_fails_the_lint(fix):
    checker, patterns, path, edits, expected = REVERTED_FIXES[fix]
    assert analyze_sources(_sources(*patterns), [BY_ID[checker]]).ok
    result = analyze_sources(_mutated(patterns, path, edits), [BY_ID[checker]])
    texts = [f.message for f in result.findings]
    assert any(expected in m for m in texts), texts


def test_deleting_a_dispatch_arm_fails_the_lint():
    sources = _mutated(
        ["parallel/*.py"],
        "src/repro/parallel/worker.py",
        [('if kind == "end":', 'if kind == "end-deleted":')],
    )
    result = analyze_sources(sources, [BY_ID["wire-protocol"]])
    texts = [f.message for f in result.findings]
    assert any(
        "'end'" in m and "no dispatch arm" in m for m in texts
    ), texts
    assert any(
        "'end-deleted'" in m and "matches no send site" in m for m in texts
    ), texts


def test_service_stats_command_is_gated():
    # The ("stats", request) control message added for the stats
    # surface must stay paired: deleting its dispatch arm in the
    # service dispatcher is a wire-protocol error.
    sources = _mutated(
        ["service/*.py"],
        "src/repro/service/core.py",
        [('elif command[0] == "stats":', 'elif command[0] == "stats-deleted":')],
    )
    result = analyze_sources(sources, [BY_ID["wire-protocol"]])
    texts = [f.message for f in result.findings]
    assert any(
        "'stats'" in m and "no dispatch arm" in m for m in texts
    ), texts
    assert any(
        "'stats-deleted'" in m and "matches no send site" in m for m in texts
    ), texts


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


def test_cli_lint_clean_exit_zero(repo_root, capsys):
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("clean:")


def test_cli_lint_findings_exit_one(tmp_path, capsys):
    bad = tmp_path / "drain.py"
    bad.write_text(
        "def loop(q):\n    while True:\n        item = q.get()\n",
        encoding="utf-8",
    )
    assert main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert f"{bad}:3: [queue-discipline]" in out
    assert out.rstrip().endswith("FAILED: 1 finding(s) in 1 file(s) (0 suppressed inline)")


def test_cli_lint_missing_path_exit_two(tmp_path, capsys):
    missing = tmp_path / "nowhere"
    assert main(["lint", str(missing)]) == 2
    assert capsys.readouterr().err.startswith("repro: error: no such file")


def test_cli_list_checkers(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", "--list-checkers"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()] == [
        checker.id for checker in CHECKERS
    ]
