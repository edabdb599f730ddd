"""The lint gate over the real tree: meta-tests and the CLI surface.

These tests pin the property the whole subsystem exists for: the
shipped source passes its own analysis, and *breaking* a real protocol
(deleting a dispatch arm in ``parallel/worker.py``) makes the analysis
fail loudly.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, analyze_sources, get_checker
from repro.cli import main

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


@pytest.fixture()
def repo_root(monkeypatch):
    """Run from the repo root, like CI does."""
    monkeypatch.chdir(ROOT)
    return ROOT


def test_shipped_source_passes_its_own_lint(repo_root):
    result = analyze_paths(
        ["src"], jobs=1, baseline_path="analysis_baseline.toml"
    )
    assert result.ok, "\n".join(f.render() for f in result.errors())
    assert result.stale_baseline == []
    assert result.files_analyzed > 50


def test_deleting_a_dispatch_arm_fails_the_lint():
    sources = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for path in sorted((SRC / "repro" / "parallel").glob("*.py"))
    }
    worker = "src/repro/parallel/worker.py"
    assert 'if kind == "cancel":' in sources[worker]
    sources[worker] = sources[worker].replace(
        'if kind == "cancel":', 'if kind == "cancel-deleted":'
    )
    result = analyze_sources(
        sources, checkers=[get_checker("wire-protocol")]
    )
    texts = [f.message for f in result.findings]
    assert any(
        "'cancel'" in m and "no dispatch arm" in m for m in texts
    ), texts
    assert any(
        "'cancel-deleted'" in m and "matches no send site" in m for m in texts
    ), texts


def test_portfolio_decided_codec_entry_is_gated():
    # PortfolioDecided crosses the wire (SSE streams race decisions);
    # dropping its EVENT_TYPES row must be a net-protocol error.
    sources = _net_sources()
    codec = "src/repro/net/codec.py"
    head, sep, registry = sources[codec].partition("EVENT_TYPES: tuple")
    assert sep and "    PortfolioDecided,\n" in registry
    sources[codec] = head + sep + registry.replace(
        "    PortfolioDecided,\n", "", 1
    )
    result = analyze_sources(sources, checkers=[get_checker("net-protocol")])
    texts = [f.message for f in result.findings]
    assert any(
        "'PortfolioDecided'" in m and "no codec entry" in m for m in texts
    ), texts


def test_service_stats_command_is_gated():
    # The ("stats", request) control message added for the stats
    # surface must stay paired: deleting its dispatch arm in the
    # service dispatcher is a wire-protocol error.
    sources = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for path in sorted((SRC / "repro" / "service").glob("*.py"))
    }
    core = "src/repro/service/core.py"
    assert 'elif command[0] == "stats":' in sources[core]
    sources[core] = sources[core].replace(
        'elif command[0] == "stats":', 'elif command[0] == "stats-deleted":'
    )
    result = analyze_sources(sources, checkers=[get_checker("wire-protocol")])
    texts = [f.message for f in result.findings]
    assert any(
        "'stats'" in m and "no dispatch arm" in m for m in texts
    ), texts
    assert any(
        "'stats-deleted'" in m and "matches no send site" in m for m in texts
    ), texts


def test_stats_snapshot_event_rendering_is_gated():
    # StatsSnapshot must keep its format_event arm and __all__ entry;
    # losing either is an event-hygiene error.
    progress = SRC / "repro" / "progress.py"
    source = progress.read_text(encoding="utf-8")
    assert "isinstance(event, StatsSnapshot)" in source
    unrendered = source.replace(
        "isinstance(event, StatsSnapshot)",
        "isinstance(event, ServiceSaturated)",
    )
    result = analyze_sources(
        {"src/repro/progress.py": unrendered},
        checkers=[get_checker("event-hygiene")],
    )
    texts = [f.message for f in result.findings]
    assert any(
        "'StatsSnapshot'" in m and "no" in m and "rendering arm" in m
        for m in texts
    ), texts

    unexported = source.replace('    "StatsSnapshot",\n', "")
    assert unexported != source
    result = analyze_sources(
        {"src/repro/progress.py": unexported},
        checkers=[get_checker("event-hygiene")],
    )
    texts = [f.message for f in result.findings]
    assert any(
        "'StatsSnapshot'" in m and "missing" in m and "__all__" in m
        for m in texts
    ), texts


def _net_sources() -> dict[str, str]:
    paths = [
        SRC / "repro" / "progress.py",
        *sorted((SRC / "repro" / "net").glob("*.py")),
    ]
    return {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for path in paths
    }


def test_deleting_a_codec_entry_fails_the_lint():
    # Every ProgressEvent subclass needs an EVENT_TYPES row in the wire
    # codec; dropping one must be a net-protocol error, or new events
    # would silently cross the wire as opaque blobs.
    sources = _net_sources()
    codec = "src/repro/net/codec.py"
    head, sep, registry = sources[codec].partition("EVENT_TYPES: tuple")
    assert sep and "    JobFinished,\n" in registry
    sources[codec] = head + sep + registry.replace("    JobFinished,\n", "", 1)
    result = analyze_sources(sources, checkers=[get_checker("net-protocol")])
    texts = [f.message for f in result.findings]
    assert any(
        "'JobFinished'" in m and "no codec entry" in m for m in texts
    ), texts


def test_stale_codec_entry_fails_the_lint():
    # The reverse direction: an EVENT_TYPES row naming a class that is
    # no longer a ProgressEvent subclass is a stale registry entry.
    sources = _net_sources()
    progress = "src/repro/progress.py"
    assert "class ClusterStarted(ProgressEvent):" in sources[progress]
    sources[progress] = sources[progress].replace(
        "class ClusterStarted(ProgressEvent):", "class ClusterStarted:"
    )
    result = analyze_sources(sources, checkers=[get_checker("net-protocol")])
    texts = [f.message for f in result.findings]
    assert any(
        "'ClusterStarted'" in m and "stale" in m for m in texts
    ), texts


def test_route_without_handler_fails_the_lint():
    sources = _net_sources()
    server = "src/repro/net/server.py"
    assert 'Route("GET", "/stats", "stats"),' in sources[server]
    sources[server] = sources[server].replace(
        'Route("GET", "/stats", "stats"),',
        'Route("GET", "/stats", "stats_gone"),',
    )
    result = analyze_sources(sources, checkers=[get_checker("net-protocol")])
    texts = [f.message for f in result.findings]
    assert any(
        "GET /stats" in m and "_handle_stats_gone" in m for m in texts
    ), texts
    # The orphaned real handler is flagged from the other direction too.
    assert any(
        "_handle_stats" in m and "dead endpoint" in m for m in texts
    ), texts


def test_net_lint_is_inert_without_net_sources():
    # Fixture trees without the net package must produce no findings.
    progress = SRC / "repro" / "progress.py"
    result = analyze_sources(
        {"src/repro/progress.py": progress.read_text(encoding="utf-8")},
        checkers=[get_checker("net-protocol")],
    )
    assert result.findings == []


def test_parallel_and_serial_runs_agree():
    paths = [str(SRC / "repro" / "analysis")]
    serial = analyze_paths(paths, jobs=1)
    parallel = analyze_paths(paths, jobs=2)
    assert serial.findings == parallel.findings
    assert serial.files_analyzed == parallel.files_analyzed > 8


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


def test_cli_lint_clean_exit_zero(repo_root, capsys):
    assert main(["lint", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("clean:")


def test_cli_lint_findings_exit_one_with_json(tmp_path, capsys):
    bad = tmp_path / "drain.py"
    bad.write_text(
        "def loop(q):\n    while True:\n        item = q.get()\n",
        encoding="utf-8",
    )
    code = main(["lint", str(tmp_path), "--format=json", "--jobs", "1"])
    assert code == 1
    document = json.loads(capsys.readouterr().out)
    assert document["ok"] is False
    assert document["findings"][0]["checker"] == "queue-discipline"


def test_cli_lint_bad_baseline_exit_two(tmp_path, capsys):
    baseline = tmp_path / "baseline.toml"
    baseline.write_text(
        '[[suppression]]\nchecker = "x"\nfile = "y"\n'
        'message = "z"\njustification = "TODO"\n',
        encoding="utf-8",
    )
    (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
    code = main(
        ["lint", str(tmp_path), "--baseline", str(baseline), "--jobs", "1"]
    )
    assert code == 2
    assert "justification" in capsys.readouterr().err


def test_cli_lint_write_baseline_round_trip(tmp_path, capsys):
    bad = tmp_path / "drain.py"
    bad.write_text(
        "def loop(q):\n    while True:\n        item = q.get()\n",
        encoding="utf-8",
    )
    baseline = tmp_path / "baseline.toml"
    assert (
        main(
            [
                "lint",
                str(tmp_path),
                "--baseline",
                str(baseline),
                "--write-baseline",
                "--jobs",
                "1",
            ]
        )
        == 0
    )
    capsys.readouterr()
    # The generated TODO justification must be rejected as-is ...
    assert (
        main(["lint", str(tmp_path), "--baseline", str(baseline), "--jobs", "1"])
        == 2
    )
    # ... and accepted once a human justifies it.
    baseline.write_text(
        baseline.read_text(encoding="utf-8").replace(
            '"TODO"', '"fixture: exercised by the gate test"'
        ),
        encoding="utf-8",
    )
    assert (
        main(["lint", str(tmp_path), "--baseline", str(baseline), "--jobs", "1"])
        == 0
    )
    out = capsys.readouterr().out
    assert "1 baselined" in out


def test_cli_list_checkers(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", "--list-checkers"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "wire-protocol" in out and "pickle-safety" in out
