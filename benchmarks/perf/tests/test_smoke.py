"""Smoke tests of the benchmark itself: ``python -m pytest benchmarks/perf -q``.

Every workload runs once in ``--quick`` mode (one pass over f175, t256
and t273), untraced and traced, through the same command the driver
uses.  Tier-1's ``testpaths = tests`` does not collect this file.
"""

from __future__ import annotations

import functools
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from benchmarks.perf import run as entry

entry.bootstrap()

from benchmarks.perf import metrics  # noqa: E402
from benchmarks.perf.trace import Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))
RUN_PY = os.path.join(ROOT, "benchmarks", "perf", "run.py")
NAMES = [w.name for w in metrics.WORKLOADS]
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def command(*args: str, cwd: str = ROOT, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN_PY, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=170)


@functools.cache
def quick(workload: str, trace: int, tmp: str) -> tuple[subprocess.CompletedProcess, dict]:
    """One quick run; returns the process and the record it appended."""
    out = os.path.join(tmp, f"{workload}-{trace}.jsonl")
    done = command("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                   "--quick", "--out", out, "--trace-out", os.path.join(tmp, f"{workload}.trace.json"))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(out) as f:
        return done, json.loads(f.readline())


@pytest.fixture(scope="module")
def tmp(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("perf"))


def test_registry_and_benchmark_json_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [(w.name, w.why) for w in metrics.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER
    ]
    assert declared["run_seconds"] == metrics.RUN_SECONDS
    assert declared["paths"] == ["benchmarks/perf"]
    assert declared["command"] == ["python3", "benchmarks/perf/run.py"]


def test_names_are_well_formed_and_unique():
    extras = [m for group in metrics.WORKLOAD_LAYER.values() for m in group]
    names = [m.name for m in (*metrics.END_TO_END, *metrics.PER_LAYER, *extras)] + NAMES
    assert all(NAME_RE.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert "setup_s" in {m.name for m in metrics.END_TO_END}
    assert all(0 < m.bound <= 0.25 for m in metrics.END_TO_END)
    assert set(metrics.WORKLOAD_LAYER) <= set(NAMES)


def test_readme_names_every_workload_and_metric():
    with open(os.path.join(ROOT, "benchmarks", "perf", "README.md")) as f:
        readme = f.read()
    extras = [m for group in metrics.WORKLOAD_LAYER.values() for m in group]
    for name in [m.name for m in (*metrics.END_TO_END, *metrics.PER_LAYER, *extras)] + NAMES:
        assert f"`{name}`" in readme, name


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_emits_every_declared_metric_once(workload, trace, tmp):
    done, record = quick(workload, trace, tmp)
    declared = metrics.PER_LAYER if trace else metrics.END_TO_END
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == [m.name for m in declared]
    for metric in declared:
        entry_ = last["metrics"][metric.name]
        assert set(entry_) == {"value", "unit"} and entry_["unit"] == metric.unit
        assert isinstance(entry_["value"], (int, float))
        printed = [line for line in done.stdout.splitlines() if line.split(" ", 1)[0] == metric.name]
        assert len(printed) == 1, (metric.name, printed)
    if not trace:
        assert all(last["metrics"][m.name]["value"] > 0 for m in declared)
    else:
        assert set(record["workload_layer"]) == {m.name for m in metrics.WORKLOAD_LAYER.get(workload, ())}
    for key in ("nproc", "python", "sat_backend", "git_revision", "seed", "loadavg_1m"):
        assert key in record["host"]


@pytest.mark.parametrize("workload", metrics.SEQUENTIAL)
def test_layer_self_times_add_up_to_the_traced_pass(workload, tmp):
    _, record = quick(workload, 1, tmp)
    total = sum(record["layer_self_s"].values())
    # A pass is its Session.run spans plus the gaps between jobs.
    assert total <= record["traced_verdict_s"]
    assert total >= 0.9 * record["traced_verdict_s"]


def test_children_never_exceed_their_span(tmp):
    quick("ja-local", 1, tmp)
    with open(os.path.join(tmp, "ja-local.trace.json")) as f:
        spans = json.load(f)["spans"]
    assert spans and {"session", "multiprop", "engines", "encode"} <= {s["layer"] for s in spans}
    tracer = Tracer()
    for span in spans:
        index = tracer.record(span["name"], span["layer"], span["start"], span["end"], span["parent"], span["trace_id"])
        tracer.spans[index].acc.update(span["acc"])
    children = tracer.children()
    for index, span in enumerate(tracer.spans):
        assert all(tracer.spans[c].start >= span.start - 1e-9 and tracer.spans[c].end <= span.end + 1e-9
                   for c in children[index])
        assert tracer.covered(index, children[index]) <= span.duration + 1e-9
        assert tracer.self_time(index, children[index]) >= -1e-6


def test_overlapping_children_are_covered_once():
    tracer = Tracer()
    root = tracer.record("job", "service", 0.0, 10.0)
    tracer.record("a", "parallel", 1.0, 6.0, root)
    tracer.record("b", "parallel", 4.0, 8.0, root)
    assert tracer.covered(root, tracer.children()[root]) == pytest.approx(7.0)
    assert tracer.layer_self_times()["service"] == pytest.approx(3.0)


def test_refuses_a_silent_backend_override():
    done = command("--workload", "ja-local", "--quick", env={**os.environ, "REPRO_SAT_BACKEND": "cdcl-compact"})
    assert done.returncode == 2
    assert done.stdout == "" and len(done.stderr.strip().splitlines()) == 1


def test_exits_non_zero_where_the_program_is_missing(tmp):
    bare = os.path.join(tmp, "bare")
    shutil.copytree(os.path.join(ROOT, "benchmarks", "perf"), os.path.join(bare, "benchmarks", "perf"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = subprocess.run([sys.executable, "benchmarks/perf/run.py", "--workload", "ja-local", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0 and done.stdout == ""


def test_compare_reports_a_run_against_itself_as_same(tmp):
    _, _ = quick("ja-local", 0, tmp)
    path = os.path.join(tmp, "ja-local-0.jsonl")
    done = command("--compare", path, path)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = [line for line in done.stdout.splitlines() if line.startswith("  ")]
    assert len(rows) == len(metrics.END_TO_END)
    assert all("B/A 1.0000 (base A" in row for row in rows)
