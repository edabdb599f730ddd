"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


@pytest.fixture
def counter_file(tmp_path):
    path = str(tmp_path / "counter.aag")
    assert main(["gen", "counter4", "-o", path]) == 0
    return path


class TestGen:
    def test_gen_ascii(self, tmp_path, capsys):
        path = str(tmp_path / "d.aag")
        assert main(["gen", "f175", "-o", path]) == 0
        assert "wrote" in capsys.readouterr().out
        with open(path) as f:
            assert f.readline().startswith("aag ")

    def test_gen_binary(self, tmp_path):
        path = str(tmp_path / "d.aig")
        assert main(["gen", "counter4", "-o", path]) == 0
        with open(path, "rb") as f:
            assert f.readline().startswith(b"aig ")

    def test_gen_unknown(self, tmp_path, capsys):
        assert main(["gen", "nope", "-o", str(tmp_path / "x.aag")]) == 2
        assert "unknown design" in capsys.readouterr().err


class TestInfo:
    def test_info(self, counter_file, capsys):
        assert main(["info", counter_file]) == 0
        out = capsys.readouterr().out
        assert "latches: 4" in out
        assert "P0" in out and "P1" in out


class TestSweep:
    def test_sweep(self, counter_file, capsys):
        assert main(["sweep", counter_file, "--runs", "8", "--depth", "4"]) == 0
        out = capsys.readouterr().out
        assert "P0" in out  # fails on nearly any stimulus
        assert "survivors" in out


class TestCheck:
    def test_ja_finds_failures(self, counter_file, capsys):
        assert main(["check", counter_file, "--strategy", "ja"]) == 1
        out = capsys.readouterr().out
        assert "Debugging set: {P0}" in out

    def test_joint(self, counter_file, capsys):
        assert main(["check", counter_file, "--strategy", "joint"]) == 1
        out = capsys.readouterr().out
        assert "fails" in out
        assert "Debugging set" not in out  # global verdicts: no debugging set

    def test_separate_with_options(self, counter_file):
        code = main(
            [
                "check",
                counter_file,
                "--strategy",
                "separate",
                "--no-reuse",
                "--order",
                "cone",
            ]
        )
        assert code == 1

    def test_clustered(self, counter_file):
        assert main(["check", counter_file, "--strategy", "clustered"]) == 1

    def test_ja_with_all_flags(self, counter_file):
        code = main(
            [
                "check",
                counter_file,
                "--strategy",
                "ja",
                "--coi",
                "--ctg",
                "--respect-lifting",
                "--order",
                "shuffled:3",
            ]
        )
        assert code == 1

    def test_all_true_design_exits_zero(self, tmp_path):
        path = str(tmp_path / "t.aag")
        assert main(["gen", "t273", "-o", path]) == 0
        assert main(["check", path, "--strategy", "ja"]) == 0

    def test_unsolved_exit_code(self, counter_file):
        code = main(["check", counter_file, "--time-limit", "0.0"])
        assert code in (1, 3)

    def test_json_report(self, counter_file, tmp_path):
        out_json = str(tmp_path / "report.json")
        main(["check", counter_file, "--json", out_json])
        with open(out_json) as f:
            data = json.load(f)
        assert data["debugging_set"] == ["P0"]
        assert data["outcomes"]["P1"]["status"] == "holds"

    def test_json_report_is_the_wire_report(self, counter_file, tmp_path):
        from repro.net.codec import decode_report

        out_json = str(tmp_path / "report.json")
        main(["check", counter_file, "--json", out_json])
        with open(out_json) as f:
            report = decode_report(json.load(f))
        assert report.debugging_set() == ["P0"]
        assert report.outcomes["P1"].status.value == "holds"

    def test_parallel_with_exchange(self, counter_file):
        assert main([
            "check", counter_file, "--strategy", "parallel-ja",
            "--workers", "2",
        ]) == 1  # counter4's P0 fails

    def test_parallel_without_exchange(self, counter_file):
        assert main([
            "check", counter_file, "--strategy", "parallel-ja",
            "--workers", "1", "--no-exchange",
        ]) == 1

    def test_bad_order_rejected(self, counter_file, capsys):
        assert main(["check", counter_file, "--order", "zigzag"]) == 2
        assert "unknown order" in capsys.readouterr().err

    def test_rebuild_per_query_override_rejected(self, counter_file, capsys):
        assert main(["check", counter_file, "--engine", "incremental=false"]) == 2
        assert "unknown engine override" in capsys.readouterr().err

    def test_strategy_flag(self, counter_file):
        assert main(["check", counter_file, "--strategy", "joint"]) == 1

    def test_unknown_strategy_rejected(self, counter_file, capsys):
        assert main(["check", counter_file, "--strategy", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown strategy" in err and "ja" in err

    def test_progress_streams_events(self, counter_file, capsys):
        assert main(["check", counter_file, "--progress"]) == 1
        out = capsys.readouterr().out
        assert "[run-started]" in out
        assert "[property-solved]" in out
        assert "[run-finished]" in out


class TestInputErrors:
    """A missing or garbled input file: exit 2, one line, no traceback."""

    @pytest.fixture(
        params=[
            ("bad.aag", None),  # missing
            ("bad.aag", b"not a design\n"),
            ("bad.aag", b"aag 3 1 1 1 0\n2\n"),  # rows cut short
            ("bad.aig", b"\x00\xff\x01"),
            ("bad.aig", b"aig 3 1 1 1 1\n"),  # rows cut short
        ]
    )
    def bad_design(self, request, tmp_path):
        name, content = request.param
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        return str(path)

    @pytest.mark.parametrize("command", ["check", "info", "sweep"])
    def test_bad_design_file(self, command, bad_design, capsys):
        assert main([command, bad_design]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro: error: {bad_design}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["serve", "submit"])
    @pytest.mark.parametrize("content", [None, "{not json"])
    def test_bad_manifest_file(self, command, content, tmp_path, capsys):
        path = tmp_path / "jobs.json"
        if content is not None:
            path.write_text(content)
        extra = ["--host", "127.0.0.1:1"] if command == "submit" else []
        assert main([command, str(path), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro: error: {path}: ") and err.count("\n") == 1


class TestTopLevelFlags:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        from repro import __version__

        assert __version__ in capsys.readouterr().out

    def test_list_strategies(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--list-strategies"])
        assert exc_info.value.code == 0
        out = capsys.readouterr().out
        for name in ("ja", "joint", "separate", "clustered"):
            assert name in out


class TestRegisteredStrategyViaCLI:
    def test_custom_strategy_runs_from_cli(self, counter_file, capsys):
        """A strategy registered by a plugin is usable without CLI changes."""
        from repro.engines.result import PropStatus
        from repro.multiprop.report import MultiPropReport, PropOutcome
        from repro.session import register_strategy, unregister_strategy

        @register_strategy("dummy")
        class Dummy:
            """Reports every property unknown."""

            def run(self, ts, config, emit):
                report = MultiPropReport(method="dummy", design=config.design_name)
                for prop in ts.properties:
                    report.outcomes[prop.name] = PropOutcome(
                        name=prop.name, status=PropStatus.UNKNOWN, local=False
                    )
                return report

        try:
            # Exit code 3: unsolved properties remain.
            assert main(["check", counter_file, "--strategy", "dummy"]) == 3
            out = capsys.readouterr().out
            assert "unknown" in out
            with pytest.raises(SystemExit):
                main(["--list-strategies"])
            assert "dummy" in capsys.readouterr().out
        finally:
            unregister_strategy("dummy")

    def test_a_local_strategy_prints_the_debugging_narrative(
        self, counter_file, capsys
    ):
        """The narrative follows the registry's ``local`` flag, not the name."""
        from repro.multiprop.ja import ja_verify
        from repro.session import register_strategy, unregister_strategy

        @register_strategy("assume-all")
        class AssumeAll:
            """JA-verification under its own name."""

            local = True

            def run(self, ts, config, emit):
                report = ja_verify(ts, config, emit)
                report.method = "assume-all"
                return report

        try:
            assert main(["check", counter_file, "--strategy", "assume-all"]) == 1
            assert "Debugging set: {P0}" in capsys.readouterr().out
        finally:
            unregister_strategy("assume-all")


class TestServe:
    @pytest.fixture
    def manifest(self, counter_file, tmp_path):
        path = str(tmp_path / "manifest.json")
        with open(path, "w") as f:
            json.dump(
                {
                    "workers": 2,
                    "max_concurrent_jobs": 3,
                    "jobs": [
                        {"design": counter_file, "strategy": "parallel-ja",
                         "priority": 2},
                        {"design": counter_file, "strategy": "ja"},
                        {"design": counter_file},
                    ],
                },
                f,
            )
        return path

    def test_serve_runs_all_jobs_concurrently(self, manifest, capsys):
        assert main(["serve", manifest]) == 1  # counter4's P0 fails
        out = capsys.readouterr().out
        for job_id in ("job-0", "job-1", "job-2"):
            assert f"== {job_id}:" in out
        assert out.count("Debugging set: {P0}") == 3

    def test_serve_json_report(self, manifest, tmp_path, capsys):
        out_json = str(tmp_path / "serve.json")
        main(["serve", manifest, "--json", out_json])
        with open(out_json) as f:
            data = json.load(f)
        assert set(data) == {"job-0", "job-1", "job-2"}
        assert data["job-0"]["outcomes"]["P1"]["status"] == "holds"
        assert data["job-1"]["method"] == "ja"

    def test_serve_accepts_bare_job_list(self, counter_file, tmp_path):
        path = str(tmp_path / "list.json")
        with open(path, "w") as f:
            json.dump([{"design": counter_file, "strategy": "ja"}], f)
        assert main(["serve", path]) == 1

    def test_serve_progress_streams_job_events(self, manifest, capsys):
        main(["serve", manifest, "--progress"])
        out = capsys.readouterr().out
        assert "[job-queued]" in out
        assert "[job-started]" in out
        assert "[job-finished]" in out

    def test_serve_applies_manifest_level_fields(self, tmp_path, capsys):
        # Manifest-level fields are every job's defaults, as for submit:
        # max_frames=1 leaves t256's properties unproved (exit 3) ...
        design = str(tmp_path / "t256.aag")
        assert main(["gen", "t256", "-o", design]) == 0
        path = str(tmp_path / "jobs.json")
        manifest = {"strategy": "ja", "max_frames": 1, "workers": 1,
                    "jobs": [{"design": design}]}
        with open(path, "w") as f:
            json.dump(manifest, f)
        assert main(["serve", path]) == 3
        # ... and a job's own field overrides the manifest's.
        manifest["jobs"][0]["max_frames"] = 500
        with open(path, "w") as f:
            json.dump(manifest, f)
        assert main(["serve", path]) == 0

    def test_serve_rejects_empty_manifest(self, tmp_path, capsys):
        path = str(tmp_path / "empty.json")
        with open(path, "w") as f:
            json.dump({"jobs": []}, f)
        assert main(["serve", path]) == 2
        assert "no jobs" in capsys.readouterr().err

    def test_serve_rejects_bad_job_spec(self, counter_file, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as f:
            json.dump({"jobs": [{"design": counter_file, "nonsense": 1}]}, f)
        assert main(["serve", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and "job #0" in err

    def test_serve_rejects_missing_design(self, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as f:
            json.dump({"jobs": [{"strategy": "ja"}]}, f)
        assert main(["serve", path]) == 2
        assert "names no design" in capsys.readouterr().err


class TestSubmit:
    @pytest.mark.parametrize("suffix", [".aag", ".aig"])
    def test_a_local_design_of_either_flavour_is_inlined(self, tmp_path, suffix):
        from repro.net import VerificationServer
        from repro.net.codec import decode_report
        from repro.service import VerificationService

        design = str(tmp_path / f"counter{suffix}")
        assert main(["gen", "counter4", "-o", design]) == 0
        out = tmp_path / "reports.json"
        with VerificationServer(VerificationService(workers=1)) as server:
            code = main(["submit", design, "--host", server.address, "--strategy", "ja",
                         "--json", str(out)])
        assert code == 1  # counter4's P0 fails
        [report] = [decode_report(r) for r in json.loads(out.read_text()).values()]
        assert report.design == "counter"  # inlined, named after the file
        assert report.debugging_set() == ["P0"]

    def test_exit_status_ranks_unsettled_then_failures_then_unsolved(
        self, tmp_path, capsys
    ):
        from repro.net import VerificationServer
        from repro.service import VerificationService
        from repro.session import register_strategy, unregister_strategy

        @register_strategy("raises")
        class Raises:
            def run(self, ts, config, emit):
                raise RuntimeError("boom")

        designs = {}
        for name in ("counter4", "t256"):
            designs[name] = str(tmp_path / f"{name}.aag")
            assert main(["gen", name, "-o", designs[name]]) == 0
        jobs = {
            "fails": {"design": designs["counter4"], "strategy": "ja"},
            "unsolved": {"design": designs["t256"], "strategy": "ja", "max_frames": 1},
            "raises": {"design": designs["counter4"], "strategy": "raises"},
        }

        def submit(*names) -> int:
            manifest = tmp_path / "jobs.json"
            manifest.write_text(json.dumps({"jobs": [jobs[n] for n in names]}))
            return main(["submit", str(manifest), "--host", server.address])

        try:
            with VerificationServer(VerificationService(workers=1)) as server:
                assert submit("unsolved", "fails", "raises") == 2
                assert "RuntimeError: boom" in capsys.readouterr().err
                assert submit("unsolved", "fails") == 1
                assert submit("unsolved") == 3
        finally:
            unregister_strategy("raises")
