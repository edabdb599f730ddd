"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

``info``      print design statistics and the property list
``gen``       generate a named benchmark design as an AIGER file
``sweep``     random-simulation property sweep (no SAT)
``check``     multi-property verification through the session API
``serve``     verify a job manifest, or run the HTTP server (``--listen``)
``submit``    submit a design or manifest to a remote ``serve --listen``
``watch``     re-attach to a remote job's live event stream
``stats``     print a remote server's live ServiceStats surface
``lint``      the project's own static-analysis pass (repro.analysis)

The ``check`` command reads a (multi-property) AIGER file, resolves the
requested strategy through the :mod:`repro.session` registry — so
strategies registered by plugins are immediately usable — drives it via
:class:`~repro.session.Session`, prints the verdict table and the
debugging-set narrative, and optionally dumps machine-readable JSON.
``--progress`` streams the typed progress events as they happen;
``--workers`` sizes the parallel-ja pool and ``--no-exchange`` turns
off the clause relay between its seats;
``--list-strategies`` enumerates the strategy registry and
``--list-backends`` the SAT backend registry (``check --backend NAME``
selects one; the ``REPRO_SAT_BACKEND`` environment variable sets the
process default).

The ``serve`` command is the batch/server mode: it reads a JSON
manifest of jobs — each naming a design file (``design``) or inline
ASCII AIGER (``design_text``) plus any
:class:`~repro.session.VerificationConfig` fields (``strategy``,
``priority``, ``order``, budgets, ...) — submits them all to one
:class:`~repro.service.VerificationService` over one shared worker
pool, and prints each job's verdict table as it completes.  The job
format is the HTTP server's (both read it with
``VerificationService.submit_spec``).  Manifest shape::

    {"workers": 4, "max_concurrent_jobs": 4,
     "jobs": [
       {"design": "ctrl.aag", "strategy": "parallel-ja", "priority": 2},
       {"design": "dma.aag", "strategy": "ja", "order": ["P3", "P1"]}
     ]}

(a bare JSON list of job objects is also accepted).  Any other
manifest-level field is a default for every job, which a job's own
field overrides; ``workers`` and ``max_concurrent_jobs`` size the
service and never reach a job.  ``--stats-interval
S`` polls the service's live stats surface every S seconds and prints a
one-line occupancy/queue digest per tick (the same
:class:`~repro.progress.StatsSnapshot` events reach ``--progress``
subscribers).  Both serve modes shut down gracefully on SIGINT/SIGTERM:
batch mode cancels in-flight jobs, drains the pool and reports what
finished; ``--listen`` stops admission (503), drains, then exits 0.

``serve --listen HOST:PORT`` runs the :mod:`repro.net` HTTP server over
the same service instead of reading a manifest; remote clients then
drive it with ``submit --host`` (a design file or the same manifest
shape — local ``.aag``/``.aig`` designs are inlined over the wire), ``watch``
(resumable event streams) and ``stats --host``.

A design or manifest file that is missing, unreadable or garbled is an
input error on every command: exit 2 and one ``repro: error: ...`` line
on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .circuit.aiger import load_design, save_design, write_aag
from .config import CACHE_MODES
from .multiprop import debugging_report
from .multiprop.report import MultiPropReport, render_table
from .multiprop.sweep import sweep as run_sweep
from .progress import format_event
from .sat import available_backends
from .session import (
    ConfigError,
    Session,
    UnknownStrategyError,
    VerificationConfig,
    available_strategies,
    get_strategy,
)
from .ts.system import TransitionSystem


class InputError(Exception):
    """A design or manifest file that cannot be read or parsed (exit 2)."""


def _load_input(loader, path: str):
    """``loader(path)``; an unreadable or malformed file is an InputError."""
    try:
        return loader(path)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from None
    except ValueError as exc:  # incl. UnicodeDecodeError, JSONDecodeError
        raise InputError(f"{path}: {exc}") from None


def _read_json(path: str):
    with open(path) as f:
        return json.load(f)


def _read_manifest(path: str) -> tuple[dict, list[dict]]:
    """``(service sizing, job specs)`` of a JSON job manifest.

    Manifest-level fields are every job's defaults, and a job's own
    fields override them.  ``workers`` and ``max_concurrent_jobs`` at
    the manifest level size the service and never reach a job.
    """
    manifest = _load_input(_read_json, path)
    if isinstance(manifest, list):
        manifest = {"jobs": manifest}
    shared = {k: v for k, v in manifest.items() if k != "jobs"}
    sizing = {
        k: shared.pop(k) for k in ("workers", "max_concurrent_jobs") if k in shared
    }
    jobs = manifest.get("jobs") or []
    if not jobs:
        raise InputError(f"{path}: manifest names no jobs")
    return sizing, [dict(shared, **spec) for spec in jobs]


# ----------------------------------------------------------------------
def cmd_info(args: argparse.Namespace) -> int:
    aig = _load_input(load_design, args.design)
    stats = aig.stats()
    print(f"{args.design}:")
    for key, value in stats.items():
        print(f"  {key}: {value}")
    rows = []
    for prop in aig.properties:
        _, latches = aig.cone_of_influence([prop.lit])
        rows.append(
            [prop.name, "ETF" if prop.expected_to_fail else "ETH", len(latches)]
        )
    print(render_table("properties", ["name", "kind", "#cone latches"], rows))
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    from .gen import (
        ALL_TRUE_SPECS,
        FAILING_SPECS,
        LARGE_DESIGN_NAMES,
        buggy_counter,
        huge_design,
        large_design,
    )

    name = args.name
    if name.startswith("counter"):
        bits = int(name[len("counter"):] or 8)
        aig = buggy_counter(bits)
    elif name in FAILING_SPECS:
        aig = FAILING_SPECS[name].build()
    elif name in ALL_TRUE_SPECS:
        aig = ALL_TRUE_SPECS[name].build()
    elif name in LARGE_DESIGN_NAMES:
        aig = large_design(name)
    elif name == "huge":
        aig = huge_design()
    else:
        known = (
            ["counter<bits>", "huge"]
            + sorted(FAILING_SPECS)
            + sorted(ALL_TRUE_SPECS)
            + list(LARGE_DESIGN_NAMES)
        )
        print(f"unknown design {name!r}; known: {', '.join(known)}", file=sys.stderr)
        return 2
    save_design(aig, args.output)
    print(f"wrote {args.output}: {aig!r}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    ts = TransitionSystem(_load_input(load_design, args.design))
    result = run_sweep(ts, runs=args.runs, depth=args.depth, seed=args.seed)
    rows = [
        [name, len(trace)] for name, trace in sorted(result.failed.items())
    ]
    print(
        render_table(
            f"simulation sweep ({result.runs} runs x {args.depth} frames)",
            ["failed property", "witness depth"],
            rows,
        )
    )
    print(f"survivors (need model checking): {len(result.survivors)}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    ts = TransitionSystem(_load_input(load_design, args.design))
    config = VerificationConfig(
        strategy=args.strategy,
        total_time=args.time_limit,
        per_property_time=args.per_property_time,
        per_property_conflicts=args.per_property_conflicts,
        total_conflicts=args.total_conflicts,
        order=args.order,
        clause_reuse=not args.no_reuse,
        respect_constraints_in_lifting=args.respect_lifting,
        coi_reduction=args.coi,
        ctg=args.ctg,
        max_frames=args.max_frames,
        workers=args.workers,
        exchange=not args.no_exchange,
        seed=args.seed,
        portfolio_engines=args.portfolio_engines,
        solver_backend=args.backend,
        cache_dir=args.cache_dir,
        cache_mode=args.cache_mode,
        design_name=args.design_name or args.design,
    )
    try:
        session = Session(ts, config)
    except (ConfigError, UnknownStrategyError) as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.progress:
        session.subscribe(lambda event: print(format_event(event)))
    report = session.run()

    _print_report(report)
    return _finish(args.json, report)


def _finish(
    json_path: str | None,
    reports: MultiPropReport | dict[str, MultiPropReport],
    *,
    broken: int = 0,
    interrupted: bool = False,
) -> int:
    """Write ``--json`` and return the exit status: every command's ending.

    ``reports`` is ``check``'s one report or ``serve``/``submit``'s
    ``{job id: report}`` of the jobs that settled; the JSON has the same
    shape, each report as :func:`~repro.net.codec.encode_report` writes
    it.  Exit status, the first that applies: 130 interrupted (a drained
    SIGINT/SIGTERM), 2 ``broken`` jobs never settled, 1 failures found,
    3 unsolved remain, 0 all hold.
    """
    from .net.codec import encode_report

    single = isinstance(reports, MultiPropReport)
    if json_path:
        if single:
            payload = encode_report(reports)
        else:
            payload = {job: encode_report(report) for job, report in reports.items()}
        with open(json_path, "w") as f:
            json.dump(payload, f, indent=2)
        print(f"wrote {json_path}")
    settled = [reports] if single else list(reports.values())
    if interrupted:
        return 130
    if broken:
        return 2
    if any(report.false_props() for report in settled):
        return 1
    if any(report.unsolved() for report in settled):
        return 3
    return 0


def _print_report(report: MultiPropReport) -> None:
    rows = []
    for outcome in report.outcomes.values():
        rows.append(
            [
                outcome.name,
                outcome.status.value,
                "local" if outcome.local else "global",
                outcome.cex_depth if outcome.cex_depth is not None else "",
                f"{outcome.time_seconds:.3f}",
            ]
        )
    print(
        render_table(
            report.summary(),
            ["property", "verdict", "scope", "cex depth", "time (s)"],
            rows,
        )
    )
    if report.method == "portfolio":
        races = report.stats.get("portfolio", {})
        winners = ", ".join(
            f"{name}: {race.get('winner') or 'exhausted'}"
            for name, race in races.items()
        )
        if winners:
            print(f"\nwinning engines — {winners}")
    # Only local verdicts have a debugging set.  The registry's ``local``
    # flag says which, as for the service; a method this client does not
    # know gets the protocol's default.
    try:
        local = getattr(get_strategy(report.method), "local", True)
    except UnknownStrategyError:
        local = True
    if local:
        print()
        print(debugging_report(report).narrative())


def cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint`` — run the project's own static analysis.

    Exit status: 0 clean, 1 findings, 2 a path that does not exist.
    """
    from .analysis import analyze_paths

    try:
        result = analyze_paths(args.paths)
    except FileNotFoundError as exc:
        raise InputError(str(exc)) from None
    print(result.render())
    return 0 if result.ok else 1


def _start_stats_poller(service, interval: float | None, progress: bool):
    """A poller thread broadcasting StatsSnapshot events every N seconds.

    Without ``--progress`` a filtered printer renders just the
    snapshots (pool occupancy, seat backoff, queue depth, latencies).
    Returns ``(stop_event, thread)`` — both None when disabled.
    """
    if interval is None:
        return None, None
    import threading

    from .progress import StatsSnapshot

    if not progress:
        service.subscribe(
            lambda event: (
                print(format_event(event))
                if isinstance(event, StatsSnapshot)
                else None
            )
        )
    stop = threading.Event()

    def _poll_stats() -> None:
        while not stop.wait(interval):
            service.emit_stats()

    thread = threading.Thread(
        target=_poll_stats, name="repro-serve-stats", daemon=True
    )
    thread.start()
    return stop, thread


def _serve_listen(args: argparse.Namespace) -> int:
    """``serve --listen HOST:PORT``: the repro.net HTTP server mode."""
    from .net.client import _parse_address
    from .net.server import VerificationServer
    from .service import VerificationService

    try:
        host, port = _parse_address(args.listen)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    service = VerificationService(
        workers=args.workers,
        max_concurrent_jobs=args.max_concurrent_jobs or 4,
        max_pending=args.max_pending,
        cache_dir=args.cache_dir,
        cache_mode=args.cache_mode,
    )
    if args.progress:
        service.subscribe(lambda event: print(format_event(event)))
    stop_stats, stats_thread = _start_stats_poller(
        service, args.stats_interval, args.progress
    )
    server = VerificationServer(
        service, host, port, drain_grace=args.drain_grace
    )
    try:
        # on_ready prints the *bound* address (port 0 picks a free one)
        # so wrapper scripts and CI can discover where to connect.
        server.run(
            on_ready=lambda h, p: print(f"listening on {h}:{p}", flush=True)
        )
    finally:
        if stop_stats is not None:
            stop_stats.set()
            stats_thread.join(timeout=5.0)
    print("drained; all jobs settled", flush=True)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from .service import VerificationService

    if args.stats_interval is not None and args.stats_interval <= 0:
        print(
            f"--stats-interval must be > 0, got {args.stats_interval!r}",
            file=sys.stderr,
        )
        return 2
    if args.listen is not None:
        if args.manifest is not None:
            print(
                "--listen serves remote clients; submit the manifest with "
                "'repro submit --host' instead",
                file=sys.stderr,
            )
            return 2
        return _serve_listen(args)
    if args.manifest is None:
        print("serve needs a manifest (or --listen HOST:PORT)", file=sys.stderr)
        return 2
    sizing, jobs = _read_manifest(args.manifest)
    workers = args.workers or sizing.get("workers")
    max_jobs = (
        args.max_concurrent_jobs
        or sizing.get("max_concurrent_jobs")
        or min(4, len(jobs))
    )
    service = VerificationService(
        workers=workers,
        max_concurrent_jobs=max_jobs,
        cache_dir=args.cache_dir,
        cache_mode=args.cache_mode,
    )
    if args.progress:
        service.subscribe(lambda event: print(format_event(event)))
    stop_stats, stats_thread = _start_stats_poller(
        service, args.stats_interval, args.progress
    )

    # SIGTERM drains like Ctrl-C: cancel in-flight jobs, join the pool,
    # report what finished — never a traceback through the dispatcher.
    def _interrupt(signum, frame):
        raise KeyboardInterrupt

    try:
        previous_term = signal.signal(signal.SIGTERM, _interrupt)
    except ValueError:  # not the main thread (e.g. tests)
        previous_term = None

    handles = []
    broken = 0
    interrupted = False
    reports: dict = {}
    collected: set[str] = set()

    def _collect(handle) -> None:
        """Print and keep one terminal job's report (idempotent)."""
        nonlocal broken
        if handle.job_id in collected:
            return
        collected.add(handle.job_id)
        try:
            report = handle.result(timeout=0)
        except Exception as exc:  # noqa: BLE001 - reported per job
            why = "did not settle before shutdown" if isinstance(exc, TimeoutError) else exc
            print(f"{handle.job_id} ({handle.design_name}): {why}", file=sys.stderr)
            broken += 1
            return
        print(f"\n== {handle.job_id}: {handle.design_name} "
              f"[{handle.status.value}] ==")
        _print_report(report)
        reports[handle.job_id] = report

    try:
        try:
            for index, spec in enumerate(jobs):
                spec.setdefault("strategy", "parallel-ja")
                try:
                    handles.append(service.submit_spec(spec))
                except (UnknownStrategyError, OSError, ValueError) as exc:
                    design = f" ({spec['design']})" if "design" in spec else ""
                    raise InputError(
                        f"{args.manifest}: job #{index}{design}: {exc}"
                    ) from None

            for handle in handles:
                try:
                    handle.result()
                except KeyboardInterrupt:
                    raise
                except Exception:  # noqa: BLE001,S110 - reported by _collect
                    pass
                _collect(handle)
        except KeyboardInterrupt:
            interrupted = True
            print(
                "\ninterrupted: cancelling in-flight jobs and draining",
                file=sys.stderr,
            )
            service.cancel_all(60.0)
            for handle in handles:
                _collect(handle)
    finally:
        if previous_term is not None:
            signal.signal(signal.SIGTERM, previous_term)
        if stop_stats is not None:
            stop_stats.set()
            stats_thread.join(timeout=5.0)
        service.close()

    # A drained interrupt exits like a SIGINT'd process so wrappers see it.
    return _finish(args.json, reports, broken=broken, interrupted=interrupted)


# ----------------------------------------------------------------------
# Remote client commands (repro.net)
# ----------------------------------------------------------------------
def _load_remote_specs(target: str, args: argparse.Namespace) -> list[dict]:
    """Job specs for ``submit``: a manifest file or one design file.

    Local design files (either AIGER flavour) are inlined as ASCII
    ``design_text`` so the job is self-contained on the wire (the
    server need not share a filesystem); anything else is passed
    through as a server-side ``design`` path.
    """

    def _embed(spec: dict) -> dict:
        design = spec.get("design")
        if isinstance(design, str) and os.path.exists(design):
            aig = _load_input(load_design, design)
            spec = dict(spec, design_text=write_aag(aig))
            del spec["design"]
            spec.setdefault("design_name", _design_name(design))
        return spec

    if target.endswith(".json"):
        # Service sizing is the server's business, not the job's.
        _, jobs = _read_manifest(target)
        specs = []
        for spec in jobs:
            spec.setdefault("strategy", args.strategy or "parallel-ja")
            if args.cache_dir is not None:
                # Server-side path: the proof store lives on the server.
                spec.setdefault("cache_dir", args.cache_dir)
                spec.setdefault("cache_mode", args.cache_mode)
            specs.append(_embed(spec))
        return specs
    spec: dict = {"design": target}
    if args.strategy:
        spec["strategy"] = args.strategy
    if args.priority is not None:
        spec["priority"] = args.priority
    if args.cache_dir is not None:
        spec["cache_dir"] = args.cache_dir
        spec["cache_mode"] = args.cache_mode
    return [_embed(spec)]


def _design_name(path: str) -> str:
    base = os.path.basename(path)
    return base.rsplit(".", 1)[0] or base


def cmd_submit(args: argparse.Namespace) -> int:
    from .net.client import RemoteError, ServiceClient, submit_manifest

    client = ServiceClient(args.host)
    specs = _load_remote_specs(args.target, args)
    try:
        jobs = submit_manifest(client, specs)
    except RemoteError as exc:
        print(exc, file=sys.stderr)
        return 2
    for job in jobs:
        print(
            f"submitted {job.job_id}: {job.info.get('design')} "
            f"[{job.info.get('strategy')}]"
        )
    if args.no_wait:
        return 0

    broken = 0
    reports: dict = {}
    for job in jobs:
        if args.progress:
            try:
                for event in job.events():
                    print(format_event(event))
            except RemoteError as exc:
                print(f"{job.job_id}: event stream failed: {exc}",
                      file=sys.stderr)
        try:
            report = job.result(timeout=args.timeout)
        except (RemoteError, TimeoutError) as exc:
            print(f"{job.job_id}: {exc}", file=sys.stderr)
            broken += 1
            continue
        status = job.status().get("status", "done")
        print(f"\n== {job.job_id}: {report.design} [{status}] ==")
        _print_report(report)
        reports[job.job_id] = report
    return _finish(args.json, reports, broken=broken)


def cmd_cache(args: argparse.Namespace) -> int:
    """``repro cache stats|gc|clear`` — inspect or prune a proof store."""
    from .cache import ProofStore

    store = ProofStore(args.cache_dir)
    if args.action == "stats":
        stats = store.stats()
        # On-disk inspection: the per-run hit/miss counters are only
        # meaningful inside a verification process, so drop them here.
        static = {
            k: v
            for k, v in stats.items()
            if k in ("root", "entries", "entry_bytes", "warm_logs", "warm_bytes")
        }
        print(json.dumps(static, indent=2, sort_keys=True))
        return 0
    if args.action == "gc":
        if args.max_entries is None and args.max_bytes is None:
            print("gc needs --max-entries and/or --max-bytes", file=sys.stderr)
            return 2
        removed = store.gc(
            max_entries=args.max_entries, max_bytes=args.max_bytes
        )
        print(f"evicted {removed} entr{'y' if removed == 1 else 'ies'}")
        return 0
    removed = store.clear()
    print(f"cleared {removed} file{'' if removed == 1 else 's'}")
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    from .net.client import RemoteError, ServiceClient

    client = ServiceClient(args.host)
    job = client.job(args.job)
    job.cursor = args.after
    try:
        for event in job.events():
            print(format_event(event), flush=True)
    except RemoteError as exc:
        print(exc, file=sys.stderr)
        return 2
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from .net.client import RemoteError, ServiceClient

    client = ServiceClient(args.host)
    try:
        stats = client.stats()
    except RemoteError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


# ----------------------------------------------------------------------
class _ListStrategiesAction(argparse.Action):
    """``--list-strategies``: print the registry and exit."""

    def __call__(self, parser, namespace, values, option_string=None):
        for name, description in available_strategies().items():
            print(f"{name:<12} {description}")
        parser.exit(0)


class _ListBackendsAction(argparse.Action):
    """``--list-backends``: print the SAT backend registry and exit."""

    def __call__(self, parser, namespace, values, option_string=None):
        for name, description in available_backends().items():
            print(f"{name:<14} {description}")
        parser.exit(0)


class _ListCheckersAction(argparse.Action):
    """``lint --list-checkers``: print each checker's rule and exit."""

    def __call__(self, parser, namespace, values, option_string=None):
        from .analysis import CHECKERS

        for checker in CHECKERS:
            print(f"{checker.id:<22} {checker.__doc__.splitlines()[0]}")
        parser.exit(0)


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    """The shared ``--cache-dir`` / ``--cache-mode`` pair."""
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cross-run proof cache directory; certified verdicts, "
        "invariants and warm clause logs persist here (default: no cache)",
    )
    parser.add_argument(
        "--cache-mode", choices=CACHE_MODES,
        default="readwrite",
        help="how to use --cache-dir: read existing proofs only, read and "
        "write back fresh ones (default), or off",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-property model checking with JA-verification (DATE'18 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "--list-strategies",
        action=_ListStrategiesAction,
        nargs=0,
        help="list registered verification strategies and exit",
    )
    parser.add_argument(
        "--list-backends",
        action=_ListBackendsAction,
        nargs=0,
        help="list registered SAT backends and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="design statistics")
    p_info.add_argument("design", help="AIGER file (.aag or .aig)")
    p_info.set_defaults(func=cmd_info)

    p_gen = sub.add_parser("gen", help="generate a benchmark design")
    p_gen.add_argument("name", help="counter<bits>, huge, f104..f380, t124..t275, r400..r403")
    p_gen.add_argument("-o", "--output", required=True, help="output .aag/.aig path")
    p_gen.set_defaults(func=cmd_gen)

    p_sweep = sub.add_parser("sweep", help="random-simulation property sweep")
    p_sweep.add_argument("design")
    p_sweep.add_argument("--runs", type=int, default=32)
    p_sweep.add_argument("--depth", type=int, default=32)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.set_defaults(func=cmd_sweep)

    p_check = sub.add_parser("check", help="verify all properties")
    p_check.add_argument("design")
    p_check.add_argument(
        "--strategy",
        default="ja",
        metavar="NAME",
        help="verification strategy (see --list-strategies; default: ja)",
    )
    p_check.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="SAT backend (see --list-backends; default: REPRO_SAT_BACKEND or cdcl)",
    )
    p_check.add_argument("--time-limit", type=float, default=None, help="total seconds")
    p_check.add_argument(
        "--per-property-time", type=float, default=None, help="seconds per property"
    )
    p_check.add_argument(
        "--per-property-conflicts", type=int, default=None, metavar="N",
        help="SAT conflict budget per property (default: unlimited)",
    )
    p_check.add_argument(
        "--total-conflicts", type=int, default=None, metavar="N",
        help="SAT conflict budget for the whole run (default: unlimited)",
    )
    p_check.add_argument(
        "--max-frames", type=int, default=500, metavar="N",
        help="IC3 frame ceiling per property (default: 500)",
    )
    p_check.add_argument("--no-reuse", action="store_true", help="disable clauseDB re-use")
    p_check.add_argument(
        "--respect-lifting",
        action="store_true",
        help="lifting respects property constraints (default: ignore + re-run)",
    )
    p_check.add_argument("--coi", action="store_true", help="cone-of-influence front end, "
                         "also under clause reuse; --no-reuse runs always prove on cones")
    p_check.add_argument("--ctg", action="store_true", help="CTG-aware generalization")
    p_check.add_argument(
        "--order", default=None, help="property order: design | cone | shuffled:<seed>"
    )
    p_check.add_argument(
        "--design-name", default=None, metavar="NAME",
        help="name used for the design in reports (default: derived "
        "from the design path)",
    )
    p_check.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for parallel-ja (default: one per CPU)",
    )
    p_check.add_argument(
        "--no-exchange", action="store_true",
        help="disable live clause exchange between parallel workers",
    )
    p_check.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="run-level seed for stochastic engines (portfolio random "
        "walk); per-property sub-seeds derive from it deterministically",
    )
    p_check.add_argument(
        "--portfolio-engines", default=None, metavar="E1,E2,...",
        help="engine slate the portfolio strategy races per property, a "
        "comma-separated subset of rw,bmc,kind,ic3 (default: all four)",
    )
    p_check.add_argument(
        "--progress",
        action="store_true",
        help="print progress events (frames, verdicts, clauseDB traffic) live",
    )
    p_check.add_argument("--json", default=None, help="write JSON report here")
    _add_cache_args(p_check)
    p_check.set_defaults(func=cmd_check)

    p_lint = sub.add_parser(
        "lint", help="run the project's own static-analysis checkers"
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    p_lint.add_argument(
        "--list-checkers",
        action=_ListCheckersAction,
        nargs=0,
        help="list the checkers and exit",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_serve = sub.add_parser(
        "serve",
        help="verify a manifest of jobs, or run the HTTP server (--listen)",
    )
    p_serve.add_argument(
        "manifest", nargs="?", default=None,
        help="JSON job manifest ({'jobs': [{'design': ..., ...}]} or a "
        "list); omitted with --listen",
    )
    p_serve.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="serve remote clients over HTTP instead of running a "
        "manifest (port 0 picks a free port; the bound address is "
        "printed as 'listening on HOST:PORT')",
    )
    p_serve.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker seats in the shared pool (default: manifest, then CPUs)",
    )
    p_serve.add_argument(
        "--max-concurrent-jobs", type=int, default=None, metavar="M",
        help="jobs in flight at once (default: manifest, then min(4, #jobs); "
        "4 with --listen)",
    )
    p_serve.add_argument(
        "--max-pending", type=int, default=64, metavar="N",
        help="--listen: admission-queue bound; a full queue answers "
        "HTTP 429 (default: 64)",
    )
    p_serve.add_argument(
        "--drain-grace", type=float, default=10.0, metavar="SECONDS",
        help="--listen: how long a SIGINT/SIGTERM drain lets running "
        "jobs finish before cancelling them (default: 10)",
    )
    p_serve.add_argument(
        "--progress", action="store_true",
        help="print every job's progress events live",
    )
    p_serve.add_argument(
        "--stats-interval", type=float, default=None, metavar="SECONDS",
        help="broadcast a stats-snapshot event (seat occupancy, backoff, "
        "queue depth, latencies) every SECONDS; printed even without "
        "--progress",
    )
    p_serve.add_argument(
        "--json", default=None, help="write the per-job JSON reports here"
    )
    _add_cache_args(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit jobs to a remote 'serve --listen' server"
    )
    p_submit.add_argument(
        "target",
        help="a design file or a .json job manifest (local .aag designs "
        "are inlined over the wire)",
    )
    p_submit.add_argument(
        "--host", required=True, metavar="HOST:PORT",
        help="the remote server's address",
    )
    p_submit.add_argument(
        "--strategy", default=None, metavar="NAME",
        help="strategy for jobs that do not name one (default: parallel-ja "
        "for manifests, the server default for single designs)",
    )
    p_submit.add_argument(
        "--priority", type=float, default=None,
        help="single-design submits: the job's fair-share weight",
    )
    p_submit.add_argument(
        "--progress", action="store_true",
        help="stream each job's events (resumable) while waiting",
    )
    p_submit.add_argument(
        "--no-wait", action="store_true",
        help="print the job ids and exit without waiting for results",
    )
    p_submit.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job result wait (default: wait forever)",
    )
    p_submit.add_argument(
        "--json", default=None, help="write the per-job JSON reports here"
    )
    _add_cache_args(p_submit)
    p_submit.set_defaults(func=cmd_submit)

    p_watch = sub.add_parser(
        "watch", help="re-attach to a remote job's live event stream"
    )
    p_watch.add_argument("job", help="the job id a submit printed")
    p_watch.add_argument(
        "--host", required=True, metavar="HOST:PORT",
        help="the remote server's address",
    )
    p_watch.add_argument(
        "--after", type=int, default=0, metavar="N",
        help="resume after event id N (default: 0 = replay from the start)",
    )
    p_watch.set_defaults(func=cmd_watch)

    p_stats = sub.add_parser(
        "stats", help="print a remote server's live stats surface as JSON"
    )
    p_stats.add_argument(
        "--host", required=True, metavar="HOST:PORT",
        help="the remote server's address",
    )
    p_stats.set_defaults(func=cmd_stats)

    p_cache = sub.add_parser(
        "cache", help="inspect or prune a cross-run proof cache"
    )
    p_cache.add_argument(
        "action", choices=("stats", "gc", "clear"),
        help="stats: JSON size summary; gc: LRU-evict past the bounds; "
        "clear: remove every entry and warm log",
    )
    p_cache.add_argument(
        "--cache-dir", required=True, metavar="DIR",
        help="the proof store directory",
    )
    p_cache.add_argument(
        "--max-entries", type=int, default=None, metavar="N",
        help="gc: keep at most N verdict entries",
    )
    p_cache.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="gc: keep the entries directory under N bytes",
    )
    p_cache.set_defaults(func=cmd_cache)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pipe closed (e.g. ``check --progress | head``);
        # silence the shutdown and exit like a SIGPIPE'd process would.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
