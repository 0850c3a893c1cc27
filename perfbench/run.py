#!/usr/bin/env python3
"""Service benchmark for the synopsis server.

Starts an unmodified ``python -m repro serve`` process, sets it up for
one workload (see ``workloads.py``), drives it closed-loop from two
keep-alive connections for ``--seconds``, checks the answers, and prints
the end-to-end metrics; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py --workload query-warm --seed 1 --seconds 10 --trace 0

``--trace 1`` runs the workload twice, untraced and then with every
layer boundary wrapped in spans (``traced_serve.py``), and reports the
per-layer metrics plus the tracing overhead instead.  ``--scale tiny``
shrinks every input for ``selftest.py``.

Set-up (server start, API key, builds, JSON/binary check, cache or
engine priming) is repeated ``setups`` times per run and ``setup_s`` is
the median; the last set-up's server serves the window.  Latency
percentiles and rates are medians over ten equal slices of the window.
The query workloads send no ingests or builds in their window, so their
``ingest_*`` and ``build_p50_ms`` figures come from a write probe of
three quarters of ``--seconds`` afterwards: a fresh server set up like
``ingest-mixed`` with its writer connection alone.  Servers keep their
store under ``.perfbench/`` in the checkout; it is removed when the run
ends.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

E2E_UNITS = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "query_batches_per_s": "1/s",
    "ingest_p50_ms": "ms",
    "ingest_points_per_s": "points/s",
    "build_p50_ms": "ms",
    "server_rss_peak_mb": "MiB",
}

#: The timed window is cut into this many equal slices, and each timing
#: and rate metric is the median over the slices of the slice's figure:
#: the host's own stalls last a second or two and then move one slice,
#: not the run's result.
SLICES = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("query-warm", "query-cold", "ingest-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def percentile(values, q) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else float("nan")


class Session:
    """One started server plus a set-up connection and its bookkeeping."""

    def __init__(self, server, conn, store, token, spans):
        self.server = server
        self.conn = conn
        self.store = store
        self.token = token
        self.spans = spans
        self.failures: list[str] = []
        #: Acknowledged writes in order, for the ledger and staged checks.
        self.events: list[tuple] = []
        self.json_binary: list[tuple] = []
        #: ``(slug, batch index, answer frame)`` of the sampled answers.
        self.kept: list[tuple] = []

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def note(self, kind: str, tag, points: int) -> None:
        if kind == "ingest":
            self.events.append(("ingest", tag, points))
        elif kind == "build":
            self.events.append(("build", tag))

    def call(self, op) -> None:
        status, headers, body, *_ = self.conn.request(op.method, op.path, op.body, op.headers)
        verdict = op.check(status, headers, body)
        if verdict is None:
            self.note(op.kind, op.tag, op.points)
        else:
            self.fail(f"set-up {op.kind}: {verdict}")

    def get(self, path: str) -> dict:
        status, _, body, *_ = self.conn.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path}: HTTP {status}")
        return json.loads(body)


def start_session(workload, directory: Path, traced: bool) -> tuple[Session, float]:
    """Start a server, set it up; return the session and set-up seconds."""
    from loadgen import Connection
    from serverproc import Server, create_api_key
    from workloads import TENANT

    directory.mkdir(parents=True)
    store = directory / "store"
    start = time.perf_counter()
    token = create_api_key(ROOT, store, TENANT) if workload.auth else None
    spans = directory / "spans.npz" if traced else None
    server = Server(ROOT, workload.server_args(store), directory / "server.log", spans)
    server.start()
    session = Session(server, Connection(server.host, server.port, token), store,
                      token, spans)
    try:
        workload.setup(session)
    except BaseException:
        stop_session(session)
        raise
    return session, time.perf_counter() - start


def stop_session(session: Session) -> None:
    session.conn.close()
    code = session.server.stop()
    if code not in (0, None):
        session.fail(f"server exited with code {code}")


def snapshot(session: Session) -> dict:
    health = session.get("/health")
    releases = session.get("/releases")
    ingest = health["ingest"]
    return {
        "hits": health["answer_cache_hits"],
        "misses": health["answer_cache_misses"],
        "cold_starts": health["engine_cold_starts"],
        "sealed_loads": health["engine_sealed_loads"],
        "shed": health["shed_count"],
        "loads": releases["stats"]["loads"],
        "builds": releases["stats"]["builds"],
        "refusals": releases["stats"]["refusals"],
        "archives": len(releases["persisted"]),
        "ledger_rows": {d: len(b["releases"]) for d, b in releases["budgets"].items()},
        "wals": len(ingest.get("datasets", {})),
        "staged": {d: s["staged_points"] for d, s in ingest.get("datasets", {}).items()},
        "wal_bytes": sum(s["wal_bytes"] for s in ingest.get("datasets", {}).values()),
        "refreshes": ingest.get("stats", {}).get("refreshes", 0),
        "refresh_refusals": ingest.get("stats", {}).get("refresh_refusals", 0),
    }


def counters(before: dict, after: dict) -> dict:
    def delta(name):
        return after[name] - before[name]

    lookups = delta("hits") + delta("misses")
    return {
        "cache_hit_ratio": delta("hits") / lookups if lookups else 0.0,
        "engine_cold_starts": delta("cold_starts"),
        "engine_sealed_loads": delta("sealed_loads"),
        "store_reloads": delta("loads"),
        "builds": delta("builds"),
        "refreshes": delta("refreshes"),
        "refusals": delta("refusals") + delta("refresh_refusals") + delta("shed"),
        "wal_bytes": delta("wal_bytes"),
    }


def archive_answer(store: Path):
    """``answer(slug, boxes)`` from the engine rebuilt out of the archive."""
    from repro.core.serialization import synopsis_from_path
    from repro.queries.engine import make_engine

    engines = {}

    def answer(slug, boxes):
        if slug not in engines:
            engines[slug] = make_engine(synopsis_from_path(store / f"{slug}.npz"))
        return engines[slug].answer_batch(boxes)

    return answer


def window_checks(workload, session, window, before, after, counts) -> list[str]:
    """The workload's own invariants over the timed window."""
    import checks

    failures = list(window.failures)
    bad = [s for s in window.samples if s.outcome != "ok"]
    if bad:
        failures.append(f"{len(bad)} request(s) failed or were refused")
    ratio = workload.cache_hit_ratio
    if ratio is not None and counts["cache_hit_ratio"] != ratio:
        failures.append(f"cache hit ratio {counts['cache_hit_ratio']} != {ratio}")
    if not workload.writes and counts["engine_cold_starts"]:
        failures.append(f"{counts['engine_cold_starts']} engine cold starts in the window")
    if workload.writes:
        if workload.reader and counts["store_reloads"] <= 0:
            failures.append("no store reloads in the window")
        if counts["refreshes"] or counts["refusals"]:
            failures.append(
                f"{counts['refreshes']} refreshes, {counts['refusals']} refusals"
            )
        failures += checks.unchanged("archive count", before["archives"], after["archives"])
        failures += checks.unchanged("WAL count", before["wals"], after["wals"])
        failures += checks.unchanged("ledger rows", before["ledger_rows"], after["ledger_rows"])
    acknowledged: dict[str, int] = {}
    for event in session.events:
        if event[0] == "ingest":
            acknowledged[event[1]] = acknowledged.get(event[1], 0) + event[2]
    failures += checks.staged_matches(after["staged"], acknowledged)
    return failures


def store_checks(session) -> list[str]:
    """After the server stopped: JSON/binary identity and the ledger."""
    import checks
    from repro.service.catalog import Catalog
    from workloads import TENANT

    failures = checks.json_matches_binary(session.json_binary)
    catalog = Catalog(session.store / "catalog.sqlite")
    try:
        ledger = catalog.load_budgets(TENANT)
    finally:
        catalog.close()
    return failures + checks.ledger_matches(ledger, checks.expected_ledger(session.events))


def answer_checks(workload, session) -> list[str]:
    """Sampled served answers against engines rebuilt from the archives."""
    import checks
    from repro.service import protocol

    served = [
        (slug, workload.boxes(index), protocol.decode_answer(body))
        for slug, index, body in session.kept
    ]
    if not served and workload.reader:
        return ["no served answers were sampled"]
    return checks.bit_identical(served, archive_answer(session.store))


def run_phase(workload, directory: Path, traced: bool, setups: int) -> dict:
    """Set up ``setups`` times, drive the window on the last server."""
    import numpy as np
    from hostinfo import CpuClock
    from loadgen import Connection, run_closed_loop

    setup_times, setup_failures = [], []
    for attempt in range(setups):
        session, seconds = start_session(workload, directory / f"setup{attempt}", traced)
        setup_times.append(seconds)
        if attempt < setups - 1:
            stop_session(session)
            setup_failures += session.failures + store_checks(session)
            shutil.rmtree(directory / f"setup{attempt}", ignore_errors=True)
    try:
        streams = workload.streams()
        connections = [
            Connection(session.server.host, session.server.port, session.token)
            for _ in streams
        ]
        before = snapshot(session)
        clock = CpuClock()
        window = run_closed_loop(connections, streams, workload.seconds,
                                 keep=workload.sample)
        host = clock.read()
        for conn in connections:
            conn.close()
        after = snapshot(session)
        rss = session.server.peak_rss_mb()
    finally:
        stop_session(session)
    for sample in window.samples:
        if sample.outcome == "ok":
            session.note(sample.kind, sample.tag, sample.points)
    session.kept = [
        (s.tag[0], s.tag[1], s.body) for s in window.samples
        if s.body is not None and s.outcome == "ok"
    ]
    counts = counters(before, after)
    failures = setup_failures + session.failures
    failures += window_checks(workload, session, window, before, after, counts)
    failures += store_checks(session) + answer_checks(workload, session)
    spans = requests = None
    if traced:
        import tracing

        recorded = tracing.load(session.spans)
        spans = tracing.summarize(recorded, window.start, window.end)
        requests = recorded.get("server.request", np.empty((0, 4)))
    return {
        "setup_times": setup_times,
        "window": window,
        "counts": counts,
        "host": host,
        "rss_mb": rss,
        "failures": failures,
        "spans": spans,
        "requests": requests,
    }


def sliced(window, kind: str, figure) -> float:
    """Median over the window's :data:`SLICES` of ``figure(samples, seconds)``.

    Samples fall in the slice where they were sent.  Slices without a
    sample of ``kind`` are left out when ``figure`` returns ``None``.
    """
    width = (window.end - window.start) / SLICES
    groups: list[list] = [[] for _ in range(SLICES)]
    for sample in window.of(kind):
        groups[min(int((sample.start - window.start) / width), SLICES - 1)].append(sample)
    values = [v for v in (figure(group, width) for group in groups) if v is not None]
    return statistics.median(values) if values else float("nan")


def e2e_metrics(main: dict, probe: dict | None) -> dict:
    """The end-to-end metrics; writes come from the probe when there is one."""
    window = main["window"]
    writes = (probe or main)["window"]

    def latency(q):
        def figure(samples, seconds):
            return percentile([s.latency * 1e3 for s in samples], q) if samples else None
        return figure

    return {
        "setup_s": statistics.median(main["setup_times"]),
        "query_p50_ms": sliced(window, "query", latency(50)),
        "query_p90_ms": sliced(window, "query", latency(90)),
        "query_batches_per_s": sliced(window, "query", lambda g, t: len(g) / t),
        "ingest_p50_ms": sliced(writes, "ingest", latency(50)),
        "ingest_points_per_s":
            sliced(writes, "ingest", lambda g, t: sum(s.points for s in g) / t),
        "build_p50_ms": sliced(writes, "build", latency(50)),
        "server_rss_peak_mb": main["rss_mb"],
    }


def run_pass(args, scale, traced: bool, directory: Path) -> dict:
    """One workload run (plus the write probe for the query workloads)."""
    import numpy as np
    from workloads import WORKLOADS, IngestMixed

    rng = np.random.default_rng(args.seed)
    workload = WORKLOADS[args.workload](scale, rng, args.seconds)
    main = run_phase(workload, directory / "main", traced, scale.setups)
    probe = None
    if not workload.writes:
        writer = IngestMixed(scale, rng, max(1.0, args.seconds * 0.75), reader=False)
        probe = run_phase(writer, directory / "probe", traced, 1)
    failures = main["failures"] + (probe["failures"] if probe else [])
    phases = [main] + ([probe] if probe else [])
    samples = [s for p in phases for s in p["window"].samples]
    return {
        "main": main,
        "probe": probe,
        "metrics": e2e_metrics(main, probe),
        "failures": failures,
        "attempted": len(samples),
        "failed": sum(1 for s in samples if s.outcome != "ok"),
    }


def pair_requests(window, requests) -> tuple[dict, list[str]]:
    """Pair each client request of the window with its ``server.request``.

    A connection is served by one server thread, so the spans of one
    thread, in order, must pair one to one with the requests of one
    connection, each span starting inside its request's round trip.  A
    span may end after the client has the response: the server finishes
    its bookkeeping after the last byte is written.  Spans that start
    after the window's last response (the server reading the end of a
    closed connection) are left out.

    Returns per-request lists in µs, ``untraced`` (the round trip not
    covered by its span) and ``after_response`` (the span's run past the
    client's receipt), and the coverage failures.
    """
    import numpy as np

    requests = requests[requests[:, 0] < window.start + window.elapsed]
    threads: dict[int, list] = {}
    for start, duration, _, thread in requests[np.argsort(requests[:, 0])]:
        threads.setdefault(int(thread), []).append((start, start + duration))
    pairs, failures = [], []
    for index in sorted({s.connection for s in window.samples}):
        sent = [(s.start, s.start + s.latency) for s in window.samples
                if s.connection == index]
        for spans in threads.values():
            if len(spans) == len(sent) and all(
                c0 <= s0 <= c1 for (s0, _), (c0, c1) in zip(spans, sent)
            ):
                pairs += zip(spans, sent)
                break
        else:
            failures.append(
                f"connection {index}: no server thread has one server.request "
                f"span starting inside each of its {len(sent)} round trips"
            )
    return {
        "untraced": [((c1 - c0) - (min(s1, c1) - s0)) * 1e6
                     for (s0, s1), (c0, c1) in pairs],
        "after_response": [max(0.0, s1 - c1) * 1e6 for (_, s1), (_, c1) in pairs],
    }, failures


def layer_metrics(traced: dict, untraced: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced pass, and its coverage failures."""
    import tracing

    main = traced["main"]
    spans, counts, window = main["spans"], main["counts"], main["window"]
    metrics = {}
    for name in tracing.SPANS:
        metrics[f"{name}.calls"] = (spans[name]["calls"], "count")
        metrics[f"{name}.self_us"] = (spans[name]["self_us"], "us")
    gets = spans["store.get"]["calls"]
    loads = spans["serialization.synopsis_from_path"]["calls"]
    points = sum(s.points for s in window.of("ingest"))
    request = spans["server.request"]
    paired, failures = pair_requests(window, main["requests"])
    metrics["query.cache_hit_ratio"] = (counts["cache_hit_ratio"], "ratio")
    metrics["store.reload_share"] = (loads / gets if gets else 0.0, "ratio")
    metrics["query.engine_cold_starts"] = (counts["engine_cold_starts"], "count")
    metrics["wal.bytes_per_point"] = (counts["wal_bytes"] / points if points else 0.0,
                                      "B/point")
    metrics["untraced_us"] = (percentile(paired["untraced"], 50), "us")
    metrics["server.request.after_response_us"] = (
        percentile(paired["after_response"], 50), "us"
    )
    metrics["server.request.unattributed_share"] = (
        request["self_total_s"] / request["dur_total_s"] if request["calls"] else 0.0,
        "ratio",
    )
    for name, unit in E2E_UNITS.items():
        metrics[f"overhead.{name}"] = (
            traced["metrics"][name] - untraced["metrics"][name], unit
        )
    return metrics, failures


def report_phase(label: str, phase: dict) -> None:
    window = phase["window"]
    print(f"[{label}] window {window.elapsed:.3f} s, set-up times "
          + ", ".join(f"{t:.3f}" for t in phase["setup_times"]) + " s")
    for kind in sorted({s.kind for s in window.samples}):
        samples = window.of(kind, None)
        ok = [s for s in samples if s.outcome == "ok"]
        mid = window.start + window.elapsed / 2
        halves = [
            [s.latency * 1e3 for s in ok if (s.start < mid) == first]
            for first in (True, False)
        ]
        print(f"  {kind:7s} attempted {len(samples):6d}  failed "
              f"{sum(s.outcome == 'failed' for s in samples):3d}  refused "
              f"{sum(s.outcome == 'refused' for s in samples):3d}  p50 first/second "
              f"half {percentile(halves[0], 50):.4f} / {percentile(halves[1], 50):.4f} ms")
    counts = phase["counts"]
    print("  counters: " + ", ".join(
        f"{k} {v:.4g}" if isinstance(v, float) else f"{k} {v}" for k, v in counts.items()
    ))
    host = phase["host"]
    print(f"  host: steal {host['steal_share']:.4f}, generator CPU "
          f"{host['generator_cpu_share']:.3f}, store filesystem {phase['fs']}")


def report_layers(spans: dict) -> None:
    import tracing

    total = spans["server.request"]["dur_total_s"]
    print(f"  {'span':42s} {'calls':>7s} {'self_us':>10s} {'share':>7s}"
          "   (share of server.request time in the window; build-path spans"
          " count set-up and window, so they have none)")
    for name in tracing.SPANS:
        row = spans[name]
        if not row["calls"]:
            continue
        if name in tracing.BUILD_SPANS:
            share = f"{'-':>7s}"
        else:
            share = f"{row['self_total_s'] / total if total else 0.0:7.3f}"
        print(f"  {name:42s} {row['calls']:7d} {row['self_us']:10.2f} {share}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "service" / "cli.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import hostinfo
    from workloads import SCALES

    scale = SCALES[args.scale]
    directory = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    directory.mkdir(parents=True)
    try:
        calibration = [hostinfo.calibration_ms()]
        fs = hostinfo.filesystem_type(directory)
        passes = {"untraced": run_pass(args, scale, False, directory / "untraced")}
        if args.trace:
            passes["traced"] = run_pass(args, scale, True, directory / "traced")
        calibration.append(hostinfo.calibration_ms())
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        if not any(directory.parent.iterdir()):
            directory.parent.rmdir()

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"scale {args.scale} trace {args.trace}")
    print("host: " + ", ".join(f"{k} {v}" for k, v in hostinfo.static_context().items())
          + f", calibration loop {calibration[0]:.3f} / {calibration[1]:.3f} ms")
    failures = []
    for label, result in passes.items():
        for phase_name in ("main", "probe"):
            phase = result[phase_name]
            if phase is not None:
                phase["fs"] = fs
                report_phase(f"{label} {phase_name}", phase)
        for name, value in result["metrics"].items():
            print(f"{label} {name} = {value:.6g} {E2E_UNITS[name]}")
        failures += result["failures"]
    if args.trace:
        metrics, coverage = layer_metrics(passes["traced"], passes["untraced"])
        failures += coverage
        report_layers(passes["traced"]["main"]["spans"])
        for name, (value, unit) in metrics.items():
            print(f"traced {name} = {value:.6g} {unit}")
    else:
        metrics = {name: (value, E2E_UNITS[name])
                   for name, value in passes["untraced"]["metrics"].items()}
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(f"verdict: {'correct' if not failures else 'INCORRECT'}")
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(p["attempted"] for p in passes.values()),
        "failed": sum(p["failed"] for p in passes.values()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
