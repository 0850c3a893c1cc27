"""The benchmark's workloads: server flags, set-up, and request streams.

All three serve the ``storage`` dataset at its paper scale (9,000
points) and send binary query batches of 1,000 rectangles drawn from the
paper's q1-q6 size ladder.  Every stream keeps each request class at a
fixed share of its requests, so a percentile never sits on the boundary
between two classes.

* ``query-warm`` (``--auth require``): a fixed pool of batches over UG,
  AG and Khy is answered once during set-up, so every timed request is an
  answer-cache hit.  The time goes to the HTTP front, router, auth,
  admission, frame decode, cache lookup and encode.
* ``query-cold`` (``--auth off``): batches go round-robin over all nine
  servable methods, whose engines are prepared during set-up, in order
  from a pre-encoded pool that holds more answers than the answer cache,
  so the cache always misses and ``answer_batch`` dominates.
* ``ingest-mixed`` (``--ingest --auth require``, fewer cache entries than
  keys): a writer connection cycles WAL ingests into a dataset instance
  with live releases and forced rebuilds of a fixed key set; a reader
  connection sends fresh queries over that key set, reloading evicted
  releases from their archives and re-preparing engines of rebuilt ones.

``ingest-mixed`` holds its per-operation cost fixed through the window:
ingests go to an instance nothing rebuilds, the drift threshold is 1.0
so no refresh fires, and the rebuilt instance's staged prefix is fixed
during set-up, so every rebuild replays an epoch label the ledger already
holds.  Archive, WAL and ledger-row counts therefore never change in the
window, and the run checks that they did not.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from loadgen import Op
from repro.datasets.registry import get_spec
from repro.queries.workload import paper_query_sizes
from repro.service import protocol
from repro.service.keys import ReleaseKey
from tracing import METHODS

__all__ = ["SCALES", "WORKLOADS", "Scale", "Workload"]

DATASET = "storage"
EPSILON = 0.5
DATASET_BUDGET = 8.0
TENANT = "default"

BINARY = {"Content-Type": protocol.CONTENT_TYPE, "Accept": protocol.CONTENT_TYPE}
JSON = {"Content-Type": "application/json"}

#: Methods of the query-warm pool.
WARM_METHODS = ("UG", "AG", "Khy")
#: ingest-mixed: the instance whose releases are rebuilt and read, and
#: the instance that receives the ingests (two live releases, both
#: drift-tracked on every ingest).
REBUILD_SEED, INGEST_SEED = 1, 2
REBUILD_METHODS = ("UG", "AG", "Hier", "Privelet", "UGnd")
INGEST_RELEASES = ("UG", "AG")
#: Cache entries for ingest-mixed: fewer than the five read keys.
MIXED_MAX_ENTRIES = 3
#: Writer cycle: this many ingests, then one forced rebuild.
INGESTS_PER_REBUILD = 4


@dataclass(frozen=True)
class Scale:
    n_points: int
    batch_rects: int
    ingest_points: int
    warm_batches_per_method: int
    setups: int
    #: The server's ``--answer-cache-bytes`` (full scale: its default).
    answer_cache_bytes: int

    def fresh_pool(self) -> int:
        """Fresh batches to pre-encode: more answers than the cache holds,
        so cycling through them in order always misses an LRU cache."""
        capacity = self.answer_cache_bytes // (8 * self.batch_rects)
        return capacity + capacity // 10 + 1


SCALES = {
    "full": Scale(9_000, 1_000, 1_000, 32, 7, 32 * 1024 * 1024),
    "tiny": Scale(2_000, 100, 100, 4, 1, 128 * 1024),
}


def key(method: str, seed: int) -> ReleaseKey:
    return ReleaseKey(DATASET, method, EPSILON, seed)


class RectSource:
    """Seeded rectangles from the paper's q1-q6 ladder, float32-exact."""

    def __init__(self, rng: np.random.Generator, n_points: int):
        spec = get_spec(DATASET)
        bounds = spec.make(n=n_points, rng=0).domain.bounds
        self._lo = np.array([bounds.x_lo, bounds.y_lo])
        self._extent = np.array([bounds.x_hi - bounds.x_lo, bounds.y_hi - bounds.y_lo])
        sizes = paper_query_sizes(spec.q6_width, spec.q6_height)
        self._sizes = np.array([[s.width, s.height] for s in sizes])
        self._rng = rng

    def batch(self, n: int) -> np.ndarray:
        size = self._sizes[self._rng.integers(0, len(self._sizes), n)]
        low = self._lo + self._rng.random((n, 2)) * (self._extent - size)
        boxes = np.hstack([low, low + size]).astype(np.float32)
        return boxes.astype(np.float64)


def check_answer(n: int):
    expected = protocol.HEADER_SIZE + 8 * n

    def check(status, headers, body):
        if status == 429:
            return "refused"
        if status != 200:
            return f"HTTP {status}: {body[:200]!r}"
        if len(body) != expected:
            return f"answer frame of {len(body)} bytes, expected {expected}"
        return None

    return check


def check_build(status, headers, body):
    if status in (409, 429):
        return "refused"
    if status not in (200, 201):
        return f"HTTP {status}: {body[:200]!r}"
    return None


def check_ingest(status, headers, body):
    if status in (409, 429):
        return "refused"
    if status != 200:
        return f"HTTP {status}: {body[:200]!r}"
    report = json.loads(body)
    if report["duplicate"]:
        return f"batch {report['batch_id']} acknowledged as a duplicate"
    return None


class FreshQueries:
    """A fixed pool of pre-encoded query batches, sent in order and cycled.

    The pool holds more answers than the server's answer cache, so every
    batch misses it.  ``next_op()`` is safe to call from several threads:
    the batch index comes from a shared counter.
    """

    def __init__(self, rects: RectSource, methods, seed: int, n_rects: int,
                 pool: int):
        releases = [key(m, seed) for m in methods]
        self._batches = [
            (releases[i % len(releases)].slug(),
             protocol.encode_query(releases[i % len(releases)], rects.batch(n_rects)))
            for i in range(pool)
        ]
        self._counter = itertools.count()
        self._check = check_answer(n_rects)

    def __len__(self) -> int:
        return len(self._batches)

    def boxes(self, index: int) -> np.ndarray:
        return protocol.decode_query(self._batches[index][1]).boxes

    def next_op(self) -> Op:
        i = next(self._counter) % len(self._batches)
        slug, body = self._batches[i]
        return Op("query", "POST", "/query", body, BINARY, self._check, tag=(slug, i))

    def stream(self):
        while True:
            yield self.next_op()


class IngestBodies:
    """JSON ingest bodies: a pool of point sets, each request a new id."""

    def __init__(self, rng: np.random.Generator, n_points: int, seed: int,
                 pool: int = 16):
        spec = get_spec(DATASET)
        points = spec.make(n=n_points * pool, rng=int(rng.integers(1 << 31))).points
        self._seed = seed
        self._n = n_points
        self._suffixes = [
            json.dumps({
                "dataset": DATASET,
                "seed": seed,
                "points": np.round(chunk, 6).tolist(),
            })[1:].encode()
            for chunk in np.split(points, pool)
        ]
        self._counter = itertools.count()

    def next_op(self) -> Op:
        i = next(self._counter)
        body = b'{"batch_id": "b%d", ' % i + self._suffixes[i % len(self._suffixes)]
        return Op("ingest", "POST", "/ingest", body, JSON, check_ingest,
                  points=self._n, tag=f"{DATASET}|{self._seed}")


def build_op(release: ReleaseKey, force: bool) -> Op:
    body = json.dumps({**release.to_payload(), "force": force}).encode()
    return Op("build", "POST", "/releases", body, JSON, check_build,
              tag=release)


class Workload:
    """Base: flags, set-up, streams.  Subclasses fill in the specifics."""

    name = ""
    auth = False
    ingest = False
    #: Whether the window contains ingests and builds; if not, a separate
    #: write probe measures them.
    writes = False
    #: Whether the window sends queries.
    reader = True
    #: The answer-cache hit ratio the window must show (``None``: any).
    cache_hit_ratio: float | None = None
    max_entries = 16
    #: Indices of the query batches whose answers are kept (once each)
    #: for the bit-identity check.
    sampled: set = frozenset()
    #: The workload's fresh query batches, if it sends any.
    fresh: FreshQueries | None = None

    def __init__(self, scale: Scale, rng: np.random.Generator, seconds: float):
        self.scale = scale
        self.seconds = seconds
        self.rects = RectSource(rng, scale.n_points)
        self._kept: set = set()

    def server_args(self, store_dir) -> list[str]:
        args = [
            "--port", "0", "--store-dir", str(store_dir),
            "--n-points", str(self.scale.n_points),
            "--dataset-budget", str(DATASET_BUDGET),
            "--max-entries", str(self.max_entries),
            "--answer-cache-bytes", str(self.scale.answer_cache_bytes),
            "--auth", "require" if self.auth else "off",
        ]
        if self.ingest:
            # Drift 1.0: streamed points never trigger a refresh.
            args += ["--ingest", "--drift-threshold", "1.0"]
        return args

    def setup(self, session) -> None:
        raise NotImplementedError

    def streams(self) -> list:
        raise NotImplementedError

    def boxes(self, index: int) -> np.ndarray:
        """The rectangles of query batch ``index``."""
        return self.fresh.boxes(index)

    def sample(self, op: Op) -> bool:
        """Whether ``op``'s answer is kept for the bit-identity check."""
        if op.kind != "query" or op.tag[1] not in self.sampled:
            return False
        if op.tag[1] in self._kept:
            return False
        self._kept.add(op.tag[1])
        return True


def build_all(session, releases) -> None:
    for release in releases:
        session.call(build_op(release, force=False))


def check_json_binary(session, releases, rects: RectSource) -> None:
    """JSON and binary answers to one batch per method must be identical."""
    for release in releases:
        boxes = rects.batch(64)
        status, _, body, *_ = session.conn.request(
            "POST", "/query",
            json.dumps({**release.to_payload(), "rects": boxes.tolist()}).encode(),
            JSON,
        )
        if status != 200:
            session.fail(f"JSON query of {release.slug()}: HTTP {status}")
            continue
        from_json = np.asarray(json.loads(body)["estimates"], dtype=np.float64)
        status, _, body, *_ = session.conn.request(
            "POST", "/query", protocol.encode_query(release, boxes), BINARY
        )
        if status != 200:
            session.fail(f"binary query of {release.slug()}: HTTP {status}")
            continue
        session.json_binary.append(
            (release.slug(), from_json, protocol.decode_answer(body).copy())
        )


class QueryWarm(Workload):
    name = "query-warm"
    auth = True
    cache_hit_ratio = 1.0

    def __init__(self, scale, rng, seconds):
        super().__init__(scale, rng, seconds)
        n = scale.warm_batches_per_method
        self.batches = [
            (key(m, 0), self.rects.batch(scale.batch_rects))
            for m in WARM_METHODS for _ in range(n)
        ]
        order = rng.permutation(len(self.batches))
        self.batches = [self.batches[i] for i in order]
        self.bodies = [protocol.encode_query(k, b) for k, b in self.batches]
        self.sampled = set(rng.choice(len(self.batches), min(12, len(self.batches)),
                                      replace=False).tolist())
        self._check = check_answer(scale.batch_rects)

    def setup(self, session) -> None:
        releases = [key(m, 0) for m in WARM_METHODS]
        build_all(session, releases)
        check_json_binary(session, releases, self.rects)
        for i in range(len(self.bodies)):
            session.call(self._op(i))

    def _op(self, i: int) -> Op:
        return Op("query", "POST", "/query", self.bodies[i], BINARY, self._check,
                  tag=(self.batches[i][0].slug(), i))

    def boxes(self, index: int) -> np.ndarray:
        return self.batches[index][1]

    def streams(self) -> list:
        counter = itertools.count()

        def stream():
            for i in counter:
                yield self._op(i % len(self.bodies))

        return [stream(), stream()]


class QueryCold(Workload):
    name = "query-cold"
    cache_hit_ratio = 0.0

    def __init__(self, scale, rng, seconds):
        super().__init__(scale, rng, seconds)
        self.fresh = FreshQueries(self.rects, METHODS, 0, scale.batch_rects,
                                  scale.fresh_pool())
        self.sampled = set(rng.choice(min(len(self.fresh), 200), 18,
                                      replace=False).tolist())

    def setup(self, session) -> None:
        releases = [key(m, 0) for m in METHODS]
        build_all(session, releases)
        # Prepares every engine before the window.
        check_json_binary(session, releases, self.rects)

    def streams(self) -> list:
        return [self.fresh.stream(), self.fresh.stream()]


class IngestMixed(Workload):
    name = "ingest-mixed"
    auth = True
    ingest = True
    writes = True
    max_entries = MIXED_MAX_ENTRIES

    def __init__(self, scale, rng, seconds, reader: bool = True):
        super().__init__(scale, rng, seconds)
        self.reader = reader
        if reader:
            self.fresh = FreshQueries(self.rects, REBUILD_METHODS, REBUILD_SEED,
                                      scale.batch_rects, scale.fresh_pool())
            self.sampled = set(rng.choice(min(len(self.fresh), 100), 15,
                                          replace=False).tolist())
        self.ingests = IngestBodies(rng, scale.ingest_points, INGEST_SEED)
        self.rebuild_prefix = IngestBodies(rng, scale.ingest_points, REBUILD_SEED, 1)

    def setup(self, session) -> None:
        # Live releases on the ingest instance, built before any ingest.
        build_all(session, [key(m, INGEST_SEED) for m in INGEST_RELEASES])
        # The rebuilt instance gets its one staged batch first: every
        # later build of its keys is charged under that epoch once.
        session.call(self.rebuild_prefix.next_op())
        releases = [key(m, REBUILD_SEED) for m in REBUILD_METHODS]
        build_all(session, releases)
        if self.reader:
            check_json_binary(session, releases, self.rects)
        # The first ingest builds the drift trackers.
        session.call(self.ingests.next_op())

    def writer(self):
        releases = itertools.cycle([key(m, REBUILD_SEED) for m in REBUILD_METHODS])
        while True:
            for _ in range(INGESTS_PER_REBUILD):
                yield self.ingests.next_op()
            yield build_op(next(releases), force=True)

    def streams(self) -> list:
        if not self.reader:
            return [self.writer()]
        return [self.writer(), self.fresh.stream()]


WORKLOADS = {w.name: w for w in (QueryWarm, QueryCold, IngestMixed)}
