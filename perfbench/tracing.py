"""Per-layer spans for the traced server run.

:func:`install` wraps the public functions at each layer boundary of
``repro.service``, ``repro.queries`` and ``repro.core`` from outside the
program: the repository's code is not edited, its functions are replaced
in the running process by timing wrappers.  Each finished span records
``(start, duration, self time, thread)``, where self time is the
duration minus the time covered by spans it caused on the same thread,
and thread numbers the server threads in the order they first recorded
a span.  Spans stay in memory and :meth:`Recorder.dump` writes them out
when the server exits.

:func:`summarize` turns a dump into the per-layer metrics of one run:
``<span>.calls`` and ``<span>.self_us`` (median self time).  Spans of the
build path (:data:`BUILD_SPANS`) are counted from the server's start, so
the builds of set-up are included; every other span only inside the
timed window.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time

import numpy as np

__all__ = ["BUILD_SPANS", "METHODS", "SPANS", "Recorder", "install", "load",
           "summarize"]

#: The servable methods, in a fixed order for span names.
METHODS = ("UG", "AG", "Quad", "Kst", "Khy", "Hier", "Privelet", "UGnd", "Hier1d")

#: Every span the traced run reports, by layer.
SPANS = (
    "server.request", "server.dispatch", "server.read_body", "server.send",
    "router.resolve", "auth.authenticate", "protocol.decode_query",
    "protocol.encode_answer", "query.answer",
    "admission.try_enter",
    *(f"engine.answer_batch.{m}" for m in METHODS),
    "store.get", "serialization.synopsis_from_path", "query.make_engine",
    "schemas.parse_ingest", "ingest.ingest", "wal.append",
    "store.build", *(f"builder.fit.{m}" for m in METHODS),
    "catalog.exclusive", "budget.spend", "budget.save",
    "serialization.synopsis_to_bytes", "store.atomic_write",
)

#: The build path.  Charged builds (``budget.spend`` and the ledger
#: write, ``budget.save``) happen only in set-up: a build in a timed
#: window replays an epoch label the ledger already holds, so these spans
#: are summarised over set-up and window together.
BUILD_SPANS = frozenset(SPANS[SPANS.index("store.build"):])

_clock = time.perf_counter


class Recorder:
    """Thread-aware span store: one open-span stack per thread."""

    def __init__(self):
        #: Per-thread state: the open-span stack, the thread's number, and
        #: the wrappers' flags.
        self.local = threading.local()
        self.spans: dict[str, list] = {}
        self._threads = itertools.count()

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
            self.local.thread = next(self._threads)
        return stack

    def record(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        stack = self._stack()
        stack.append(0.0)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, stack, start)

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        stack.append(0.0)
        start = _clock()
        try:
            yield
        finally:
            self._close(name, stack, start)

    def _close(self, name: str, stack: list, start: float) -> None:
        duration = _clock() - start
        children = stack.pop()
        if stack:
            stack[-1] += duration
        self.spans.setdefault(name, []).append(
            (start, duration, duration - children, self.local.thread)
        )

    def dump(self, path) -> None:
        arrays = {
            name: np.asarray(rows, dtype=float).reshape(-1, 4)
            for name, rows in list(self.spans.items())
        }
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)


def _wrap(recorder: Recorder, owner, attribute: str, name: str) -> None:
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        return recorder.record(name, original, *args, **kwargs)

    setattr(owner, attribute, traced)


def install() -> Recorder:
    """Wrap every layer boundary named in :data:`SPANS`; return the store."""
    import repro.service.cli  # noqa: F401  (imports every layer)
    from repro.privacy.budget import PrivacyBudget
    from repro.service import protocol, query_service, server, store
    from repro.service.auth import ApiKeyAuthenticator
    from repro.service.catalog import Catalog
    from repro.service.ingest import IngestManager
    from repro.service.router import Router
    from repro.service.telemetry import AdmissionController
    from repro.service.wal import WriteAheadLog

    recorder = Recorder()
    local = recorder.local
    handler = server._Handler

    original_handle = handler.handle_one_request

    @functools.wraps(original_handle)
    def handle_one_request(self):
        # A keep-alive connection waits here for the client's next
        # request; the span starts once its first byte has arrived, so
        # idle time between requests is not charged to the server.
        with contextlib.suppress(Exception):
            self.rfile._rfile.peek(1)
        return recorder.record("server.request", original_handle, self)

    handler.handle_one_request = handle_one_request
    _wrap(recorder, handler, "_dispatch", "server.dispatch")
    _wrap(recorder, handler, "_read_body", "server.read_body")
    _wrap(recorder, handler, "_send_bytes", "server.send")
    _wrap(recorder, Router, "resolve", "router.resolve")
    _wrap(recorder, ApiKeyAuthenticator, "authenticate", "auth.authenticate")
    _wrap(recorder, protocol, "decode_query", "protocol.decode_query")
    _wrap(recorder, protocol, "encode_answer", "protocol.encode_answer")
    _wrap(recorder, AdmissionController, "try_enter", "admission.try_enter")
    _wrap(recorder, store.SynopsisStore, "get", "store.get")
    _wrap(recorder, store, "synopsis_from_path", "serialization.synopsis_from_path")
    _wrap(recorder, query_service, "make_engine", "query.make_engine")
    _wrap(recorder, server, "parse_ingest_request", "schemas.parse_ingest")
    _wrap(recorder, IngestManager, "ingest", "ingest.ingest")
    _wrap(recorder, WriteAheadLog, "append", "wal.append")
    _wrap(recorder, store.SynopsisStore, "build", "store.build")
    _wrap(recorder, PrivacyBudget, "spend", "budget.spend")
    # The ledger write: catalog rows and the JSON mirror, with fsync.
    _wrap(recorder, store.SynopsisStore, "_save_budgets", "budget.save")
    _wrap(recorder, store, "synopsis_to_bytes", "serialization.synopsis_to_bytes")
    _wrap(recorder, store, "_atomic_write", "store.atomic_write")

    original_answer = query_service.QueryService.answer

    @functools.wraps(original_answer)
    def answer(self, key, *args, **kwargs):
        # The release's method names the engine span below.
        local.method = key.method
        try:
            return recorder.record("query.answer", original_answer, self, key,
                                   *args, **kwargs)
        finally:
            local.method = None

    query_service.QueryService.answer = answer

    def wrap_engine(cls) -> None:
        original = cls.answer_batch

        @functools.wraps(original)
        def answer_batch(self, *args, **kwargs):
            method = getattr(local, "method", None)
            if method is None or getattr(local, "in_engine", False):
                # Outside a query (drift tracking) or nested inside
                # another engine: attributed to the enclosing span.
                return original(self, *args, **kwargs)
            local.in_engine = True
            try:
                return recorder.record(f"engine.answer_batch.{method}",
                                       original, self, *args, **kwargs)
            finally:
                local.in_engine = False

        cls.answer_batch = answer_batch

    for module in [m for n, m in list(sys.modules.items()) if n.startswith("repro.")]:
        for value in list(vars(module).values()):
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and "answer_batch" in vars(value)):
                wrap_engine(value)

    original_make_builder = store.make_builder

    @functools.wraps(original_make_builder)
    def make_builder(method):
        builder = original_make_builder(method)
        fit = builder.fit

        def traced_fit(*args, **kwargs):
            return recorder.record(f"builder.fit.{method}", fit, *args, **kwargs)

        builder.fit = traced_fit
        return builder

    store.make_builder = make_builder

    original_exclusive = Catalog.exclusive

    @contextlib.contextmanager
    def exclusive(self):
        with recorder.span("catalog.exclusive"):
            with original_exclusive(self) as conn:
                yield conn

    Catalog.exclusive = exclusive
    return recorder


def load(path) -> dict[str, np.ndarray]:
    with np.load(path) as data:
        return {name: data[name] for name in data.files}


def summarize(spans: dict[str, np.ndarray], start: float, end: float) -> dict:
    """Per-span calls and median self time (µs), with totals in seconds.

    A span counts when it starts before ``end`` and, unless it is on the
    build path, at or after ``start``.
    """
    summary = {}
    for name in SPANS:
        rows = spans.get(name, np.empty((0, 4)))
        low = -np.inf if name in BUILD_SPANS else start
        rows = rows[(rows[:, 0] >= low) & (rows[:, 0] < end)]
        summary[name] = {
            "calls": int(len(rows)),
            "self_us": float(np.median(rows[:, 2]) * 1e6) if len(rows) else 0.0,
            "self_total_s": float(rows[:, 2].sum()),
            "dur_total_s": float(rows[:, 1].sum()),
        }
    return summary
