"""Shared fixtures for the fault-injection suite (``make test-faults``).

Each test arms hooks in :mod:`repro.service.faultinject` to break the
service at a named point — disk full mid-archive-write, a crash between
fsync and rename, a socket that drips one byte a second — and asserts
the armor holds: load is shed, deadlines fire, corruption is
quarantined, budgets never double-spend.  Hooks are process-global, so
an autouse fixture clears them around every test.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest
from faultutil import N_POINTS

from repro.service import faultinject
from repro.service.query_service import QueryService
from repro.service.server import serve
from repro.service.store import SynopsisStore


@pytest.fixture(autouse=True)
def clean_faults():
    """No fault leaks between tests, pass or fail."""
    faultinject.clear()
    yield
    faultinject.clear()


@pytest.fixture
def make_service():
    def _make(store_dir=None, **store_kwargs):
        kwargs = {"n_points": N_POINTS, "dataset_budget": 4.0}
        kwargs.update(store_kwargs)
        return QueryService(SynopsisStore(store_dir=store_dir, **kwargs))

    return _make


@pytest.fixture
def start_server():
    """Start servers on ephemeral ports; always shut them down."""
    running = []

    def _start(service, **fault_options):
        server = serve(service, "127.0.0.1", 0, **fault_options)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        running.append((server, thread))
        return server

    yield _start
    for server, thread in running:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def call():
    """One JSON request; returns (status, decoded body, headers)."""

    def _call(server, path, payload=None, timeout=30):
        request = urllib.request.Request(
            server.url + path,
            data=None if payload is None else json.dumps(payload).encode(),
            method="GET" if payload is None else "POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, json.loads(response.read()), dict(
                    response.headers
                )
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read()), dict(error.headers)

    return _call
