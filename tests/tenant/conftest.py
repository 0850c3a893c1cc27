"""Shared fixtures for the multi-tenant suite (``make test-tenant``).

The suite covers the tenant-aware service tier end to end: the routed
HTTP adapter, API-key authentication, the SQLite metadata catalog, and
the per-tenant budget ledgers — including their cross-process safety
and crash safety.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import faultinject
from repro.service.server import serve

N_POINTS = 1_000


@pytest.fixture(autouse=True)
def clean_faults():
    """No fault leaks between tests, pass or fail."""
    faultinject.clear()
    yield
    faultinject.clear()


@pytest.fixture
def start_server():
    """Start servers on ephemeral ports; always shut them down."""
    running = []

    def _start(service, **options):
        server = serve(service, "127.0.0.1", 0, **options)
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

    def _call(server, path, payload=None, headers=None, method=None, timeout=30):
        request = urllib.request.Request(
            server.url + path,
            data=None if payload is None else json.dumps(payload).encode(),
            method=method or ("GET" if payload is None else "POST"),
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return (
                    response.status,
                    json.loads(response.read()),
                    dict(response.headers),
                )
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read()), dict(error.headers)

    return _call
