"""Start, probe and stop an unmodified ``python -m repro serve`` process.

Readiness is the server's own ``serving ... on http://host:port`` line,
read from its standard output as it is printed; nothing sleeps or polls.
A traced server is the same CLI entry point run under
``traced_serve.py``, which wraps each layer's functions before serving.
"""

from __future__ import annotations

import collections
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

__all__ = ["Server", "create_api_key"]

HERE = Path(__file__).resolve().parent
_READY = re.compile(r"serving .*\bon http://([\w.\-]+):(\d+)")


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("REPRO_FAULTS", None)
    return env


def create_api_key(root: Path, store_dir: Path, tenant: str) -> str:
    """Mint an API key with the CLI's one-shot admin command."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--store-dir", str(store_dir),
         "--create-api-key", tenant],
        cwd=root, env=_env(root), capture_output=True, text=True, timeout=120,
    )
    if result.returncode != 0:
        raise RuntimeError(f"--create-api-key failed: {result.stderr.strip()}")
    return result.stdout.strip().splitlines()[-1]


class Server:
    """One server process; ``spans_path`` set means a traced server."""

    def __init__(self, root: Path, args: list[str], log_path: Path,
                 spans_path: Path | None = None):
        if spans_path is None:
            command = [sys.executable, "-m", "repro", "serve", *args]
        else:
            command = [sys.executable, str(HERE / "traced_serve.py"),
                       str(spans_path), *args]
        self._command = command
        self._root = root
        self._log_path = log_path
        self._lines: queue.Queue = queue.Queue()
        self._tail: collections.deque = collections.deque(maxlen=20)
        self._proc: subprocess.Popen | None = None
        self._reader: threading.Thread | None = None
        self.host = ""
        self.port = 0

    def start(self, timeout: float = 120.0) -> None:
        self._proc = subprocess.Popen(
            self._command, cwd=self._root, env=_env(self._root),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        give_up = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, give_up - time.monotonic()))
            except queue.Empty:
                self.stop()
                raise RuntimeError(f"server not ready within {timeout:.0f} s")
            if line is None:
                self.stop()
                raise RuntimeError(
                    "server exited before serving:\n" + "".join(self._tail)
                )
            match = _READY.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return

    def _pump(self) -> None:
        """Copy the server's output to its log, handing lines to start()."""
        with open(self._log_path, "w", encoding="utf-8") as log:
            for raw in self._proc.stdout:
                line = raw.decode("utf-8", "replace")
                log.write(line)
                log.flush()
                self._tail.append(line)
                self._lines.put(line)
        self._lines.put(None)

    @property
    def pid(self) -> int:
        return self._proc.pid

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) in MiB."""
        with open(f"/proc/{self._proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM (graceful drain), then SIGKILL if it lingers; wait."""
        proc = self._proc
        if proc is None:
            return 0
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if self._reader is not None:
            self._reader.join(timeout=timeout)
        return proc.returncode
