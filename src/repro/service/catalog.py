"""The SQLite-backed metadata catalog for the multi-tenant service tier.

One :class:`Catalog` file holds everything the serving layer knows
*about* its data — never the data itself:

* **tenants** — the namespaces requests resolve to.  The implicit
  ``default`` tenant always exists, so a single-operator deployment
  (``--auth off``) needs no setup.
* **API keys** — hashed at rest (SHA-256 of the secret half; the
  plaintext token is shown exactly once, at creation) and verified with
  :func:`hmac.compare_digest` (see :mod:`repro.service.auth`).
* **dataset registrations** — the tenant-scoped CRUD objects behind
  ``POST/GET/DELETE /datasets``, listed with stable rowid cursors.
* **release metadata** — which release slugs each tenant has built.
* **the per-tenant privacy ledger** — every epsilon spend, in spend
  order, with the per-dataset-instance totals.  This is the catalog's
  load-bearing table and the service's only persisted ledger:
  check-then-spend runs inside one ``BEGIN IMMEDIATE`` transaction
  (:meth:`Catalog.exclusive`), so two server processes sharing the file
  can never interleave a double spend.

**Migration.**  :meth:`Catalog.import_budgets_json` imports the
``budgets.json`` spend history of a pre-catalog store directory
*bit-for-bit* — same totals, same ``[epsilon, label]`` rows in the same
order (SQLite ``REAL`` is the same IEEE-754 double the JSON parser
produced, so nothing is re-rounded).  The import is one-shot and
idempotent: a marker row in ``meta`` records that the file was
consumed, and re-opening the store never imports it twice
(double-importing would double the recorded privacy loss).  Nothing
writes ``budgets.json`` any more; after the import the file is inert.

The catalog is stdlib-only (``sqlite3``), WAL-journaled for concurrent
readers, and safe to share across threads (connections are per-thread)
and across processes (transactions serialise writers).
"""

from __future__ import annotations

import hashlib
import hmac
import json
import secrets
import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro.service import faultinject
from repro.service.errors import (
    AuthForbidden,
    DatasetExists,
    DatasetNotFound,
    ValidationError,
)

__all__ = [
    "Catalog",
    "DEFAULT_TENANT",
    "validate_tenant_id",
]

#: The implicit tenant every unauthenticated deployment operates as.
DEFAULT_TENANT = "default"

#: Name of the catalog file inside a ``--store-dir``.
CATALOG_FILE = "catalog.sqlite"

_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS tenants (
    id         TEXT PRIMARY KEY,
    created_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS api_keys (
    key_id      TEXT PRIMARY KEY,
    tenant_id   TEXT NOT NULL REFERENCES tenants(id),
    secret_hash TEXT NOT NULL,
    name        TEXT NOT NULL DEFAULT '',
    created_at  REAL NOT NULL,
    revoked     INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS datasets (
    tenant_id   TEXT NOT NULL REFERENCES tenants(id),
    name        TEXT NOT NULL,
    spec        TEXT NOT NULL,
    description TEXT NOT NULL DEFAULT '',
    created_at  REAL NOT NULL,
    PRIMARY KEY (tenant_id, name)
);
CREATE TABLE IF NOT EXISTS releases (
    tenant_id TEXT NOT NULL REFERENCES tenants(id),
    slug      TEXT NOT NULL,
    dataset   TEXT NOT NULL,
    method    TEXT NOT NULL,
    epsilon   REAL NOT NULL,
    seed      INTEGER NOT NULL,
    built_at  REAL NOT NULL,
    PRIMARY KEY (tenant_id, slug)
);
CREATE TABLE IF NOT EXISTS budget_totals (
    tenant_id TEXT NOT NULL,
    data_id   TEXT NOT NULL,
    total     REAL NOT NULL,
    PRIMARY KEY (tenant_id, data_id)
);
CREATE TABLE IF NOT EXISTS ledger (
    tenant_id TEXT NOT NULL,
    data_id   TEXT NOT NULL,
    seq       INTEGER NOT NULL,
    epsilon   REAL NOT NULL,
    label     TEXT NOT NULL,
    PRIMARY KEY (tenant_id, data_id, seq)
);
"""

#: Tenant identifiers are path components (per-tenant store subdirs) and
#: must stay slug-safe: lowercase alphanumerics plus ``-``, 1..64 chars.
_TENANT_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789-")


def validate_tenant_id(tenant: str) -> str:
    """Check a tenant id is a safe namespace token; returns it unchanged."""
    if (
        not isinstance(tenant, str)
        or not tenant
        or len(tenant) > 64
        or not set(tenant) <= _TENANT_CHARS
        or tenant[0] == "-"
    ):
        raise ValidationError(
            f"invalid tenant id {tenant!r}: use 1-64 lowercase letters, "
            "digits, or '-', not starting with '-'"
        )
    return tenant


def _hash_secret(secret: str) -> str:
    return hashlib.sha256(secret.encode("utf-8")).hexdigest()


class Catalog:
    """SQLite metadata catalog; see the module docstring for the model.

    Connections are opened per thread (SQLite connections must not hop
    threads) against one WAL-mode database file, so any number of
    catalog handles — across threads *and* processes — observe a single
    serialised history of writes.
    """

    #: How stale a cached API-key resolution may go before SQLite's
    #: ``data_version`` is re-read to detect writes from *other*
    #: processes.  Writes through this handle invalidate immediately
    #: (see ``_generation``); 0 re-validates on every resolve.
    auth_cache_ttl_s = 0.1

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._local = threading.local()
        # Bumped around every committed write through this handle, from
        # any thread; resolve_api_key's per-thread caches check it on
        # every hit, so an in-process revocation takes effect on the
        # very next resolve with no SQLite round trip on the hot path.
        self._generation = 0
        # Autocommit statements: executescript would implicitly COMMIT an
        # open transaction, and IF NOT EXISTS / OR IGNORE make concurrent
        # first-opens race-safe on their own.
        conn = self._conn()
        conn.executescript(_SCHEMA)
        conn.execute(
            "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
            ("schema_version", str(_SCHEMA_VERSION)),
        )
        conn.execute(
            "INSERT OR IGNORE INTO tenants (id, created_at) VALUES (?, ?)",
            (DEFAULT_TENANT, time.time()),
        )

    @property
    def path(self) -> Path:
        return self._path

    def _conn(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(self._path, timeout=30.0)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=FULL")
            # Transactions are managed explicitly (BEGIN IMMEDIATE in
            # exclusive()); autocommit otherwise.
            conn.isolation_level = None
            self._local.conn = conn
        return conn

    @contextmanager
    def exclusive(self):
        """One cross-process write transaction (``BEGIN IMMEDIATE``).

        The write lock is taken *up front*, so a check-then-spend that
        runs inside this block is atomic against every other process
        sharing the catalog file.  Nests safely within one thread
        (inner blocks join the outer transaction).
        """
        conn = self._conn()
        if getattr(self._local, "txn_depth", 0) > 0:
            self._local.txn_depth += 1
            try:
                yield conn
            finally:
                self._local.txn_depth -= 1
            return
        conn.execute("BEGIN IMMEDIATE")
        self._local.txn_depth = 1
        try:
            yield conn
            faultinject.fire("catalog.commit", path=str(self._path))
            # Bumped on both sides of COMMIT: the first bump invalidates
            # auth-cache hits racing the commit, the second invalidates
            # entries cached *during* the commit window (which read
            # pre-commit rows).  A rolled-back bump only over-invalidates.
            self._generation += 1
            conn.execute("COMMIT")
        except BaseException:
            try:
                conn.execute("ROLLBACK")
            except sqlite3.Error:
                pass
            raise
        finally:
            self._generation += 1
            self._local.txn_depth = 0

    def close(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    # ------------------------------------------------------------------
    # Tenants and API keys
    # ------------------------------------------------------------------

    def ensure_tenant(self, tenant: str) -> None:
        validate_tenant_id(tenant)
        with self.exclusive() as conn:
            conn.execute(
                "INSERT OR IGNORE INTO tenants (id, created_at) VALUES (?, ?)",
                (tenant, time.time()),
            )

    def tenant_exists(self, tenant: str) -> bool:
        row = self._conn().execute(
            "SELECT 1 FROM tenants WHERE id = ?", (tenant,)
        ).fetchone()
        return row is not None

    def tenant_ids(self) -> list[str]:
        rows = self._conn().execute(
            "SELECT id FROM tenants ORDER BY id"
        ).fetchall()
        return [row[0] for row in rows]

    def create_api_key(self, tenant: str, name: str = "") -> str:
        """Mint an API key for ``tenant``; returns the one-time token.

        The token is ``rk_<key_id>.<secret>``; only the SHA-256 of the
        secret half is stored, so a catalog leak does not leak usable
        credentials.  The tenant is created if it does not exist.
        """
        validate_tenant_id(tenant)
        key_id = secrets.token_hex(8)
        secret = secrets.token_hex(24)
        with self.exclusive() as conn:
            conn.execute(
                "INSERT OR IGNORE INTO tenants (id, created_at) VALUES (?, ?)",
                (tenant, time.time()),
            )
            conn.execute(
                "INSERT INTO api_keys (key_id, tenant_id, secret_hash, name,"
                " created_at) VALUES (?, ?, ?, ?, ?)",
                (key_id, tenant, _hash_secret(secret), name, time.time()),
            )
        return f"rk_{key_id}.{secret}"

    def revoke_api_key(self, key_id: str) -> bool:
        with self.exclusive() as conn:
            cursor = conn.execute(
                "UPDATE api_keys SET revoked = 1 WHERE key_id = ?", (key_id,)
            )
        return cursor.rowcount > 0

    def resolve_api_key(self, token: str) -> str:
        """Resolve a presented token to its tenant id.

        Raises :class:`AuthForbidden` for anything that does not match
        an active key — the message never distinguishes a bad key id
        from a bad secret from a revoked key.  The secret comparison is
        :func:`hmac.compare_digest` over the stored hash, so it leaks no
        timing signal about how much of the hash matched.

        Successful resolutions are cached per thread, keyed by the
        token's digest (never the token itself), with two freshness
        guards.  Writes through *this* handle — a revocation included,
        from any thread — bump ``_generation`` and take effect on the
        very next resolve.  Writes from *other* processes (an admin CLI
        revoking a key) are detected by re-reading SQLite's
        ``data_version`` pragma plus the connection's ``total_changes``,
        amortised to at most once per ``auth_cache_ttl_s`` (default
        100 ms, the bounded cross-process revocation-propagation delay;
        0 re-validates every resolve).  Failures are never cached (they
        keep their constant-cost path).
        """
        rejection = AuthForbidden("API key is not recognised")
        if not token.startswith("rk_") or "." not in token:
            raise rejection
        conn = self._conn()
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        now = time.monotonic()
        cache = getattr(self._local, "auth_cache", None)
        if cache is not None and cache["generation"] == self._generation:
            fresh = now - cache["checked_at"] <= self.auth_cache_ttl_s
            if not fresh:
                stamp = (
                    conn.execute("PRAGMA data_version").fetchone()[0],
                    conn.total_changes,
                )
                fresh = stamp == cache["stamp"]
                if fresh:
                    cache["checked_at"] = now
            if fresh:
                tenant = cache["entries"].get(digest)
                if tenant is not None:
                    return tenant
            else:
                cache = None
        else:
            cache = None
        if cache is None:
            cache = {
                "generation": self._generation,
                "stamp": (
                    conn.execute("PRAGMA data_version").fetchone()[0],
                    conn.total_changes,
                ),
                "checked_at": now,
                "entries": {},
            }
            self._local.auth_cache = cache
        key_id, _, secret = token[3:].partition(".")
        row = conn.execute(
            "SELECT secret_hash, tenant_id, revoked FROM api_keys"
            " WHERE key_id = ?",
            (key_id,),
        ).fetchone()
        if row is None:
            # Burn the comparison anyway so present-vs-absent key ids
            # cost the same.
            hmac.compare_digest(_hash_secret(secret), _hash_secret(""))
            raise rejection
        stored_hash, tenant, revoked = row
        if not hmac.compare_digest(stored_hash, _hash_secret(secret)):
            raise rejection
        if revoked:
            raise rejection
        if len(cache["entries"]) < 1024:  # bound a hostile token flood
            cache["entries"][digest] = tenant
        return tenant

    # ------------------------------------------------------------------
    # Dataset registrations (tenant-scoped CRUD)
    # ------------------------------------------------------------------

    def register_dataset(
        self, tenant: str, name: str, spec: str, description: str = ""
    ) -> dict:
        with self.exclusive() as conn:
            conn.execute(
                "INSERT OR IGNORE INTO tenants (id, created_at) VALUES (?, ?)",
                (tenant, time.time()),
            )
            try:
                conn.execute(
                    "INSERT INTO datasets (tenant_id, name, spec, description,"
                    " created_at) VALUES (?, ?, ?, ?, ?)",
                    (tenant, name, spec, description, time.time()),
                )
            except sqlite3.IntegrityError:
                raise DatasetExists(
                    f"dataset {name!r} is already registered for this tenant"
                ) from None
        return self.get_dataset(tenant, name)

    def get_dataset(self, tenant: str, name: str) -> dict:
        row = self._conn().execute(
            "SELECT rowid, name, spec, description, created_at FROM datasets"
            " WHERE tenant_id = ? AND name = ?",
            (tenant, name),
        ).fetchone()
        if row is None:
            raise DatasetNotFound(
                f"no dataset {name!r} registered for this tenant"
            )
        return self._dataset_payload(row)

    def delete_dataset(self, tenant: str, name: str) -> None:
        with self.exclusive() as conn:
            cursor = conn.execute(
                "DELETE FROM datasets WHERE tenant_id = ? AND name = ?",
                (tenant, name),
            )
        if cursor.rowcount == 0:
            raise DatasetNotFound(
                f"no dataset {name!r} registered for this tenant"
            )

    def list_datasets(
        self, tenant: str, limit: int = 50, cursor: int | None = None
    ) -> tuple[list[dict], int | None]:
        """One page of the tenant's registrations, oldest first.

        ``cursor`` is the opaque position a previous page returned
        (``None`` starts from the beginning); the listing is ordered by
        rowid, so pages are stable under concurrent inserts — rows
        created after a cursor was minted appear on later pages, and
        deletions never shift earlier rows.  Returns ``(rows,
        next_cursor)`` with ``next_cursor=None`` on the last page.
        """
        rows = self._conn().execute(
            "SELECT rowid, name, spec, description, created_at FROM datasets"
            " WHERE tenant_id = ? AND rowid > ?"
            " ORDER BY rowid LIMIT ?",
            (tenant, cursor or 0, limit + 1),
        ).fetchall()
        page = rows[:limit]
        next_cursor = int(page[-1][0]) if len(rows) > limit else None
        return [self._dataset_payload(row) for row in page], next_cursor

    @staticmethod
    def _dataset_payload(row) -> dict:
        rowid, name, spec, description, created_at = row
        return {
            "name": name,
            "spec": spec,
            "description": description,
            "created_at": created_at,
            "id": int(rowid),
        }

    # ------------------------------------------------------------------
    # Release metadata
    # ------------------------------------------------------------------

    def note_release(self, tenant: str, key) -> None:
        """Record (idempotently) that a release was built for a tenant."""
        with self.exclusive() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO releases (tenant_id, slug, dataset,"
                " method, epsilon, seed, built_at) VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    tenant,
                    key.slug(),
                    key.dataset,
                    key.method,
                    float(key.epsilon),
                    int(key.seed),
                    time.time(),
                ),
            )

    def release_slugs(self, tenant: str) -> list[str]:
        rows = self._conn().execute(
            "SELECT slug FROM releases WHERE tenant_id = ? ORDER BY slug",
            (tenant,),
        ).fetchall()
        return [row[0] for row in rows]

    # ------------------------------------------------------------------
    # The per-tenant privacy ledger
    # ------------------------------------------------------------------

    def load_budgets(self, tenant: str) -> dict[str, dict]:
        """The tenant's ledger in ``budgets.json`` payload shape.

        ``{data_id: {"total": float, "ledger": [[epsilon, label], ...]}}``
        with ledger rows in spend order — the ``budgets`` member of the
        version-1 ``budgets.json`` document pre-catalog stores wrote.
        """
        conn = self._conn()
        budgets: dict[str, dict] = {}
        for data_id, total in conn.execute(
            "SELECT data_id, total FROM budget_totals WHERE tenant_id = ?"
            " ORDER BY data_id",
            (tenant,),
        ):
            budgets[data_id] = {"total": total, "ledger": []}
        for data_id, epsilon, label in conn.execute(
            "SELECT data_id, epsilon, label FROM ledger WHERE tenant_id = ?"
            " ORDER BY data_id, seq",
            (tenant,),
        ):
            budgets.setdefault(data_id, {"total": 0.0, "ledger": []})[
                "ledger"
            ].append([epsilon, label])
        return budgets

    def replace_budgets(self, tenant: str, budgets: dict[str, dict]) -> None:
        """Overwrite the tenant's ledger rows (call inside ``exclusive``).

        ``budgets`` is the payload shape :meth:`load_budgets` returns.
        Delete-and-reinsert keeps row order exactly the in-memory spend
        order, so a reload replays the spends bit-for-bit.
        """
        conn = self._conn()
        faultinject.fire("catalog.replace", tenant=tenant)
        conn.execute("DELETE FROM budget_totals WHERE tenant_id = ?", (tenant,))
        conn.execute("DELETE FROM ledger WHERE tenant_id = ?", (tenant,))
        for data_id, state in budgets.items():
            conn.execute(
                "INSERT INTO budget_totals (tenant_id, data_id, total)"
                " VALUES (?, ?, ?)",
                (tenant, data_id, float(state["total"])),
            )
            for seq, (epsilon, label) in enumerate(state["ledger"]):
                conn.execute(
                    "INSERT INTO ledger (tenant_id, data_id, seq, epsilon,"
                    " label) VALUES (?, ?, ?, ?, ?)",
                    (tenant, data_id, seq, float(epsilon), str(label)),
                )

    def import_budgets_json(self, tenant: str, path: str | Path) -> bool:
        """One-shot idempotent import of a ``budgets.json`` spend history.

        Returns ``True`` when the file was imported now, ``False`` when
        the marker shows it was already consumed (or the file does not
        exist).  The import happens in the same transaction that sets
        the marker, so a crash mid-import replays cleanly and a
        completed import can never run twice.  Raises ``ValueError``
        (marker left unset) for a file that is not a version-1 ledger,
        and for a history an older store quarantined as
        ``budgets.json.corrupt`` — a corrupt history must never be
        silently dropped, and importing "no file" as an empty ledger
        would reset every past spend.
        """
        path = Path(path)
        marker = f"imported_budgets_json:{tenant}"
        with self.exclusive() as conn:
            done = conn.execute(
                "SELECT 1 FROM meta WHERE key = ?", (marker,)
            ).fetchone()
            if done is not None:
                return False
            quarantined = path.with_name(path.name + ".corrupt")
            if quarantined.exists():
                raise ValueError(
                    f"{quarantined} holds a quarantined ledger history that "
                    "was never imported; reconcile it into "
                    f"{path.name} (or remove it) before building again"
                )
            if not path.exists():
                # No pre-catalog history: the tenant is catalog-native
                # from day one.  Set the marker anyway, so a file placed
                # at this path later is never mistaken for history.
                conn.execute(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    (marker, str(path)),
                )
                return False
            payload = json.loads(path.read_text(encoding="utf-8"))
            if payload.get("version") != 1:
                raise ValueError(
                    f"unsupported budget ledger version {payload.get('version')!r}"
                )
            budgets = {
                data_id: {
                    "total": float(state["total"]),
                    "ledger": [
                        [float(epsilon), str(label)]
                        for epsilon, label in state["ledger"]
                    ],
                }
                for data_id, state in payload["budgets"].items()
            }
            self.replace_budgets(tenant, budgets)
            conn.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                (marker, str(path)),
            )
        return True
