"""Catalog unit tests: migration fidelity, pagination, tenant ids."""

import json

import pytest

from repro.service.catalog import DEFAULT_TENANT, Catalog, validate_tenant_id
from repro.service.errors import (
    AuthForbidden,
    BudgetRefused,
    DatasetExists,
    DatasetNotFound,
    ValidationError,
)
from repro.service.keys import ReleaseKey
from repro.service.query_service import QueryService
from repro.service.store import SynopsisStore

N_POINTS = 1_000
LEDGER = "budgets.json"


def _key(epsilon, method="UG", seed=0):
    return ReleaseKey("storage", method, epsilon, seed)


#: A pre-catalog store directory's ledger, as the version-1 JSON format
#: wrote it (nothing writes this format any more).  0.30000000000000004
#: is the sum 0.1 + 0.2, kept to prove the import never re-rounds.
LEGACY_LEDGER = {
    "version": 1,
    "budgets": {
        "storage|0": {
            "total": 4.0,
            "ledger": [
                [0.5, "storage_UG_eps0.5_seed0"],
                [0.30000000000000004, "storage_AG_eps0.30000000000000004_seed0"],
            ],
        },
        "storage|1": {
            "total": 4.0,
            "ledger": [[0.75, "storage_UG_eps0.75_seed1"]],
        },
    },
}

IMPORT_MARKER = f"imported_budgets_json:{DEFAULT_TENANT}"


def _marker_set(catalog) -> bool:
    with catalog.exclusive() as conn:
        row = conn.execute(
            "SELECT 1 FROM meta WHERE key = ?", (IMPORT_MARKER,)
        ).fetchone()
    return row is not None


class TestBudgetsJsonMigration:
    def test_import_is_bit_for_bit(self, tmp_path):
        """Every total, epsilon, label, and their order survive import."""
        (tmp_path / LEDGER).write_text(json.dumps(LEGACY_LEDGER, indent=2))
        catalog = Catalog(tmp_path / "catalog.sqlite")
        SynopsisStore(
            store_dir=tmp_path,
            dataset_budget=4.0,
            n_points=N_POINTS,
            catalog=catalog,
        )
        assert catalog.load_budgets(DEFAULT_TENANT) == LEGACY_LEDGER["budgets"]
        assert _marker_set(catalog)

    def test_import_is_one_shot(self, tmp_path):
        """Edits to the JSON file after import never re-enter the catalog.

        The catalog is authoritative after migration; replaying the file
        on every open would resurrect rows the catalog has since moved
        past (and double-import on a crash loop).
        """
        (tmp_path / LEDGER).write_text(json.dumps(LEGACY_LEDGER))
        catalog = Catalog(tmp_path / "catalog.sqlite")

        def reopen():
            return SynopsisStore(
                store_dir=tmp_path,
                dataset_budget=4.0,
                n_points=N_POINTS,
                catalog=catalog,
            )

        reopen()
        imported = catalog.load_budgets(DEFAULT_TENANT)
        (tmp_path / LEDGER).write_text(json.dumps({"version": 1, "budgets": {}}))
        reopen()
        assert catalog.load_budgets(DEFAULT_TENANT) == imported

    def test_import_rejects_unknown_ledger_version(self, tmp_path):
        (tmp_path / LEDGER).write_text(json.dumps({"version": 99, "budgets": {}}))
        catalog = Catalog(tmp_path / "catalog.sqlite")
        with pytest.raises(ValueError, match="version"):
            catalog.import_budgets_json(DEFAULT_TENANT, tmp_path / LEDGER)

    @pytest.mark.parametrize("name", [LEDGER + ".corrupt", LEDGER])
    def test_unimportable_history_refuses_builds_not_reset(
        self, tmp_path, name, start_server, call
    ):
        """A history that cannot be imported never becomes an empty ledger.

        ``budgets.json.corrupt`` is a history an older store quarantined;
        an unparseable ``budgets.json`` is one it never got to.  Either
        way 0.9 of a 1.0 budget may already be spent, so a fresh 0.9
        build must be refused — at this open and at every restart —
        until the history is reconciled.
        """
        spent = {
            "version": 1,
            "budgets": {
                "storage|0": {
                    "total": 1.0,
                    "ledger": [[0.9, "storage_UG_eps0.9_seed0"]],
                }
            },
        }
        (tmp_path / name).write_text(json.dumps(spent)[:-7])  # truncated
        catalog = Catalog(tmp_path / "catalog.sqlite")
        for _restart in range(2):
            store = SynopsisStore(
                store_dir=tmp_path,
                dataset_budget=1.0,
                n_points=N_POINTS,
                catalog=catalog,
            )
            assert store.ledger_corrupt is not None
            with pytest.raises(BudgetRefused, match="ledger"):
                store.build(_key(0.9, method="AG"))
            assert not _marker_set(catalog)
            assert catalog.load_budgets(DEFAULT_TENANT) == {}
        server = start_server(QueryService(store))
        status, body, _ = call(server, "/health")
        assert status == 200
        assert body["ledger_corrupt"] is True
        status, body, _ = call(
            server,
            "/releases",
            {"dataset": "storage", "method": "AG", "epsilon": 0.9, "seed": 0},
        )
        assert status == 409
        assert body["error"] == "BudgetRefused"


class TestTenantIds:
    @pytest.mark.parametrize("tenant", ["acme", "a", "t-0", "x" * 64])
    def test_valid_ids_pass(self, tenant):
        assert validate_tenant_id(tenant) == tenant

    @pytest.mark.parametrize(
        "tenant", ["", "-lead", "UPPER", "a/b", "a.b", "x" * 65, "a b"]
    )
    def test_invalid_ids_raise(self, tenant):
        with pytest.raises(ValidationError):
            validate_tenant_id(tenant)

    def test_release_key_validates_its_tenant(self):
        with pytest.raises(ValidationError):
            ReleaseKey("storage", "UG", 0.5, 0, tenant="../escape")

    def test_default_tenant_keys_omit_tenant_from_payload(self):
        assert "tenant" not in ReleaseKey("storage", "UG", 0.5, 0).to_payload()
        payload = ReleaseKey("storage", "UG", 0.5, 0, tenant="acme").to_payload()
        assert payload["tenant"] == "acme"


class TestApiKeys:
    def test_round_trip_and_revocation(self, tmp_path):
        catalog = Catalog(tmp_path / "catalog.sqlite")
        token = catalog.create_api_key("acme", name="ci")
        assert token.startswith("rk_")
        assert catalog.resolve_api_key(token) == "acme"
        key_id = token[3:].split(".", 1)[0]
        assert catalog.revoke_api_key(key_id)
        with pytest.raises(AuthForbidden):
            catalog.resolve_api_key(token)

    def test_wrong_secret_is_rejected(self, tmp_path):
        catalog = Catalog(tmp_path / "catalog.sqlite")
        token = catalog.create_api_key("acme")
        key_id = token[3:].split(".", 1)[0]
        with pytest.raises(AuthForbidden):
            catalog.resolve_api_key(f"rk_{key_id}.{'0' * 48}")

    def test_resolution_cache_never_outlives_a_revocation(self, tmp_path):
        """A cached hit dies with the revoke, wherever the revoke runs.

        ``resolve_api_key`` caches successful resolutions per thread.
        Revoking through the *same* handle bumps its generation counter
        and must take effect on the very next resolve.  Revoking through
        a *different* handle ("another process") is detected by the
        ``data_version`` re-validation — forced on every resolve here by
        zeroing ``auth_cache_ttl_s``, the knob that otherwise bounds
        cross-process propagation at 100 ms.
        """
        catalog = Catalog(tmp_path / "catalog.sqlite")
        token = catalog.create_api_key("acme", name="hot")
        for _ in range(3):  # prime and hit the cache
            assert catalog.resolve_api_key(token) == "acme"
        key_id = token[3:].split(".", 1)[0]
        assert catalog.revoke_api_key(key_id)  # same handle, same thread
        with pytest.raises(AuthForbidden):
            catalog.resolve_api_key(token)

        catalog.auth_cache_ttl_s = 0.0
        other = catalog.create_api_key("acme", name="remote")
        for _ in range(3):
            assert catalog.resolve_api_key(other) == "acme"
        # Revoke through an independent handle: a different connection,
        # exactly what an admin CLI in another process would hold.
        Catalog(tmp_path / "catalog.sqlite").revoke_api_key(
            other[3:].split(".", 1)[0]
        )
        with pytest.raises(AuthForbidden):
            catalog.resolve_api_key(other)


class TestDatasetPagination:
    def test_cursors_are_stable_under_deletes_and_inserts(self, tmp_path):
        """Rows deleted or created mid-pagination never shift a page."""
        catalog = Catalog(tmp_path / "catalog.sqlite")
        for i in range(4):
            catalog.register_dataset("acme", f"d{i}", "storage")
        page1, cursor = catalog.list_datasets("acme", limit=2)
        assert [row["name"] for row in page1] == ["d0", "d1"]
        # A delete behind the cursor and an insert ahead of it.
        catalog.delete_dataset("acme", "d0")
        catalog.register_dataset("acme", "d4", "storage")
        page2, cursor = catalog.list_datasets("acme", limit=2, cursor=cursor)
        assert [row["name"] for row in page2] == ["d2", "d3"]
        page3, cursor = catalog.list_datasets("acme", limit=2, cursor=cursor)
        assert [row["name"] for row in page3] == ["d4"]
        assert cursor is None

    def test_duplicate_and_missing_names(self, tmp_path):
        catalog = Catalog(tmp_path / "catalog.sqlite")
        catalog.register_dataset("acme", "geo", "storage")
        with pytest.raises(DatasetExists):
            catalog.register_dataset("acme", "geo", "storage")
        with pytest.raises(DatasetNotFound):
            catalog.get_dataset("acme", "nope")
        with pytest.raises(DatasetNotFound):
            catalog.delete_dataset("acme", "nope")
