"""Cross-process budget safety on the catalog ledger.

Two stores over *different* directories share one catalog, so their
in-memory ledger views are exactly as independent as two processes'
would be.  Without an exclusive lock around the check-then-spend and a
reload while holding it, both could read "1.0 remaining" and both
spend, overdrawing the dataset's epsilon — a privacy violation, not
just an accounting bug.  ``BEGIN IMMEDIATE`` must make overdraw
impossible.
"""

import threading

import pytest

from repro.service.catalog import DEFAULT_TENANT, Catalog
from repro.service.errors import BudgetRefused
from repro.service.keys import ReleaseKey
from repro.service.store import SynopsisStore

N_POINTS = 1_000


def _key(epsilon, method="UG", seed=0):
    return ReleaseKey("storage", method, epsilon, seed)


def _store(store_dir, catalog, budget):
    return SynopsisStore(
        store_dir=store_dir,
        dataset_budget=budget,
        n_points=N_POINTS,
        catalog=catalog,
    )


def test_stale_store_sees_the_other_process_spend(tmp_path):
    """B's in-memory ledger predates A's spend; B must still refuse."""
    catalog = Catalog(tmp_path / "catalog.sqlite")
    store_a = _store(tmp_path / "a", catalog, budget=1.0)
    store_b = _store(tmp_path / "b", catalog, budget=1.0)  # stale view
    store_a.build(_key(0.5))
    with pytest.raises(BudgetRefused):
        store_b.build(_key(0.6))
    # The refusal updated B's view; a fitting request still goes
    # through, and A in turn sees B's spend.
    store_b.build(_key(0.4))
    with pytest.raises(BudgetRefused):
        store_a.build(_key(0.2, method="AG"))
    state = store_a.budget_state()["storage|0"]
    assert state["spent"] == pytest.approx(0.9)


def test_concurrent_stores_never_overdraw(tmp_path):
    """Hammer one budget from two stores; the winners never exceed it."""
    budget = 2.0
    catalog = Catalog(tmp_path / "catalog.sqlite")
    stores = [
        _store(tmp_path / name, catalog, budget) for name in ("a", "b")
    ]
    # Distinct keys, one data_id: vary method and epsilon, never seed.
    keys = [
        _key(epsilon, method=method)
        for epsilon in (0.4, 0.5, 0.6)
        for method in ("UG", "AG")
    ]  # 3.0 requested vs 2.0 total
    outcomes = []
    outcome_lock = threading.Lock()

    def build(index, key):
        store = stores[index % len(stores)]
        try:
            store.build(key)
        except BudgetRefused:
            with outcome_lock:
                outcomes.append(("refused", key.epsilon))
        else:
            with outcome_lock:
                outcomes.append(("built", key.epsilon))

    threads = [
        threading.Thread(target=build, args=(i, key))
        for i, key in enumerate(keys)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    built = sum(eps for outcome, eps in outcomes if outcome == "built")
    assert built <= budget + 1e-9, "the winners overdrew the budget"
    assert any(outcome == "refused" for outcome, _ in outcomes)
    # The catalog's durable ledger charges exactly the winners, and
    # fresh store handles ("restarted processes") agree with it.
    ledger = catalog.load_budgets(DEFAULT_TENANT)["storage|0"]["ledger"]
    assert sum(epsilon for epsilon, _label in ledger) == pytest.approx(built)
    for name in ("a", "b"):
        state = _store(tmp_path / name, catalog, budget).budget_state()["storage|0"]
        assert state["spent"] == pytest.approx(built)
        assert state["spent"] <= budget + 1e-9


def test_tenants_never_contend_for_each_others_budget(tmp_path):
    """Two tenants spending the same data_id draw on separate ledgers."""
    catalog = Catalog(tmp_path / "catalog.sqlite")
    root = _store(tmp_path / "store", catalog, budget=1.0)
    alpha = root.for_tenant("alpha")
    beta = root.for_tenant("beta")
    alpha.build(_key(1.0))
    with pytest.raises(BudgetRefused):
        alpha.build(_key(0.5, method="AG"))
    # Beta's full budget is untouched by alpha's exhaustion.
    beta.build(_key(1.0))
    assert catalog.load_budgets("alpha")["storage|0"]["ledger"]
    assert catalog.load_budgets("beta")["storage|0"]["ledger"]
    assert catalog.load_budgets(DEFAULT_TENANT) == {}
