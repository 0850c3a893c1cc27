"""Correctness checks of one run; each returns a list of failures.

They take plain data, so ``selftest.py`` can feed them a deliberately
corrupted answer, ledger row or count and confirm each one fails.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "bit_identical",
    "expected_ledger",
    "json_matches_binary",
    "ledger_matches",
    "staged_matches",
    "unchanged",
]


def bit_identical(served, answer) -> list[str]:
    """Served estimates must equal, bit for bit, a fresh engine's.

    ``served`` holds ``(slug, boxes, estimates)``; ``answer(slug, boxes)``
    answers from the engine rebuilt out of that release's own archive.
    """
    failures = []
    for slug, boxes, estimates in served:
        expected = np.asarray(answer(slug, boxes), dtype=np.float64)
        got = np.asarray(estimates, dtype=np.float64)
        if got.shape != expected.shape or got.tobytes() != expected.tobytes():
            failures.append(f"served answers of {slug} differ from its archive")
    return failures


def json_matches_binary(pairs) -> list[str]:
    """``(slug, json_estimates, binary_estimates)``: identical bits."""
    return [
        f"JSON and binary answers of {slug} differ"
        for slug, from_json, from_binary in pairs
        if np.asarray(from_json, dtype=np.float64).tobytes()
        != np.asarray(from_binary, dtype=np.float64).tobytes()
    ]


def expected_ledger(events) -> dict[str, dict[str, float]]:
    """Ledger rows implied by the acknowledged builds and ingests.

    ``events`` is the run's acknowledged writes in the order they were
    acknowledged: ``("ingest", data_id, points)`` or ``("build", key)``.
    A build of an instance with staged points is charged under the epoch
    label ``slug@e<staged>``, once per label; otherwise under the slug.
    """
    staged: dict[str, int] = {}
    rows: dict[str, dict[str, float]] = {}
    for event in events:
        if event[0] == "ingest":
            _, data_id, points = event
            staged[data_id] = staged.get(data_id, 0) + points
            continue
        key = event[1]
        count = staged.get(key.data_id, 0)
        label = f"{key.slug()}@e{count}" if count else key.slug()
        rows.setdefault(key.data_id, {})[label] = float(key.epsilon)
    return rows


def ledger_matches(ledger: dict, expected: dict) -> list[str]:
    """Catalog ledger (``{data_id: {"total", "ledger": [[eps, label]]}}``)
    against :func:`expected_ledger`; spend never above the total."""
    failures = []
    for data_id in sorted(set(ledger) | set(expected)):
        state = ledger.get(data_id, {"total": 0.0, "ledger": []})
        rows = state["ledger"]
        labels = [label for _, label in rows]
        spent = math.fsum(eps for eps, _ in rows)
        want = expected.get(data_id, {})
        if sorted(labels) != sorted(want):
            failures.append(
                f"ledger of {data_id} charges {sorted(labels)}, "
                f"acknowledged builds imply {sorted(want)}"
            )
        if not math.isclose(spent, math.fsum(want.values()), rel_tol=1e-12):
            failures.append(
                f"ledger of {data_id} spent {spent}, acknowledged builds "
                f"cost {math.fsum(want.values())}"
            )
        if spent > state["total"] + 1e-9:
            failures.append(
                f"ledger of {data_id} spent {spent} over its budget {state['total']}"
            )
    return failures


def staged_matches(staged: dict, acknowledged: dict) -> list[str]:
    """``/health`` staged points per instance vs. points acknowledged."""
    return [
        f"/health stages {staged.get(d, 0)} points for {d}, "
        f"{acknowledged.get(d, 0)} were acknowledged"
        for d in sorted(set(staged) | set(acknowledged))
        if staged.get(d, 0) != acknowledged.get(d, 0)
    ]


def unchanged(name: str, before, after) -> list[str]:
    return [] if before == after else [f"{name} changed in the window: {before} -> {after}"]
