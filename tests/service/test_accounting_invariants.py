"""Request accounting under concurrency: each request is counted once, and
the derived totals add up while tenants appear and a scraper snapshots."""

from __future__ import annotations

import threading
import time
from collections import Counter

from repro.obs.promtext import render_prometheus
from repro.service import ExplanationService, ServiceConfig, TenantConfig

CLIENTS = 4
ROUNDS = 12


def _sum_prefix(snapshot: dict[str, object], prefix: str) -> int:
    return sum(value for name, value in snapshot.items() if name.startswith(prefix))


def test_accounting_invariants_hold_under_concurrent_mixed_traffic(service_stack):
    system, router, kb, llm, sqls, _labeled = service_stack
    metered = TenantConfig(name="metered", requests_per_second=0.001, burst=1.0)
    config = ServiceConfig(max_workers=2, max_in_flight=2, tenants=(metered,))
    service = ExplanationService(system, router, kb, llm, config=config)
    run_both = system.run_both

    def slow_run_both(sql: str):
        time.sleep(0.005)  # keeps both in-flight slots taken while clients submit
        return run_both(sql)

    system.run_both = slow_run_both
    assert service.explain(sqls[0], user_notes="shared").ok  # every client's hit
    stop = threading.Event()
    scrapes = 0
    errors: list[BaseException] = []
    outcomes: Counter[str] = Counter()
    outcomes_lock = threading.Lock()

    def scrape() -> None:
        nonlocal scrapes
        while not stop.is_set():
            try:
                snapshot = service.metrics_snapshot()
                render_prometheus(snapshot)
                # Both totals come from the snapshot's own values.
                assert snapshot["requests.submitted"] == _sum_prefix(snapshot, "requests.tenant.")
                warm, cold = (snapshot.get(f"latency.{kind}_seconds", {}) for kind in ("warm", "cold"))
                assert snapshot["requests.ok"] == warm.get("count", 0) + cold.get("count", 0)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
                return
            scrapes += 1
            time.sleep(0.0005)

    def client(index: int) -> None:
        seen: Counter[str] = Counter()
        try:
            for round_ in range(ROUNDS):
                tenant = f"client{index}-{round_ // 3}"  # a new tenant every third round
                # Three misses back to back: the third finds both slots taken.
                futures = [
                    service.submit(sqls[(index + k) % len(sqls)], user_notes=f"{index}/{round_}/{k}",
                                   tenant=tenant)
                    for k in range(3)
                ]
                futures.append(service.submit(sqls[0], user_notes="shared"))
                futures.append(service.submit(sqls[1], tenant="metered"))
                for future in futures:
                    result = future.result(timeout=30.0)
                    seen[result.error.code.value if result.error else "ok"] += 1
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
        with outcomes_lock:
            outcomes.update(seen)

    scraper = threading.Thread(target=scrape)
    clients = [threading.Thread(target=client, args=(index,)) for index in range(CLIENTS)]
    try:
        scraper.start()
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(120.0)
        stop.set()
        scraper.join(30.0)
    finally:
        stop.set()
        del system.run_both
        service.shutdown()

    assert not errors, errors
    assert scrapes > 0
    assert outcomes["ok"] and outcomes["queue_full"] and outcomes["quota_exceeded"]

    final = service.metrics_snapshot()
    submitted = final["requests.submitted"]
    assert submitted == 1 + sum(outcomes.values()) == 1 + CLIENTS * ROUNDS * 5
    assert submitted == _sum_prefix(final, "requests.tenant.")
    warm, cold = final["latency.warm_seconds"]["count"], final["latency.cold_seconds"]["count"]
    assert final["requests.ok"] == warm + cold == 1 + outcomes["ok"]
    assert warm >= CLIENTS * ROUNDS  # the shared request hits at admission every time
    rejected = _sum_prefix(final, "requests.rejected.")
    assert submitted == final["requests.ok"] + rejected + final.get("requests.failed", 0)
    for code in ("queue_full", "quota_exceeded"):
        assert final[f"requests.rejected.{code}"] == outcomes[code]
    assert final["in_flight"] == 0
    assert len([name for name in final if name.startswith("requests.tenant.client")]) == CLIENTS * 4
