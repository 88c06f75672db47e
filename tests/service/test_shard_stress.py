"""Concurrent reader/writer stress for the tenant-namespaced knowledge base.

Marked ``kb_stress`` so CI runs these in a dedicated job; they also
stay short enough to ride along in the default (tier-1) run.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.knowledge.entry import KnowledgeEntry
from repro.knowledge.knowledge_base import KnowledgeBase
from repro.knowledge.vector_store import HNSWVectorStore

pytestmark = pytest.mark.kb_stress


def make_entry(name: str, rng: np.random.Generator, dim: int = 8) -> KnowledgeEntry:
    return KnowledgeEntry(
        entry_id=name,
        embedding=rng.normal(size=dim),
        sql=f"SELECT * FROM t -- {name}",
        plan_details_json="plan",
        faster_engine="ap",
        tp_latency_seconds=0.2,
        ap_latency_seconds=0.1,
        expert_explanation="because",
        factors=("scan",),
    )


def test_concurrent_readers_and_writers_never_error():
    rng = np.random.default_rng(11)
    kb = KnowledgeBase()
    kb.add_many([make_entry(f"seed-{i}", rng) for i in range(120)])
    errors: list[BaseException] = []
    stop = threading.Event()

    def writer(worker: int) -> None:
        wrng = np.random.default_rng(100 + worker)
        serial = 0
        try:
            while not stop.is_set():
                name = f"w{worker}-{serial}"
                kb.add(make_entry(name, wrng))
                if serial % 3 == 0:
                    kb.correct(name, "updated")
                kb.remove(name)
                serial += 1
        except BaseException as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    def reader(worker: int) -> None:
        qrng = np.random.default_rng(200 + worker)
        try:
            for _ in range(150):
                hits = kb.retrieve(qrng.normal(size=8), k=5).hits
                assert len(hits) == 5
                # Seed entries never churn, so lookups must always succeed.
                kb.get(f"seed-{int(qrng.integers(0, 120))}")
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    writers = [threading.Thread(target=writer, args=(i,)) for i in range(2)]
    readers = [threading.Thread(target=reader, args=(i,)) for i in range(3)]
    try:
        for thread in writers + readers:
            thread.start()
        for thread in readers:
            thread.join(timeout=30)
    finally:
        stop.set()
        for thread in writers:
            thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in writers + readers)
    assert not errors, errors
    assert kb.count() == 120  # every churn entry was removed again


def test_concurrent_first_writes_to_new_tenants_lose_nothing():
    """Threads racing to create the same tenant's namespace must all land
    in one namespace: a lost creation would drop its entries."""
    kb = KnowledgeBase()
    workers, per_worker = 8, 40
    barrier = threading.Barrier(workers)
    errors: list[BaseException] = []

    def writer(worker: int) -> None:
        wrng = np.random.default_rng(400 + worker)
        try:
            barrier.wait(timeout=10)
            for i in range(per_worker):
                kb.add(make_entry(f"w{worker}-{i}", wrng), tenant=f"t{i % 4}")
                kb.retrieve(wrng.normal(size=8), k=2, tenant=f"t{(i + 1) % 4}")
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert [kb.count(tenant=f"t{t}") for t in range(4)] == [workers * per_worker // 4] * 4
    assert len(kb) == workers * per_worker


def test_hnsw_bulk_ingest_under_concurrent_retrieval():
    """Bulk add_many on an HNSW store while readers retrieve — no errors,
    no empty results once seeded."""
    rng = np.random.default_rng(23)
    kb = KnowledgeBase(lambda: HNSWVectorStore(M=8, ef_construction=32, ef_search=16))
    kb.add_many([make_entry(f"seed-{i}", rng) for i in range(80)])
    errors: list[BaseException] = []
    done = threading.Event()

    def writer() -> None:
        wrng = np.random.default_rng(99)
        try:
            for batch in range(6):
                kb.add_many([make_entry(f"b{batch}-{i}", wrng) for i in range(24)])
            for batch in range(6):
                for i in range(24):
                    kb.remove(f"b{batch}-{i}")
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)
        finally:
            done.set()

    def reader(worker: int) -> None:
        qrng = np.random.default_rng(300 + worker)
        try:
            while not done.is_set():
                hits = kb.retrieve(qrng.normal(size=8), k=3).hits
                assert len(hits) == 3
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    writer_thread = threading.Thread(target=writer)
    readers = [threading.Thread(target=reader, args=(i,)) for i in range(3)]
    try:
        for thread in [writer_thread, *readers]:
            thread.start()
    finally:
        writer_thread.join(timeout=60)
        done.set()
        for thread in readers:
            thread.join(timeout=30)
    assert not errors, errors
    assert kb.count() == 80


def test_per_tenant_writes_do_not_block_other_tenants_reads():
    rng = np.random.default_rng(31)
    kb = KnowledgeBase()
    kb.add_many([make_entry(f"a-{i}", rng) for i in range(60)], tenant="a")
    kb.add_many([make_entry(f"b-{i}", rng) for i in range(60)], tenant="b")
    errors: list[BaseException] = []
    stop = threading.Event()

    def writer_a() -> None:
        wrng = np.random.default_rng(55)
        serial = 0
        try:
            while not stop.is_set():
                name = f"churn-{serial}"
                kb.add(make_entry(name, wrng), tenant="a")
                kb.remove(name, tenant="a")
                serial += 1
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    def reader_b() -> None:
        qrng = np.random.default_rng(66)
        try:
            for _ in range(200):
                hits = kb.retrieve(qrng.normal(size=8), k=4, tenant="b").hits
                assert len(hits) == 4
                assert all(h.entry.entry_id.startswith("b-") for h in hits)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    writer_thread = threading.Thread(target=writer_a)
    reader_thread = threading.Thread(target=reader_b)
    try:
        writer_thread.start()
        reader_thread.start()
        reader_thread.join(timeout=30)
    finally:
        stop.set()
        writer_thread.join(timeout=30)
    assert not errors, errors
    assert kb.count(tenant="a") == 60
    assert kb.count(tenant="b") == 60
