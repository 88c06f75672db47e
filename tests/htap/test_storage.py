"""Tests for the row/column storage models."""

import pytest

from repro.htap.storage.column_store import ColumnStoreModel
from repro.htap.storage.row_store import PAGE_SIZE_BYTES, RowStoreModel, _estimated_height


# ---------------------------------------------------------- index height
def test_estimated_height_monotone():
    small = _estimated_height(1_000)
    large = _estimated_height(1_000_000_000)
    assert small <= large
    assert _estimated_height(1) == 1


# --------------------------------------------------------------- row store
def test_row_store_page_counts(catalog):
    model = RowStoreModel(catalog)
    stats = model.table_stats("orders")
    assert stats.row_count == catalog.row_count("orders")
    assert stats.rows_per_page >= 1
    assert stats.page_count == pytest.approx(stats.row_count / stats.rows_per_page, rel=0.01)
    assert stats.size_bytes == stats.page_count * PAGE_SIZE_BYTES


def test_row_store_index_lookup_pages(catalog):
    model = RowStoreModel(catalog)
    pk = catalog.index_on_column("orders", "o_orderkey")
    assert pk is not None
    few = model.index_lookup_pages(pk, matching_rows=1)
    many = model.index_lookup_pages(pk, matching_rows=10_000)
    assert few < many
    assert model.index_height(pk) >= 2


def test_row_store_full_scan_bigger_for_bigger_tables(catalog):
    model = RowStoreModel(catalog)
    assert model.full_scan_pages("lineitem") > model.full_scan_pages("orders") > model.full_scan_pages("nation")


# ------------------------------------------------------------ column store
def test_column_store_compression_reduces_bytes(catalog):
    model = ColumnStoreModel(catalog)
    stats = model.column_stats("orders", "o_custkey")
    assert stats.compressed_bytes < stats.uncompressed_bytes
    assert stats.chunk_count >= 1


def test_column_store_scan_bytes_scale_with_projection(catalog):
    model = ColumnStoreModel(catalog)
    narrow = model.scan_bytes("orders", ["o_custkey"])
    wide = model.scan_bytes("orders", ["o_custkey", "o_orderstatus", "o_totalprice"])
    everything = model.scan_bytes("orders", None)
    assert narrow < wide < everything


def test_zone_map_skipping_bounds(catalog):
    model = ColumnStoreModel(catalog)
    # Selective predicate on a key-like (clustered) column skips chunks.
    key_skip = model.zone_map_skip_fraction("orders", "o_orderkey", selectivity=1e-6)
    # Low-cardinality scattered column cannot skip much.
    status_skip = model.zone_map_skip_fraction("orders", "o_orderstatus", selectivity=0.33)
    assert 0.0 <= status_skip < key_skip <= 0.95


def test_effective_scan_rows_never_exceed_table(catalog):
    model = ColumnStoreModel(catalog)
    rows = catalog.row_count("orders")
    assert model.effective_scan_rows("orders", "o_orderkey", 1e-6) <= rows
    assert model.effective_scan_rows("orders", None, 0.5) == rows
