"""Storage layer models: row store (TP) and column store (AP).

Both are analytical: page counts, index heights and compressed sizes derive
from catalog cardinalities, and no rows or index trees are materialised.
"""

from repro.htap.storage.row_store import RowStoreStats, RowStoreModel
from repro.htap.storage.column_store import ColumnStoreStats, ColumnStoreModel

__all__ = [
    "RowStoreStats",
    "RowStoreModel",
    "ColumnStoreStats",
    "ColumnStoreModel",
]
