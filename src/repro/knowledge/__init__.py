"""RAG knowledge base: entries, vector stores, and curation policies."""

from repro.knowledge.entry import KnowledgeEntry
from repro.knowledge.vector_store import FlatVectorStore, HNSWVectorStore, SearchResult, VectorStore
from repro.knowledge.knowledge_base import DEFAULT_TENANT, KnowledgeBase, RetrievedKnowledge
from repro.knowledge.curation import (
    expire_stale_entries,
    select_representative_queries,
)

__all__ = [
    "KnowledgeEntry",
    "VectorStore",
    "FlatVectorStore",
    "HNSWVectorStore",
    "SearchResult",
    "KnowledgeBase",
    "RetrievedKnowledge",
    "DEFAULT_TENANT",
    "select_representative_queries",
    "expire_stale_entries",
]
