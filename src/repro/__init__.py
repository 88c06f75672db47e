"""repro — reproduction of "Query Performance Explanation through LLMs for HTAP Systems".

The package is organised around the paper's architecture (Figure 1):

* :mod:`repro.htap` — the HTAP system with TP and AP engines (substrate),
* :mod:`repro.router` — the tree-CNN smart router / plan-pair encoder,
* :mod:`repro.knowledge` — the RAG knowledge base and vector stores,
* :mod:`repro.llm` — the LLM client interface, prompts, and offline simulator,
* :mod:`repro.explainer` — the RAG explanation pipeline (the core contribution),
* :mod:`repro.baselines` — DBG-PT-style and no-RAG baselines,
* :mod:`repro.workloads` — synthetic TPC-H workload generation and labeling,
* :mod:`repro.study` — the simulated participant study,
* :mod:`repro.bench` — experiment harness shared by ``benchmarks/`` and the examples,
* :mod:`repro.service` — the concurrent explanation-serving subsystem
  (multi-level caching, micro-batched router inference, admission control).
"""

__version__ = "1.0.0"

from repro.htap import EngineKind, HTAPSystem

__all__ = ["EngineKind", "HTAPSystem", "__version__"]
