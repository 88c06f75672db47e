"""No-RAG ablation of the paper's own method.

For the DBG-PT comparison the paper "adjusted the prompts in our method by
removing RAG-related context but retained the same plan details and any
additional user prompts".  :class:`NoRagExplainer` is exactly that: the same
prompt builder, the same question block (including the execution result), but
no retrieved knowledge.  Comparing it against the full pipeline isolates the
contribution of retrieval from the contribution of prompt engineering.
"""

from __future__ import annotations

from repro.baselines.dbgpt import BaselineExplanation
from repro.explainer.pipeline import execution_result_text
from repro.explainer.timing import LatencyProfile
from repro.htap.engines.base import EngineKind
from repro.htap.system import HTAPSystem, QueryExecution
from repro.llm.client import LLMClient, LLMRequest
from repro.llm.prompts import PromptBuilder, QuestionAttachment


class NoRagExplainer:
    """The paper's prompt without retrieved knowledge (ablation)."""

    def __init__(self, system: HTAPSystem, llm: LLMClient, *, prompt_builder: PromptBuilder | None = None):
        self.system = system
        self.llm = llm
        self.prompt_builder = prompt_builder or PromptBuilder(
            data_size_gb=system.catalog.database_size_bytes() / 1e9
        )

    def explain_execution(self, execution: QueryExecution, *, user_notes: str | None = None) -> BaselineExplanation:
        """Explain an executed query without any retrieved knowledge."""
        question = QuestionAttachment.from_plan_pair(
            execution.plan_pair,
            execution_result=execution_result_text(execution),
            faster_engine=execution.faster_engine,
        )
        prompt = self.prompt_builder.build(question, knowledge=[], user_notes=user_notes)
        prompt_text = prompt.text
        response = self.llm.generate(LLMRequest(prompt=prompt_text, attachments=prompt.attachments()))
        winner_value = response.claims.get("winner")
        claimed_winner = EngineKind(winner_value) if winner_value in ("TP", "AP") else None
        return BaselineExplanation(
            sql=question.sql,
            text=response.text,
            claimed_winner=claimed_winner,
            claims=dict(response.claims),
            latency=LatencyProfile(
                llm_thinking_seconds=response.thinking_seconds,
                llm_generation_seconds=response.generation_seconds,
            ),
            prompt_text=prompt_text,
        )

    def explain_sql(self, sql: str, *, user_notes: str | None = None) -> BaselineExplanation:
        return self.explain_execution(self.system.run_both(sql), user_notes=user_notes)
