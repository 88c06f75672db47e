"""DBG-PT-style baseline (paper Section VI-D).

DBG-PT (Giannakouris & Trummer, VLDB 2024) asks an LLM to reason about the
*structural differences* between two query plans.  The paper adapts it to the
HTAP setting by feeding it the TP and AP plans of the same query — without
any historical knowledge, expert explanation, or the new query's execution
result — and asking which engine should be faster and why.

The baseline therefore differs from the RAG pipeline in three ways:

* the prompt is built around a structural plan diff rather than retrieved
  knowledge;
* the LLM receives no execution result, so it must *infer* the winner;
* nothing grounds the answer, so the characteristic un-grounded failure
  modes (cost comparison, index misreads, storage over-emphasis, offset
  blindness) surface — these are exactly the limitations the paper lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.explainer.timing import LatencyProfile
from repro.htap.engines.base import EngineKind
from repro.htap.plan.diff import diff_plans
from repro.htap.system import HTAPSystem, PlanPair, QueryExecution
from repro.llm.client import LLMClient, LLMRequest, LLMResponse
from repro.llm.prompts import PromptBuilder, QuestionAttachment

_DBGPT_TASK = (
    "Task description: You are a query performance regression debugger. Below are the execution "
    "plans produced for the same query by two different engines, together with a summary of their "
    "structural differences. Analyse the differences and explain which engine is likely to execute "
    "the query faster and why."
)


@dataclass
class BaselineExplanation:
    """Answer produced by a baseline explainer."""

    sql: str
    text: str
    claimed_winner: EngineKind | None
    claims: dict[str, Any] = field(default_factory=dict)
    latency: LatencyProfile = field(default_factory=LatencyProfile)
    prompt_text: str = ""

    @property
    def is_none_answer(self) -> bool:
        return self.text.strip().lower() == "none"

    @property
    def cited_factors(self) -> list[str]:
        return list(self.claims.get("factors", []))


class DBGPTExplainer:
    """Plan-diff prompting without retrieval, execution results, or experts."""

    def __init__(self, system: HTAPSystem, llm: LLMClient, *, prompt_builder: PromptBuilder | None = None):
        self.system = system
        self.llm = llm
        self.prompt_builder = prompt_builder or PromptBuilder(
            data_size_gb=system.catalog.database_size_bytes() / 1e9
        )

    # ------------------------------------------------------------------ public
    def explain_sql(self, sql: str) -> BaselineExplanation:
        plan_pair = self.system.explain_pair(sql)
        return self.explain_plan_pair(plan_pair)

    def explain_execution(self, execution: QueryExecution) -> BaselineExplanation:
        """Explain from an execution record, ignoring its measured result.

        DBG-PT never sees the execution outcome; the record is accepted only
        so the baseline can be evaluated on exactly the same inputs as the
        RAG pipeline.
        """
        return self.explain_plan_pair(execution.plan_pair)

    def explain_plan_pair(self, plan_pair: PlanPair) -> BaselineExplanation:
        diff = diff_plans(plan_pair.tp_plan, plan_pair.ap_plan)
        question = QuestionAttachment.from_plan_pair(plan_pair)
        prompt_text = "\n\n".join(
            [
                self.prompt_builder.background_section(),
                _DBGPT_TASK,
                "Plan differences:\n- " + "\n- ".join(diff.summary_lines()),
                self.prompt_builder.question_section(question),
            ]
        )
        request = LLMRequest(
            prompt=prompt_text,
            attachments={
                "question": question,
                "knowledge": [],
                # DBG-PT is instructed not to compare costs, but (as the paper
                # observes) un-grounded models drift back to them anyway; the
                # flag is passed through so the simulated LLM models that.
                "forbid_cost_comparison": True,
            },
        )
        response: LLMResponse = self.llm.generate(request)
        winner_value = response.claims.get("winner")
        claimed_winner = EngineKind(winner_value) if winner_value in ("TP", "AP") else None
        return BaselineExplanation(
            sql=plan_pair.query.raw_sql,
            text=response.text,
            claimed_winner=claimed_winner,
            claims=dict(response.claims),
            latency=LatencyProfile(
                llm_thinking_seconds=response.thinking_seconds,
                llm_generation_seconds=response.generation_seconds,
            ),
            prompt_text=prompt_text,
        )
