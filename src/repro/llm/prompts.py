"""Prompt engineering (paper Section V, Table I).

The prompt sent to the LLM has three fixed parts — background information,
task description, additional user context — followed by the retrieved
KNOWLEDGE blocks and the QUESTION block.  The wording of the three fixed
parts follows the paper's Table I closely, including the instruction that
cost estimates from the two engines must not be compared.

:class:`PromptBuilder` assembles the structured :class:`PromptPayload`
(what the offline simulator consumes).  Every plan in it is already the
EXPLAIN JSON text the prompt shows, rendered once where it is created: the
QUESTION's two plans in :class:`QuestionAttachment`, each KNOWLEDGE block's
plan pair on its knowledge-base entry.  The payload renders the flat prompt
text (what a hosted LLM would receive) when :attr:`PromptPayload.text` is
read, and does not keep it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.htap.engines.base import EngineKind
from repro.htap.plan.serialize import plan_to_json
from repro.htap.system import PlanPair
from repro.knowledge.entry import KnowledgeEntry

BACKGROUND_TEMPLATE = (
    "Background information: We are using RAG to assist database users in understanding query "
    "performance across different engines in our HTAP system - specifically, why one engine "
    "performs faster while the other is slower. Please ensure you are familiar with the TPC-H "
    "schema; our dataset follows the default schema and contains {data_size_gb:.0f}GB of data. "
    "Our HTAP system has two database engines, \"TP\" and \"AP\". The TP engine uses row-oriented "
    "storage, while the AP engine utilizes column-oriented storage. Note that the optimizers for "
    "TP and AP engines are distinct, leading to different execution plans. Therefore, you are not "
    "allowed to compare the cost estimates of the execution plans from TP and AP engines."
)

TASK_TEMPLATE = (
    "Task description: Here is your task: I will input you the execution plans for the query from "
    "both the TP and AP engines, please evaluate the likely performance of each engine without "
    "directly comparing the cost estimates. Focus on factors such as the join methods used, the "
    "storage formats (row-oriented vs. column-oriented), index utilization, and any potential "
    "implications of the execution plan characteristics on query performance. Your task is to "
    "explain which engine might perform better for this specific query and why, based on these "
    "factors. To assist you, we have a retriever that can find relevant historical plans from the "
    "knowledge base with precise performance explanations from our experts. The KNOWLEDGE and "
    "QUESTION you receive will be in the following format: KNOWLEDGE: historical query + "
    "historical plan pair (AP/TP's plan) + historical execution result (indicating whether TP or "
    "AP is faster) + historical expert explanation (why TP or AP is faster). QUESTION: new query + "
    "new plan pair + new execution result. You could use KNOWLEDGE to explain the following new "
    "pair of plans in QUESTION. If the KNOWLEDGE does not contain the facts to answer the QUESTION "
    "return None. Note, to make sure your answer is accurate, I may input you several retrieved "
    "old queries with their plans, results and explanations. Please understand all the information "
    "I provide to generate your explanation. Now, I am ready to send you the KNOWLEDGE and QUESTION."
)

#: The background sentence the cost-guard ablation removes.
_COST_GUARD = (
    " Therefore, you are not allowed to compare the cost estimates of the execution plans from "
    "TP and AP engines."
)

DEFAULT_USER_CONTEXT = (
    "Additional user context: Beyond the default indexes on primary keys, no further secondary "
    "indexes exist unless stated otherwise."
)


@dataclass(frozen=True)
class KnowledgeAttachment:
    """Structured form of one retrieved KNOWLEDGE block."""

    sql: str
    #: The entry's plan pair as EXPLAIN JSON text, ``{"TP": ..., "AP": ...}``.
    plan_details_json: str
    faster_engine: EngineKind
    execution_result: str
    expert_explanation: str
    factors: tuple[str, ...]
    similarity: float

    @classmethod
    def from_entry(cls, entry: KnowledgeEntry, similarity: float) -> "KnowledgeAttachment":
        return cls(
            sql=entry.sql,
            plan_details_json=entry.plan_details_json,
            faster_engine=entry.faster_engine,
            execution_result=entry.execution_result_text,
            expert_explanation=entry.expert_explanation,
            factors=entry.factors,
            similarity=similarity,
        )


@dataclass(frozen=True)
class QuestionAttachment:
    """Structured form of the QUESTION block: the EXPLAIN form of one query.

    Each plan is kept as the JSON text the prompt shows, rendered once
    here.  Frozen because one instance is shared: the service's L2 plan
    cache stores it, and every explanation built from that entry points
    at it.
    """

    sql: str
    tp_plan_json: str
    ap_plan_json: str
    execution_result: str | None
    faster_engine: EngineKind | None

    @classmethod
    def from_plan_pair(
        cls,
        plan_pair: PlanPair,
        *,
        execution_result: str | None = None,
        faster_engine: EngineKind | None = None,
    ) -> "QuestionAttachment":
        """The QUESTION for ``plan_pair``: its SQL and both plans in the
        paper's EXPLAIN JSON format."""
        return cls(
            sql=plan_pair.query.raw_sql,
            tp_plan_json=plan_to_json(plan_pair.tp_plan),
            ap_plan_json=plan_to_json(plan_pair.ap_plan),
            execution_result=execution_result,
            faster_engine=faster_engine,
        )


@dataclass(frozen=True)
class PromptPayload:
    """One built prompt: its structured attachments, and its flat text.

    The text is not stored.  :attr:`text` renders it on each read from the
    fields below, which :meth:`PromptBuilder.build` fixed, so a cached
    explanation holds only the attachments it shares with the knowledge
    base and the plan cache, not a second, larger copy of them.
    """

    question: QuestionAttachment
    knowledge: list[KnowledgeAttachment]
    user_context: str
    forbid_cost_comparison: bool
    #: The dataset size the background section reports.
    data_size_gb: float

    @property
    def text(self) -> str:
        """The flat prompt a hosted LLM would receive."""
        text = "\n\n".join(
            [
                BACKGROUND_TEMPLATE.format(data_size_gb=self.data_size_gb),
                TASK_TEMPLATE,
                self.user_context,
                PromptBuilder.knowledge_section(self.knowledge),
                PromptBuilder.question_section(self.question),
            ]
        )
        if not self.forbid_cost_comparison:
            # The ablation that drops the "do not compare costs" guard simply
            # removes the sentence from the background section.
            text = text.replace(_COST_GUARD, "")
        return text

    def attachments(self) -> dict[str, Any]:
        """The dictionary placed on :class:`repro.llm.client.LLMRequest`."""
        return {
            "knowledge": self.knowledge,
            "question": self.question,
            "forbid_cost_comparison": self.forbid_cost_comparison,
            "user_context": self.user_context,
        }


@dataclass(kw_only=True)
class PromptBuilder:
    """Assembles Table-I-style prompts.

    ``data_size_gb`` is the dataset size reported in the background section
    (100 GB in the paper).
    """

    data_size_gb: float = 100.0

    # --------------------------------------------------------------- sections
    def background_section(self) -> str:
        return BACKGROUND_TEMPLATE.format(data_size_gb=self.data_size_gb)

    def task_section(self) -> str:
        return TASK_TEMPLATE

    @staticmethod
    def user_context_section(notes: str | None) -> str:
        if notes:
            return f"Additional user context: {notes}"
        return DEFAULT_USER_CONTEXT

    @staticmethod
    def knowledge_section(attachments: list[KnowledgeAttachment]) -> str:
        blocks: list[str] = []
        for index, attachment in enumerate(attachments, start=1):
            blocks.append(
                f"KNOWLEDGE {index}:\n"
                f"Historical query: {attachment.sql}\n"
                f"Historical plan pair: {attachment.plan_details_json}\n"
                f"Historical execution result: {attachment.execution_result}\n"
                f"Historical expert explanation: {attachment.expert_explanation}"
            )
        if not blocks:
            return "KNOWLEDGE: (no relevant historical queries were retrieved)"
        return "\n\n".join(blocks)

    @staticmethod
    def question_section(question: QuestionAttachment) -> str:
        result_line = (
            f"New execution result: {question.execution_result}"
            if question.execution_result
            else "New execution result: (not provided)"
        )
        return (
            "QUESTION:\n"
            f"New query: {question.sql}\n"
            f"New TP plan: {question.tp_plan_json}\n"
            f"New AP plan: {question.ap_plan_json}\n"
            f"{result_line}"
        )

    # --------------------------------------------------------------- assembly
    def build(
        self,
        question: QuestionAttachment,
        knowledge: list[KnowledgeAttachment] | None = None,
        *,
        user_notes: str | None = None,
        forbid_cost_comparison: bool = True,
    ) -> PromptPayload:
        """Assemble the full prompt for one explanation request; its text is
        rendered when :attr:`PromptPayload.text` is read."""
        return PromptPayload(
            question=question,
            knowledge=list(knowledge or []),
            user_context=self.user_context_section(user_notes),
            forbid_cost_comparison=forbid_cost_comparison,
            data_size_gb=self.data_size_gb,
        )

    def table_i_rows(self) -> dict[str, str]:
        """The three fixed prompt parts, as listed in the paper's Table I."""
        return {
            "Background information": self.background_section(),
            "Task description": self.task_section(),
            "Additional user context": (
                "Beyond the default indexes on primary and foreign keys, an additional index has "
                "been created on the c_phone column in the customer table."
            ),
        }
