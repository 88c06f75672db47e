"""Prompt engineering (paper Section V, Table I).

The prompt sent to the LLM has three fixed parts — background information,
task description, additional user context — followed by the retrieved
KNOWLEDGE blocks and the QUESTION block.  The wording of the three fixed
parts follows the paper's Table I closely, including the instruction that
cost estimates from the two engines must not be compared.

:class:`PromptBuilder` assembles both the flat prompt text (what a hosted
LLM would receive) and the structured :class:`PromptPayload` (what the
offline simulator consumes).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.htap.engines.base import EngineKind
from repro.htap.plan.serialize import plan_to_dict
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

DEFAULT_USER_CONTEXT = (
    "Additional user context: Beyond the default indexes on primary keys, no further secondary "
    "indexes exist unless stated otherwise."
)


@dataclass
class KnowledgeAttachment:
    """Structured form of one retrieved KNOWLEDGE block."""

    sql: str
    plan_details: dict[str, Any]
    faster_engine: EngineKind
    execution_result: str
    expert_explanation: str
    factors: tuple[str, ...]
    similarity: float

    @classmethod
    def from_entry(cls, entry: KnowledgeEntry, similarity: float) -> "KnowledgeAttachment":
        return cls(
            sql=entry.sql,
            plan_details=entry.plan_details,
            faster_engine=entry.faster_engine,
            execution_result=entry.execution_result_text,
            expert_explanation=entry.expert_explanation,
            factors=entry.factors,
            similarity=similarity,
        )


@dataclass(frozen=True)
class QuestionAttachment:
    """Structured form of the QUESTION block: the EXPLAIN form of one query.

    Frozen because one instance is shared: the service's L2 plan cache
    stores it, and every explanation built from that entry points at it.
    """

    sql: str
    tp_plan: dict[str, Any]
    ap_plan: dict[str, Any]
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
        paper's EXPLAIN dictionary format."""
        return cls(
            sql=plan_pair.query.raw_sql,
            tp_plan=plan_to_dict(plan_pair.tp_plan),
            ap_plan=plan_to_dict(plan_pair.ap_plan),
            execution_result=execution_result,
            faster_engine=faster_engine,
        )


@dataclass
class PromptPayload:
    """Full prompt: flat text plus its structured attachments."""

    text: str
    knowledge: list[KnowledgeAttachment] = field(default_factory=list)
    question: QuestionAttachment | None = None
    forbid_cost_comparison: bool = True
    user_context: str = DEFAULT_USER_CONTEXT

    def attachments(self) -> dict[str, Any]:
        """The dictionary placed on :class:`repro.llm.client.LLMRequest`."""
        return {
            "knowledge": self.knowledge,
            "question": self.question,
            "forbid_cost_comparison": self.forbid_cost_comparison,
            "user_context": self.user_context,
        }


class PromptBuilder:
    """Assembles Table-I-style prompts.

    Parameters
    ----------
    data_size_gb:
        Reported dataset size in the background section (100 GB in the paper).
    include_background / include_task:
        Allow ablations that strip parts of the prompt.
    """

    def __init__(
        self,
        *,
        data_size_gb: float = 100.0,
        include_background: bool = True,
        include_task: bool = True,
    ):
        self.data_size_gb = data_size_gb
        self.include_background = include_background
        self.include_task = include_task

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
                f"Historical plan pair: {json.dumps(attachment.plan_details)}\n"
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
            f"New TP plan: {json.dumps(question.tp_plan)}\n"
            f"New AP plan: {json.dumps(question.ap_plan)}\n"
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
        """Assemble the full prompt for one explanation request."""
        knowledge = knowledge or []
        sections: list[str] = []
        if self.include_background:
            sections.append(self.background_section())
        if self.include_task:
            sections.append(self.task_section())
        user_context = self.user_context_section(user_notes)
        sections.append(user_context)
        sections.append(self.knowledge_section(knowledge))
        sections.append(self.question_section(question))
        if not forbid_cost_comparison:
            # The ablation that drops the "do not compare costs" guard simply
            # removes the sentence from the background section.
            sections = [
                section.replace(
                    " Therefore, you are not allowed to compare the cost estimates of the "
                    "execution plans from TP and AP engines.",
                    "",
                )
                for section in sections
            ]
        text = "\n\n".join(sections)
        return PromptPayload(
            text=text,
            knowledge=list(knowledge),
            question=question,
            forbid_cost_comparison=forbid_cost_comparison,
            user_context=user_context,
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
