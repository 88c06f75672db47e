"""SimulatedLLM — the offline stand-in for Doubao / ChatGPT-4.0.

The paper's experiments need a language model that (a) produces fluent
explanations from a structured prompt, (b) becomes markedly more accurate
when grounded with retrieved expert knowledge, and (c) exhibits the
characteristic failure modes of un-grounded LLM reasoning over query plans
(Section VI-D): comparing incomparable cost estimates, misreading index
usage under functions, over-emphasising storage format, and ignoring the
magnitude of LIMIT/OFFSET values.

This class reproduces those behaviours deterministically (seeded per query)
behind the standard :class:`~repro.llm.client.LLMClient` interface, so the
explainer pipeline, the baselines, and the benchmarks are agnostic to
whether a hosted model or the simulator is plugged in.  Latencies are
*modelled*, not slept: the response carries realistic thinking (< 2 s) and
generation (≈ 10 s) times without slowing the experiments down.
"""

from __future__ import annotations

import hashlib
import random

from repro.htap.engines.base import EngineKind
from repro.llm.client import NONE_ANSWER, LLMClient, LLMRequest, LLMResponse
from repro.llm.prompts import KnowledgeAttachment, QuestionAttachment
from repro.llm.reasoning import (
    StructuralSignals,
    extract_signals_with_costs,
    factor_applies,
    hypothesize_factors,
)
from repro.workloads.labeling import ExplanationFactor

#: Verbose explanation sentences per factor, in the style of the paper's
#: Table III "our approach" output.
_FACTOR_SENTENCES = {
    ExplanationFactor.HASH_JOIN_VS_NESTED_LOOP: (
        "{winner} is faster largely due to its use of hash joins, which are highly efficient for "
        "joining large inputs, while {loser} falls back to nested loop joins that repeatedly probe "
        "the inner relation."
    ),
    ExplanationFactor.NO_USABLE_INDEX: (
        "Because no usable index is available for the filter or join columns, {loser} has to read "
        "the tables row by row instead of narrowing the work with index lookups."
    ),
    ExplanationFactor.INDEX_DEFEATED_BY_FUNCTION: (
        "Note that applying a function such as SUBSTRING directly to an indexed column prevents "
        "the index from being used, so the predicate cannot benefit from it."
    ),
    ExplanationFactor.COLUMNAR_PARALLEL_SCAN: (
        "{winner}'s column-oriented storage lets it scan only the referenced columns in parallel "
        "and apply filters before joining, which is particularly effective for large tables."
    ),
    ExplanationFactor.AGGREGATION_EFFICIENCY: (
        "{winner}'s vectorised hash aggregation also processes the aggregate over millions of rows "
        "far more efficiently than {loser}'s row-at-a-time group aggregate."
    ),
    ExplanationFactor.FULL_SORT_REQUIRED: (
        "Since the ordering column has no index, the top rows can only be produced after processing "
        "the entire input, which {winner} does with a parallel top-N sort while {loser} must sort "
        "on a single node."
    ),
    ExplanationFactor.LARGE_OFFSET_PENALTY: (
        "The large OFFSET additionally forces many rows to be produced and discarded before the "
        "limit, which is much more costly for {loser}'s row-at-a-time execution."
    ),
    ExplanationFactor.SELECTIVE_INDEX_ACCESS: (
        "{winner} answers the query with a handful of selective B+-tree index lookups, touching only "
        "a tiny fraction of the table, while {loser} must scan far more data to find the same rows."
    ),
    ExplanationFactor.INDEX_PROVIDES_ORDER: (
        "{winner} can read rows directly in the requested order from an index and stop after the "
        "first matching rows, whereas {loser} has to materialise and sort the input before applying "
        "the limit."
    ),
    ExplanationFactor.SMALL_QUERY_OVERHEAD: (
        "The query touches very little data, so {loser}'s fixed scheduling and fragment start-up "
        "overhead dominates its runtime while {winner} finishes almost immediately."
    ),
    ExplanationFactor.SMALL_DATA_VOLUME: (
        "The referenced tables are tiny, so {winner}'s simple row access completes before {loser}'s "
        "distributed execution gets going."
    ),
}

_STORAGE_SENTENCE = (
    "{winner} benefits from column-oriented storage that reads only the required columns, whereas "
    "{loser} uses row-oriented storage and retrieves entire rows."
)
_COST_SENTENCE = (
    "The {winner} plan also shows a lower optimizer cost estimate than the {loser} plan, which "
    "suggests it is the cheaper plan."
)
_INDEX_MISREAD_SENTENCE = (
    "Both engines likely benefit from the index on the filtered column, but {winner} can combine it "
    "with its storage layout more effectively."
)


class SimulatedLLM(LLMClient):
    """Deterministic, offline plan-explanation language model.

    Parameters
    ----------
    seed:
        Global seed; each request derives a per-query generator from it, so
        experiments are reproducible yet queries behave independently.
    model_name:
        Reported model name (defaults to ``simulated-doubao``; the paper found
        minimal accuracy differences between Doubao and ChatGPT-4.0).
    grounded_slip_rate:
        Probability that a grounded answer drifts into an imprecise variant
        (extra weak factor, or missing the primary factor) — models the
        paper's "9 % less precise than expert interpretations".
    single_source_slip_rate / single_source_none_rate / corroborated_none_rate:
        Confidence model for grounding: with only one applicable retrieved
        reference the model slips or abstains (answers ``None``) more often
        than when several retrieved references corroborate each other.  This
        reproduces the paper's retrieval-K sweep, where K=1 drops accuracy to
        ~85 % and raises the None rate to ~8 % while K=2..5 stay at 89–91 %.
    fallback_none_rate:
        Probability of answering ``None`` when no retrieved knowledge applies.
    cost_bias_rate:
        Probability that the un-grounded path leans on cost comparison even
        when the prompt forbids it (the DBG-PT failure mode).
    index_misread_rate:
        Probability that the un-grounded path claims index benefits for a
        function-wrapped predicate.
    storage_overemphasis_rate:
        Probability that the un-grounded path leads with column-storage as the
        main factor regardless of the true dominant cause.
    """

    def __init__(
        self,
        seed: int = 7,
        model_name: str = "simulated-doubao",
        *,
        grounded_slip_rate: float = 0.03,
        single_source_slip_rate: float = 0.06,
        single_source_none_rate: float = 0.07,
        corroborated_none_rate: float = 0.03,
        fallback_none_rate: float = 0.45,
        fallback_accuracy: float = 0.55,
        cost_bias_rate: float = 0.35,
        index_misread_rate: float = 0.6,
        storage_overemphasis_rate: float = 0.7,
        thinking_seconds_range: tuple[float, float] = (0.8, 2.0),
        generation_words_per_second: float = 9.0,
    ):
        self.seed = seed
        self.name = model_name
        self.grounded_slip_rate = grounded_slip_rate
        self.single_source_slip_rate = single_source_slip_rate
        self.single_source_none_rate = single_source_none_rate
        self.corroborated_none_rate = corroborated_none_rate
        self.fallback_none_rate = fallback_none_rate
        self.fallback_accuracy = fallback_accuracy
        self.cost_bias_rate = cost_bias_rate
        self.index_misread_rate = index_misread_rate
        self.storage_overemphasis_rate = storage_overemphasis_rate
        self.thinking_seconds_range = thinking_seconds_range
        self.generation_words_per_second = generation_words_per_second

    # ------------------------------------------------------------------ public
    def generate(self, request: LLMRequest) -> LLMResponse:
        question: QuestionAttachment | None = request.attachments.get("question")
        knowledge: list[KnowledgeAttachment] = list(request.attachments.get("knowledge", []))
        forbid_cost = bool(request.attachments.get("forbid_cost_comparison", True))
        rng = self._rng_for(question.sql if question else request.prompt)

        if question is None:
            text = (
                "I need the execution plans from both the TP and AP engines to assess which engine "
                "is likely to perform better for this query."
            )
            return self._response(text, rng, knowledge_count=0, claims={"is_none": False})

        signals = extract_signals_with_costs(question.sql, question.tp_plan_json, question.ap_plan_json)
        if knowledge:
            text, claims = self._grounded_answer(question, knowledge, signals, rng, request.temperature)
        else:
            text, claims = self._ungrounded_answer(question, signals, rng, forbid_cost)
        return self._response(text, rng, knowledge_count=len(knowledge), claims=claims)

    # ---------------------------------------------------------------- grounded
    def _grounded_answer(
        self,
        question: QuestionAttachment,
        knowledge: list[KnowledgeAttachment],
        signals: StructuralSignals,
        rng: random.Random,
        temperature: float,
    ) -> tuple[str, dict]:
        winner = question.faster_engine or self._infer_winner(signals, rng, allow_cost=False)
        applicable: list[tuple[KnowledgeAttachment, list[str]]] = []
        for attachment in sorted(knowledge, key=lambda item: -item.similarity):
            if attachment.faster_engine is not winner:
                continue
            matching = [factor for factor in attachment.factors if factor_applies(factor, signals)]
            if matching:
                applicable.append((attachment, matching))

        if not applicable:
            # The retrieved knowledge does not cover this case.
            if rng.random() < self.fallback_none_rate:
                return NONE_ANSWER, {
                    "is_none": True,
                    "winner": None,
                    "factors": [],
                    "grounded": True,
                    "used_cost_comparison": False,
                    "adopted_entries": 0,
                }
            factors = hypothesize_factors(signals, winner)
            if not factors:
                return NONE_ANSWER, {
                    "is_none": True,
                    "winner": None,
                    "factors": [],
                    "grounded": True,
                    "used_cost_comparison": False,
                    "adopted_entries": 0,
                }
            if rng.random() > self.fallback_accuracy and len(factors) > 1:
                # A structurally plausible but non-dominant factor leads.
                factors = factors[1:] + factors[:1]
            cited = factors[:2]
            text = self._compose(winner, cited, signals, grounded=False)
            return text, {
                "is_none": False,
                "winner": winner.value,
                "factors": cited,
                "grounded": True,
                "used_cost_comparison": False,
                "adopted_entries": 0,
            }

        # Confidence model: a single applicable reference gives weaker
        # grounding than several corroborating ones (drives the K sweep).
        single_source = len(applicable) == 1
        none_rate = self.single_source_none_rate if single_source else self.corroborated_none_rate
        if rng.random() < none_rate:
            return NONE_ANSWER, {
                "is_none": True,
                "winner": None,
                "factors": [],
                "grounded": True,
                "used_cost_comparison": False,
                "adopted_entries": len(applicable),
            }

        cited: list[str] = []
        for _attachment, matching in applicable:
            for factor in matching:
                if factor not in cited:
                    cited.append(factor)
        cited = cited[:3]

        slip_rate = self.single_source_slip_rate if single_source else self.grounded_slip_rate
        slip = rng.random() < slip_rate * (1.0 + temperature)
        if slip and len(cited) > 1:
            # Imprecise variant: lead with a secondary factor.
            cited = cited[1:] + cited[:1]
        elif slip:
            # Imprecise variant: swap the grounded factor for a structurally
            # plausible but weaker one.
            extras = [factor for factor in hypothesize_factors(signals, winner) if factor not in cited]
            if extras:
                cited = [extras[-1], *cited]

        text = self._compose(winner, cited, signals, grounded=True)
        return text, {
            "is_none": False,
            "winner": winner.value,
            "factors": cited,
            "grounded": True,
            "used_cost_comparison": False,
            "adopted_entries": len(applicable),
        }

    # -------------------------------------------------------------- ungrounded
    def _ungrounded_answer(
        self,
        question: QuestionAttachment,
        signals: StructuralSignals,
        rng: random.Random,
        forbid_cost: bool,
    ) -> tuple[str, dict]:
        used_cost = False
        if question.faster_engine is not None:
            winner = question.faster_engine
        else:
            cost_bias = self.cost_bias_rate if forbid_cost else 0.9
            if rng.random() < cost_bias:
                used_cost = True
                winner = (
                    EngineKind.TP if signals.tp_total_cost <= signals.ap_total_cost else EngineKind.AP
                )
            else:
                winner = self._infer_winner(signals, rng, allow_cost=False)

        factors = hypothesize_factors(signals, winner)
        extra_sentences: list[str] = []
        # Storage over-emphasis: lead with columnar storage regardless of the
        # actual dominant factor.
        if winner is EngineKind.AP and rng.random() < self.storage_overemphasis_rate:
            storage = ExplanationFactor.COLUMNAR_PARALLEL_SCAN.value
            factors = [storage] + [factor for factor in factors if factor != storage]
        # Index misread: claim index benefits when the function-wrapped
        # predicate actually defeats the index.
        index_misread = signals.sql_wraps_column_in_function and rng.random() < self.index_misread_rate
        if index_misread:
            factors = [
                factor
                for factor in factors
                if factor != ExplanationFactor.INDEX_DEFEATED_BY_FUNCTION.value
            ]
            extra_sentences.append(_INDEX_MISREAD_SENTENCE)
        # Offset blindness: drop the OFFSET factor (cannot judge relative size).
        factors = [factor for factor in factors if factor != ExplanationFactor.LARGE_OFFSET_PENALTY.value]
        cited = factors[:2]

        text = self._compose(winner, cited, signals, grounded=False, extra_sentences=extra_sentences)
        if used_cost:
            loser = winner.other()
            text += " " + _COST_SENTENCE.format(winner=winner.value, loser=loser.value)
        return text, {
            "is_none": False,
            "winner": winner.value,
            "factors": cited,
            "grounded": False,
            "used_cost_comparison": used_cost,
            "index_misread": index_misread,
            "adopted_entries": 0,
        }

    # ----------------------------------------------------------------- helpers
    def _infer_winner(self, signals: StructuralSignals, rng: random.Random, *, allow_cost: bool) -> EngineKind:
        if allow_cost:
            return EngineKind.TP if signals.tp_total_cost <= signals.ap_total_cost else EngineKind.AP
        if signals.tp_uses_index and signals.is_small_query:
            return EngineKind.TP
        if signals.tp_index_ordered and signals.has_top_n:
            return EngineKind.TP
        if signals.is_large_scan or signals.has_aggregation:
            return EngineKind.AP
        return EngineKind.AP if rng.random() < 0.6 else EngineKind.TP

    def _compose(
        self,
        winner: EngineKind,
        factor_values: list[str],
        signals: StructuralSignals,
        *,
        grounded: bool,
        extra_sentences: list[str] | None = None,
    ) -> str:
        loser = winner.other()
        sentences: list[str] = []
        for value in factor_values:
            try:
                factor = ExplanationFactor(value)
            except ValueError:
                continue
            sentences.append(_FACTOR_SENTENCES[factor].format(winner=winner.value, loser=loser.value))
        if winner is EngineKind.AP and ExplanationFactor.COLUMNAR_PARALLEL_SCAN.value not in factor_values:
            sentences.append(_STORAGE_SENTENCE.format(winner=winner.value, loser=loser.value))
        if extra_sentences:
            sentences.extend(extra_sentences)
        closing = (
            f"Overall, these factors give the {winner.value} engine a significant advantage for this "
            "specific query."
        )
        if grounded:
            closing = (
                f"Consistent with similar historical queries, {closing[0].lower()}{closing[1:]}"
            )
        sentences.append(closing)
        return " ".join(sentences)

    def _rng_for(self, key: str) -> random.Random:
        # A stable content hash keeps per-query behaviour deterministic across
        # processes (Python's built-in str hash is salted per interpreter run).
        digest = hashlib.md5(key.encode("utf-8")).digest()
        return random.Random(int.from_bytes(digest[:8], "little") ^ self.seed)

    def _response(
        self, text: str, rng: random.Random, *, knowledge_count: int, claims: dict
    ) -> LLMResponse:
        low, high = self.thinking_seconds_range
        thinking = min(high, low + 0.25 * knowledge_count + rng.uniform(0.0, 0.3))
        words = max(1, len(text.split()))
        generation = words / self.generation_words_per_second + rng.uniform(0.0, 0.8)
        return LLMResponse(
            text=text,
            thinking_seconds=thinking,
            generation_seconds=generation,
            model_name=self.name,
            claims=claims,
        )
