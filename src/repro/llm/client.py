"""LLM client interface.

Any language model — a hosted API (Doubao, ChatGPT, Claude, Llama behind a
gateway) or the offline :class:`~repro.llm.simulated.SimulatedLLM` — is used
through the same tiny interface: build an :class:`LLMRequest`, call
:meth:`LLMClient.generate`, get an :class:`LLMResponse` with the text and the
thinking/generation timings the latency benchmark needs.

``LLMRequest.attachments`` carries the *structured* form of the prompt
(retrieved knowledge entries and the question's plan pair).  Hosted clients
ignore it — they only see ``prompt``, the text
:class:`~repro.llm.prompts.PromptPayload` renders when it is read — but the
offline simulator consumes it instead of re-parsing its own prompt text.
It parses only the QUESTION's two plans, from the EXPLAIN JSON text the
prompt embeds, into plan trees for its structural reasoning.  This is part
of the offline LLM substitution described in README.md.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any

from repro.obs.tracing import get_tracer

#: Sentinel text returned when the model decides the retrieved knowledge does
#: not contain the facts needed to answer (paper: "return None").
NONE_ANSWER = "None"


@dataclass
class LLMRequest:
    """A single generation request."""

    prompt: str
    #: Structured view of the prompt for offline simulation (see module docstring).
    attachments: dict[str, Any] = field(default_factory=dict)
    #: Soft cap on the answer length, in words (hosted models map it to tokens).
    max_words: int = 220
    #: Sampling temperature; the simulator maps it onto its stochastic choices.
    temperature: float = 0.2


@dataclass
class LLMResponse:
    """A generation result with latency accounting."""

    text: str
    thinking_seconds: float
    generation_seconds: float
    model_name: str
    #: Structured claims made by the answer (factors cited, winner claimed).
    #: Populated by the simulator so the evaluation panel can grade without
    #: natural-language parsing; empty for hosted models.
    claims: dict[str, Any] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.thinking_seconds + self.generation_seconds

    @property
    def is_none_answer(self) -> bool:
        return self.text.strip().lower() == NONE_ANSWER.lower()


class LLMClient(abc.ABC):
    """Minimal interface every language-model backend implements."""

    name: str = "llm"

    @abc.abstractmethod
    def generate(self, request: LLMRequest) -> LLMResponse:
        """Produce a response for ``request``."""

    def generate_traced(self, request: LLMRequest) -> LLMResponse:
        """:meth:`generate` inside an ``llm.generate`` span.

        The span carries the response's *modeled* ``thinking_seconds`` and
        ``generation_seconds`` next to its own measured duration.  It is a
        no-op unless a request trace is open, so backends stay free to
        call plain :meth:`generate` from anywhere.
        """
        with get_tracer().span("llm.generate", model=self.name) as span:
            response = self.generate(request)
            span.set_attributes(
                model=response.model_name,
                none_answer=response.is_none_answer,
                thinking_seconds=response.thinking_seconds,
                generation_seconds=response.generation_seconds,
            )
            return response

    def generate_text(self, prompt: str) -> str:
        """Convenience wrapper returning only the text."""
        return self.generate(LLMRequest(prompt=prompt)).text
