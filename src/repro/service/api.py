"""Request/response model for the explanation-serving subsystem.

Every interaction with :class:`~repro.service.server.ExplanationService` is
described by these types: a caller submits an :class:`ExplainRequest` (or
just a SQL string, which the service wraps) and always gets back an
:class:`ExplainResult` — rejections and failures are *values* with a typed
:class:`ServiceError`, never exceptions leaking out of the worker pool.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from repro.knowledge.knowledge_base import DEFAULT_TENANT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.explainer.pipeline import Explanation

_REQUEST_COUNTER = itertools.count(1)


def new_request_id() -> str:
    """Process-unique, monotonically increasing request id."""
    return f"req-{next(_REQUEST_COUNTER):08d}"


class RequestStatus(str, Enum):
    """Terminal state of one request."""

    OK = "ok"
    REJECTED = "rejected"  # never entered the pipeline (shed / closed)
    FAILED = "failed"      # entered the pipeline but could not finish


class ServiceErrorCode(str, Enum):
    """Typed reasons a request did not produce an explanation."""

    QUEUE_FULL = "queue_full"
    DEADLINE_EXCEEDED = "deadline_exceeded"
    QUOTA_EXCEEDED = "quota_exceeded"
    SERVICE_CLOSED = "service_closed"
    INVALID_SQL = "invalid_sql"  # did not lex or parse: not retryable
    INTERNAL_ERROR = "internal_error"


@dataclass(frozen=True)
class ServiceError:
    """Structured error carried inside a non-OK :class:`ExplainResult`."""

    code: ServiceErrorCode
    message: str

    @property
    def retryable(self) -> bool:
        """Whether retrying the same request later can succeed."""
        return self.code in (
            ServiceErrorCode.QUEUE_FULL,
            ServiceErrorCode.DEADLINE_EXCEEDED,
            ServiceErrorCode.QUOTA_EXCEEDED,
        )


@dataclass
class ExplainRequest:
    """One explanation request as tracked inside the service."""

    sql: str
    user_notes: str | None = None
    #: Wall-clock budget for the whole request (queueing included); ``None``
    #: means no deadline.
    deadline_seconds: float | None = None
    #: Tenant namespace the request runs in — scopes cache keys, quota
    #: accounting, fair-queue weight, and KB retrieval.
    tenant: str = DEFAULT_TENANT
    request_id: str = field(default_factory=new_request_id)
    #: ``time.perf_counter()`` at admission, set by the service.
    submitted_at: float = field(default_factory=time.perf_counter)

    def remaining_seconds(self, now: float | None = None) -> float | None:
        """Time left in the budget, or ``None`` when there is no deadline."""
        if self.deadline_seconds is None:
            return None
        now = time.perf_counter() if now is None else now
        return self.deadline_seconds - (now - self.submitted_at)

    def expired(self, now: float | None = None) -> bool:
        remaining = self.remaining_seconds(now)
        return remaining is not None and remaining <= 0.0


@dataclass
class ExplainResult:
    """Terminal outcome of one request — always returned, never raised."""

    request_id: str
    status: RequestStatus
    explanation: "Explanation | None" = None
    error: ServiceError | None = None
    #: Whether the explanation came straight from the L1 cache.
    cache_hit: bool = False
    #: Whether the plan/embedding came from the L2 cache (cold LLM call only).
    plan_cache_hit: bool = False
    #: Time spent waiting before a worker picked the request up.
    queue_seconds: float = 0.0
    #: End-to-end time inside the service (admission to completion).
    total_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status is RequestStatus.OK

    @property
    def text(self) -> str | None:
        """The explanation text, if the request succeeded."""
        return self.explanation.text if self.explanation is not None else None

    @classmethod
    def rejection(
        cls, request_id: str, code: ServiceErrorCode, message: str, *, total_seconds: float = 0.0
    ) -> "ExplainResult":
        return cls(
            request_id=request_id,
            status=RequestStatus.REJECTED,
            error=ServiceError(code=code, message=message),
            total_seconds=total_seconds,
        )

    @classmethod
    def failure(
        cls,
        request_id: str,
        code: ServiceErrorCode,
        message: str,
        *,
        queue_seconds: float = 0.0,
        total_seconds: float = 0.0,
    ) -> "ExplainResult":
        return cls(
            request_id=request_id,
            status=RequestStatus.FAILED,
            error=ServiceError(code=code, message=message),
            queue_seconds=queue_seconds,
            total_seconds=total_seconds,
        )
