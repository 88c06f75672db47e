"""Structured JSON-lines trace log.

One JSON object per finished trace, appended to a file, flushed per
write so a crash loses at most the in-flight trace.  Attribute values
that are not JSON-native are stringified rather than dropped — a trace
log that throws on an enum attribute is worse than one with
``"EngineKind.TP"`` in it.

Reading back is :func:`read_traces`, which tolerates a truncated final
line (the crash case) and is what ``repro-trace show``/``breakdown``
consume.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.store import Trace


class TraceLogWriter:
    """Append-only JSON-lines sink for finished traces."""

    def __init__(self, path: str | Path):
        self._lock = threading.Lock()
        self._path = Path(path)
        self._stream: IO[str] | None = None

    def _handle(self) -> IO[str]:
        if self._stream is None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = open(self._path, "a", encoding="utf-8")
        return self._stream

    def write(self, trace: "Trace") -> None:
        line = json.dumps(trace.to_dict(), default=str, separators=(",", ":"))
        with self._lock:
            handle = self._handle()
            handle.write(line + "\n")
            handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._stream is not None:
                self._stream.close()
                self._stream = None

    def __enter__(self) -> "TraceLogWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def read_traces(path: str | Path) -> Iterator[dict[str, Any]]:
    """Yield trace dicts from a JSON-lines log, skipping a torn last line."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write at crash/kill time
            if isinstance(payload, dict) and "spans" in payload:
                yield payload
