"""Trace and summary file I/O.

Trace format: UTF-8 CSV, one record per line after the header:

    bin_index,photon_count,pulse,true_state

pulse is 0 (none), 1 (repump) or 2 (depump); true_state is -1 when ground
truth is withheld. The format is deliberately plain so traces diff cleanly
and can be parsed from any language.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Sequence

from .errors import TraceFormatError
from .model import Pulse, TraceRecord, check_state

TRACE_HEADER = "bin_index,photon_count,pulse,true_state"
_PULSES = {int(p): p for p in Pulse}


def format_trace(records: Iterable[TraceRecord]) -> str:
    lines = [TRACE_HEADER]
    for r in records:
        ts = -1 if r.true_state is None else r.true_state
        lines.append(f"{r.bin_index},{r.photon_count},{int(r.pulse)},{ts}")
    return "\n".join(lines) + "\n"


def write_trace(path: Path, records: Iterable[TraceRecord]) -> None:
    Path(path).write_text(format_trace(records), encoding="utf-8")


def parse_trace(text: str) -> list[TraceRecord]:
    """Records of a trace file; blank lines are skipped. Any malformed line
    raises TraceFormatError naming its line number."""
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1] != TRACE_HEADER:
        lineno = lines[0][0] if lines else 1
        raise TraceFormatError(
            f"line {lineno}: trace file must start with header {TRACE_HEADER!r}"
        )
    records = []
    append, make = records.append, TraceRecord._make
    prev_index = -1
    for lineno, ln in lines[1:]:
        # the checks and messages of int(), Pulse() and TraceRecord(), in
        # their order; idx > prev_index >= -1 already makes idx >= 0
        try:
            parts = ln.split(",")
            if len(parts) != 4:
                raise ValueError("expected 4 comma-separated fields")
            idx, count, pulse, true_state = map(int, parts)
            if idx <= prev_index:
                raise ValueError("bin_index must be strictly increasing")
            direction = _PULSES.get(pulse)
            if direction is None:
                raise ValueError(f"{pulse!r} is not a valid Pulse")
            if count < 0:
                raise ValueError("photon_count must be >= 0")
            ts = None if true_state == -1 else check_state(true_state)
            append(make((idx, count, direction, ts)))
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from None
        prev_index = idx
    return records


def read_trace(path: Path) -> list[TraceRecord]:
    """Records of the trace file at ``path``. A malformed or non-UTF-8 file
    raises TraceFormatError whose message starts with the path."""
    try:
        return parse_trace(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{path}: not UTF-8 at byte {exc.start}") from None
    except TraceFormatError as exc:
        raise TraceFormatError(f"{path}: {exc}") from None


def config_digest(config_text: str) -> str:
    return hashlib.sha256(config_text.encode("utf-8")).hexdigest()


def write_manifest(path: Path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)
