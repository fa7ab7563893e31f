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
import math
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


def _write_text(path: Path, text: str) -> None:
    """Write UTF-8 ``text`` to ``path``, creating its directory first, so a
    command that fails before its first write leaves no output directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def write_trace(path: Path, records: Iterable[TraceRecord]) -> None:
    _write_text(path, format_trace(records))


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


def _json_safe(value):
    """``value`` with every non-finite float, nested in dicts, lists and
    tuples, replaced by None: strict JSON has no NaN or infinity."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def write_manifest(path: Path, payload: dict) -> None:
    """Write ``payload`` as strict JSON, a non-finite float as null."""
    text = json.dumps(_json_safe(payload), indent=2, sort_keys=True, allow_nan=False)
    _write_text(path, text + "\n")


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)
