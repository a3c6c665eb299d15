"""Cell-by-cell diff of two benchmark JSON artifacts (``bench compare``).

Because the simulator is deterministic (same seed + spec ⇒ bit-identical
simulated times and ledger charges), two runs of the same sweep on the
same source tree must agree *exactly*, so the comparison has no
tolerance: any drift in a simulated time, an op-ledger count, or a
completion rate is a real behavioral change, not noise.  A deliberate
change refreshes the committed baseline instead.

Payload cells (``measurements`` for scale/figure artifacts, ``cells``
for chaos and load) are matched by their identity fields (protocol,
event, group size, drop rate, topology, DH group, arrival process);
cells sharing an identity are matched by occurrence.  Every field is
compared for equality, nested dicts such as the op-ledger counts
recursively.  Missing or extra cells and top-level metadata changes are
drift too.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Dict, List, Tuple

#: Fields that *identify* a cell rather than measure it.
IDENTITY_FIELDS = (
    "protocol",
    "event",
    "group_size",
    "drop_rate",
    "topology",
    "dh_group",
    "arrival",
)

#: Top-level payload keys that describe the run and must match for the
#: comparison to be meaningful at all.
META_FIELDS = ("benchmark", "engine", "seed", "repeats")


def read_payload(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: benchmark payload must be a JSON object")
    return payload


def payload_cells(payload: dict) -> List[dict]:
    """The list of cell dicts, whatever the benchmark kind calls it."""
    for key in ("measurements", "cells"):
        rows = payload.get(key)
        if isinstance(rows, list):
            return rows
    raise ValueError(
        "payload has neither a 'measurements' nor a 'cells' list"
    )


def cell_identity(row: dict) -> Tuple[Tuple[str, Any], ...]:
    return tuple(
        (name, row[name]) for name in IDENTITY_FIELDS if name in row
    )


def _identity_label(identity: Tuple[Tuple[str, Any], ...]) -> str:
    if not identity:
        return "<cell>"
    return " ".join(f"{name}={value}" for name, value in identity)


def _indexed(rows: List[dict]) -> Dict[Tuple, dict]:
    """Rows by identity; the k-th repeat of an identity is ranked ``#=k``."""
    index: Dict[Tuple, dict] = {}
    seen: Counter = Counter()
    for row in rows:
        identity = cell_identity(row)
        rank = seen[identity]
        seen[identity] += 1
        index[identity + ((("#", rank),) if rank else ())] = row
    return index


def _diff_value(path: str, old: Any, new: Any, drifts: List[str]) -> None:
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            if key not in old:
                drifts.append(f"{path}.{key}: missing in OLD, new={new[key]!r}")
            elif key not in new:
                drifts.append(f"{path}.{key}: missing in NEW, old={old[key]!r}")
            else:
                _diff_value(f"{path}.{key}", old[key], new[key], drifts)
    elif old != new:
        drifts.append(f"{path}: {old!r} -> {new!r}")


def compare_payloads(old: dict, new: dict) -> List[str]:
    """Every drift between two payloads, as human-readable lines.

    An empty list means the artifacts agree exactly.
    """
    drifts: List[str] = []
    for name in META_FIELDS:
        if old.get(name) != new.get(name):
            drifts.append(
                f"meta.{name}: {old.get(name)!r} -> {new.get(name)!r}"
            )
    try:
        old_rows, new_rows = payload_cells(old), payload_cells(new)
    except ValueError as error:
        drifts.append(str(error))
        return drifts

    old_index, new_index = _indexed(old_rows), _indexed(new_rows)
    for identity in old_index:
        if identity not in new_index:
            drifts.append(f"{_identity_label(identity)}: missing in NEW")
    for identity in new_index:
        if identity not in old_index:
            drifts.append(f"{_identity_label(identity)}: missing in OLD")
    for identity, old_row in old_index.items():
        if identity in new_index:
            _diff_value(
                _identity_label(identity), old_row, new_index[identity], drifts
            )
    return drifts


def compare_files(old_path: str, new_path: str) -> List[str]:
    """:func:`compare_payloads` over two files on disk."""
    return compare_payloads(read_payload(old_path), read_payload(new_path))
