"""Canonical content digests over JSON-able state and result payloads.

Everything the verify subsystem compares — kernel-boundary snapshots in
differential replay, result payloads in the golden ledger, simcache
records — reduces to one canonical form: JSON with sorted keys and no
whitespace, hashed with sha256.  Float formatting goes through Python's
``repr`` (shortest round-trip), which is deterministic for identical
doubles across platforms, so equal state always digests equally and a
single flipped counter always shows.

This module imports nothing from the rest of the package (only the
standard library) so any layer — including :mod:`repro.analysis.simcache`
below the analysis stack — can use it without import cycles.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, FrozenSet, Iterable

__all__ = [
    "VOLATILE_RESULT_FIELDS",
    "canonical_json",
    "content_digest",
    "payload_digest",
    "state_digest",
    "state_field_digests",
]

#: Result-payload fields that legitimately differ between identical runs
#: (host-time measurements); excluded — at any nesting depth — from every
#: result digest.  ``wall_time_s`` is the simulation payloads' wall
#: clock, ``collection_seconds`` its counterpart in MRC payloads'
#: ``metadata`` block.
VOLATILE_RESULT_FIELDS: FrozenSet[str] = frozenset(
    {"wall_time_s", "collection_seconds"}
)

_PREFIX = "sha256:"


def _scrub(value: object, excluded: FrozenSet[str]) -> object:
    """Recursively drop excluded keys from dicts (lists descended too)."""
    if isinstance(value, dict):
        return {
            key: _scrub(item, excluded)
            for key, item in value.items()
            if key not in excluded
        }
    if isinstance(value, (list, tuple)):
        return [_scrub(item, excluded) for item in value]
    return value


def canonical_json(value: object) -> str:
    """One canonical serialization per value: sorted keys, no whitespace.

    Raises ``TypeError`` on non-JSON-able input — digests over silently
    coerced state would compare equal when the state is not.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def content_digest(value: object) -> str:
    """``sha256:<hex>`` over the canonical JSON form of ``value``."""
    return _PREFIX + hashlib.sha256(canonical_json(value).encode()).hexdigest()


def payload_digest(
    payload: Dict[str, object],
    exclude: Iterable[str] = VOLATILE_RESULT_FIELDS,
) -> str:
    """Digest of a result payload with its volatile fields dropped.

    The exclusion applies at every nesting depth: host-time measurements
    are volatile wherever they sit (``wall_time_s`` at a simulation
    payload's top level, ``collection_seconds`` inside an MRC payload's
    ``metadata``), and everything else must digest identically between
    serial/parallel and checked/plain runs of the same config.
    """
    return content_digest(_scrub(payload, frozenset(exclude)))


def state_field_digests(state: Dict[str, object]) -> Dict[str, str]:
    """Per-field digests of a simulator ``_state_dict()`` snapshot.

    Differential replay compares these field by field so a divergence
    names the component that drifted (``clock``, ``sms``, ``memory``,
    ``accesses``, ``cta_seq``) instead of reporting one opaque mismatch.
    """
    return {field: content_digest(value) for field, value in state.items()}


def state_digest(state: Dict[str, object]) -> str:
    """One digest over a whole simulator state snapshot."""
    return content_digest(state)
