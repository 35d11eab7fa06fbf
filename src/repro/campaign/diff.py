"""Differential comparison of campaign artifacts.

The resilience contract says a crashed-and-resumed campaign must
converge to the artifact an uninterrupted run would have produced,
bit-identically once volatile wall-time fields are scrubbed.  "The
artifacts differ" is useless for debugging that; in the spirit of
:mod:`repro.verify.replay`, :func:`first_artifact_divergence` walks the
two artifacts together and names the *first* dotted path where they
part ways — ``workloads[3].ipcs[1]``, ``confusion.linear.sub-linear`` —
plus both values at that path.

``scripts/chaos.py`` (its one convergence check, for campaign artifacts
and store payloads alike) and the resume tests assert on this:
convergence means :func:`first_artifact_divergence` returns ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.campaign.runtime import VOLATILE_ARTIFACT_FIELDS, scrub_artifact

__all__ = ["ArtifactDivergence", "first_artifact_divergence"]


@dataclass(frozen=True)
class ArtifactDivergence:
    """First point where two artifacts disagree."""

    path: str
    ours: object
    theirs: object

    def describe(self) -> str:
        return f"artifacts diverge at {self.path}: {self.ours!r} != {self.theirs!r}"


def _walk(ours, theirs, path: str) -> Optional[ArtifactDivergence]:
    if isinstance(ours, dict) and isinstance(theirs, dict):
        for key in sorted(set(ours) | set(theirs)):
            here = f"{path}.{key}" if path else str(key)
            if key not in ours:
                return ArtifactDivergence(here, "<absent>", theirs[key])
            if key not in theirs:
                return ArtifactDivergence(here, ours[key], "<absent>")
            found = _walk(ours[key], theirs[key], here)
            if found is not None:
                return found
        return None
    if isinstance(ours, list) and isinstance(theirs, list):
        if len(ours) != len(theirs):
            return ArtifactDivergence(
                f"{path}.length" if path else "length", len(ours), len(theirs)
            )
        for index, (a, b) in enumerate(zip(ours, theirs)):
            found = _walk(a, b, f"{path}[{index}]")
            if found is not None:
                return found
        return None
    if ours != theirs or type(ours) is not type(theirs):
        return ArtifactDivergence(path or "<root>", ours, theirs)
    return None


def first_artifact_divergence(
    ours: dict,
    theirs: dict,
    scrub: bool = True,
    volatile=VOLATILE_ARTIFACT_FIELDS,
) -> Optional[ArtifactDivergence]:
    """First divergence between two artifacts, or None if they converge.

    With ``scrub=True`` (the default) volatile wall-time fields are
    dropped from both sides first, so only the deterministic core is
    compared — the exact convergence the resilience contract promises.
    """
    if scrub:
        ours = scrub_artifact(ours, volatile)
        theirs = scrub_artifact(theirs, volatile)
    return _walk(ours, theirs, "")
