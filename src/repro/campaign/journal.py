"""The append-only campaign progress journal.

A long sweep dispatches hundreds of individually fault-tolerant runs,
but the *campaign* itself used to be all-or-nothing: a crash an hour in
discarded every completed workload because nothing durable said which
ones were done.  The journal fixes that at the layer where campaigns
actually die.

One campaign owns one directory, ``<base>/<plan digest>/``, holding a
single ``journal.jsonl``:

* line 1 is the **sealed header** — campaign kind, journal schema
  version, the full plan payload and the 16-hex plan digest that names
  the directory, plus a self-digest over those fields.  Attaching to an
  existing journal re-derives both digests; a mismatch (different plan,
  tampered header) raises :class:`~repro.exceptions.CampaignError`
  rather than silently mixing two campaigns' progress.
* every later line is one **workload outcome**: unit id, status
  (``ok``/``failed``), the full measurement record, a sequence number
  and a content digest of the record.  Lines are written through
  :func:`repro.fsio.append_text` (seam label ``journal``), so a
  completed append is durable and a crash can at worst tear the final
  line — which :meth:`CampaignJournal.replay` skips, costing exactly
  one workload's recomputation.
* an optional trailing ``complete`` marker records that the sweep
  finished.

Resume is therefore a pure function of the journal: re-invoking the
same plan replays the records, skips every sealed unit, and the runtime
(:mod:`repro.campaign.runtime`) executes only the remainder.

Chaos seam: ``REPRO_CAMPAIGN_KILL_AFTER=<k>`` SIGKILLs the process the
moment this process's *k*-th workload record becomes durable — the
exact crash window ``scripts/chaos.py --target campaign`` drills.  The
run is the smallest unit anything recovers: a workload killed
mid-simulation is simply re-run.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import warnings
from typing import Dict, List, Optional

from repro import fsio
from repro.exceptions import CampaignError
from repro.verify.digest import canonical_json, content_digest

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "KILL_AFTER_ENV",
    "CampaignJournal",
    "plan_digest",
]

#: Bump on any breaking change to the journal line formats.
JOURNAL_SCHEMA_VERSION = 1

#: Chaos seam: SIGKILL this process right after its <k>-th workload
#: record is durably appended (see module docstring).
KILL_AFTER_ENV = "REPRO_CAMPAIGN_KILL_AFTER"

_JOURNAL_NAME = "journal.jsonl"

#: Statuses a workload record may carry.
_UNIT_STATUSES = frozenset(("ok", "failed"))


def plan_digest(kind: str, plan: dict) -> str:
    """16-hex digest naming a campaign: kind + schema + canonical plan."""
    payload = canonical_json(
        {"kind": kind, "schema_version": JOURNAL_SCHEMA_VERSION, "plan": plan}
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _header_digest(header: dict) -> str:
    """Self-digest over every header field except the digest itself."""
    scrubbed = {k: v for k, v in header.items() if k != "header_digest"}
    return content_digest(scrubbed)


def _kill_after() -> Optional[int]:
    raw = os.environ.get(KILL_AFTER_ENV)
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        warnings.warn(f"{KILL_AFTER_ENV}={raw!r} is not an integer; ignored")
        return None
    return value if value > 0 else None


class CampaignJournal:
    """One campaign's durable progress record (see module docstring).

    Build with :meth:`open`: it derives the plan digest, creates (and
    seals) a fresh journal or attaches to the existing one, and replays
    completed units into :attr:`completed` — a ``unit id -> {"status",
    "record"}`` mapping in journal order.
    """

    def __init__(self, directory: str, kind: str, digest: str) -> None:
        self.directory = directory
        self.kind = kind
        self.digest = digest
        self.path = os.path.join(directory, _JOURNAL_NAME)
        #: unit id -> {"status": ..., "record": ...}, journal order.
        self.completed: Dict[str, dict] = {}
        #: Torn/corrupt record lines skipped during replay.
        self.corrupt_lines = 0
        #: True once a ``complete`` marker was seen or written.
        self.complete = False
        self._seq = 0
        self._appended_here = 0

    # --- construction ----------------------------------------------------------
    @classmethod
    def open(
        cls, base_dir: str, kind: str, plan: dict, created_unix: float
    ) -> "CampaignJournal":
        """Create-or-attach the journal for ``plan`` under ``base_dir``.

        A fresh journal writes the sealed header immediately (fsync'd),
        so the binding between directory name and plan is durable before
        any workload executes.  ``created_unix`` is stamped into fresh
        headers only; attaching keeps the original stamp.
        """
        digest = plan_digest(kind, plan)
        journal = cls(os.path.join(base_dir, digest), kind, digest)
        if os.path.exists(journal.path):
            journal._replay(plan)
        else:
            os.makedirs(journal.directory, exist_ok=True)
            header = {
                "type": "header",
                "kind": kind,
                "schema_version": JOURNAL_SCHEMA_VERSION,
                "plan_digest": digest,
                "plan": plan,
                "created_unix": created_unix,
            }
            header["header_digest"] = _header_digest(header)
            fsio.append_text(
                journal.path, json.dumps(header, sort_keys=True) + "\n",
                op="journal",
            )
        return journal

    @classmethod
    def discard(cls, base_dir: str, kind: str, plan: dict) -> bool:
        """Remove an existing journal for ``plan`` (``--no-resume``).

        Returns True when something was deleted.  Only the journal file
        and its (then-empty) digest directory are touched — never
        siblings under ``base_dir``.
        """
        import shutil

        directory = os.path.join(base_dir, plan_digest(kind, plan))
        if not os.path.isdir(directory):
            return False
        shutil.rmtree(directory)
        return True

    # --- replay ----------------------------------------------------------------
    def _replay(self, plan: dict) -> None:
        with open(self.path) as fh:
            lines = fh.readlines()
        if not lines:
            raise CampaignError(
                f"campaign journal {self.path} is empty — no sealed header; "
                "remove the directory (or rerun with --no-resume) to start "
                "fresh"
            )
        self._check_header(lines[0], plan)
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # Torn trailing line (crash mid-append): the unit was
                # not sealed, so it simply re-executes.
                self.corrupt_lines += 1
                continue
            if not isinstance(record, dict):
                self.corrupt_lines += 1
                continue
            kind = record.get("type")
            if kind == "workload":
                self._replay_unit(record)
            elif kind == "complete":
                self.complete = True
        if self.corrupt_lines:
            warnings.warn(
                f"campaign journal {self.path}: skipped "
                f"{self.corrupt_lines} corrupt line(s); the affected "
                "workloads will re-execute"
            )

    def _check_header(self, line: str, plan: dict) -> None:
        try:
            header = json.loads(line)
        except json.JSONDecodeError:
            raise CampaignError(
                f"campaign journal {self.path}: unreadable header; remove "
                "the directory (or rerun with --no-resume) to start fresh"
            )
        if not isinstance(header, dict) or header.get("type") != "header":
            raise CampaignError(
                f"campaign journal {self.path}: first line is not a header"
            )
        if header.get("header_digest") != _header_digest(header):
            raise CampaignError(
                f"campaign journal {self.path}: header failed its "
                "self-digest — the seal is broken"
            )
        expected = plan_digest(self.kind, plan)
        if (
            header.get("plan_digest") != expected
            or header.get("kind") != self.kind
            or header.get("schema_version") != JOURNAL_SCHEMA_VERSION
        ):
            raise CampaignError(
                f"campaign journal {self.path} was sealed for a different "
                f"plan (journal {header.get('plan_digest')!r}, current "
                f"{expected!r}); refusing to mix campaigns"
            )

    def _replay_unit(self, record: dict) -> None:
        unit = record.get("unit")
        status = record.get("status")
        payload = record.get("record")
        if (
            not isinstance(unit, str)
            or status not in _UNIT_STATUSES
            or not isinstance(payload, dict)
        ):
            self.corrupt_lines += 1
            return
        if record.get("record_digest") != content_digest(payload):
            # A flipped bit inside a sealed record: treat the unit as
            # unsealed so it recomputes, rather than trusting bad data.
            self.corrupt_lines += 1
            return
        if unit in self.completed:
            warnings.warn(
                f"campaign journal {self.path}: duplicate record for "
                f"unit {unit}; keeping the latest"
            )
        self.completed[unit] = {"status": status, "record": payload}
        self._seq = max(self._seq, int(record.get("seq", 0)))

    # --- appends ---------------------------------------------------------------
    def record(
        self, unit: str, status: str, record: dict, recorded_unix: float
    ) -> None:
        """Durably seal one workload outcome, then arm the chaos seam."""
        if status not in _UNIT_STATUSES:
            raise CampaignError(
                f"journal record for {unit}: unknown status {status!r}"
            )
        self._seq += 1
        line = {
            "type": "workload",
            "seq": self._seq,
            "unit": unit,
            "status": status,
            "record": record,
            "record_digest": content_digest(record),
            "recorded_unix": recorded_unix,
        }
        fsio.append_text(
            self.path, json.dumps(line, sort_keys=True) + "\n", op="journal"
        )
        self.completed[unit] = {"status": status, "record": record}
        self._appended_here += 1
        kill_after = _kill_after()
        if kill_after is not None and self._appended_here == kill_after:
            # The chaos harness's crash window: the record above is
            # durable, nothing else is.  SIGKILL = no cleanup, by design.
            os.kill(os.getpid(), signal.SIGKILL)

    def mark_complete(self, workloads: int, recorded_unix: float) -> None:
        """Append the trailing ``complete`` marker (idempotent)."""
        if self.complete:
            return
        line = {
            "type": "complete",
            "workloads": workloads,
            "recorded_unix": recorded_unix,
        }
        fsio.append_text(
            self.path, json.dumps(line, sort_keys=True) + "\n", op="journal"
        )
        self.complete = True

    # --- introspection ---------------------------------------------------------
    def statuses(self) -> Dict[str, int]:
        """Completed-unit counts by status (``ok``/``failed``)."""
        counts: Dict[str, int] = {status: 0 for status in _UNIT_STATUSES}
        for entry in self.completed.values():
            counts[entry["status"]] += 1
        return counts

    def units(self) -> List[str]:
        """Completed unit ids, journal order."""
        return list(self.completed)
