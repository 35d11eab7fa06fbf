"""Sharded, append-only, crash-safe simulation result store.

The store keeps one JSONL shard per benchmark under a root directory
(``results/simcache/`` by default).  Records are only ever *appended*:
a flush writes the pending records for each shard in a single
``write()`` call, so a crash can at worst truncate the final line of a
shard — which the tolerant loader simply skips.  This replaces the old
single-file cache whose full rewrite on every miss was O(total entries)
per simulation and whose truncation made every later run crash at load.

Durability rules:

* **Appends are batched.** ``put()`` stages a record; once
  ``flush_every`` records are pending (default 1: flush per record) they
  are grouped by shard and appended, one ``write()`` per shard.
* **Records are content-addressed.** Every record carries a sha256
  digest of its payload's canonical JSON form; the loader verifies it
  and treats a mismatch like any other corrupt line (``digest_mismatches``
  stat, quarantine, recompute as a miss) — a payload silently altered on
  disk can never poison downstream experiments.  Records written before
  digests existed load unverified.
* **Loads are tolerant.** A shard line that fails to parse is counted
  and skipped.  A shard containing any bad line is *quarantined*: the
  original file moves to ``<root>/quarantine/`` and the salvaged records
  are rewritten atomically (tmp + rename), so the corruption never
  crashes a run and never survives to the next load.
* **Appends are durable and failure-tolerant.**  Writes go through
  :mod:`repro.fsio` (flush + fsync, ``REPRO_NO_FSYNC=1`` to skip), and a
  failed append — ``ENOSPC``, a partial write, a paused disk guard —
  keeps the records *pending* instead of raising: computation continues
  from memory and the next flush (e.g. after space recovers) retries.
  A shard whose append failed mid-line gets a newline guard first, so a
  torn record can never concatenate with the next one.

Telemetry (hits, misses, flushes, corrupt lines, quarantined shards) is
exposed through :meth:`ResultStore.stats` and logged by the experiment
CLI.
"""

from __future__ import annotations

import json
import os
import re
import warnings
from typing import Dict, Iterator, List, Optional, Tuple

from repro import fsio
from repro.obs.metrics import CounterBag, get_registry
from repro.obs.tracing import get_tracer
from repro.resilience import get_disk_guard
from repro.verify.digest import content_digest

__all__ = ["ResultStore", "sibling_dir"]

QUARANTINE_DIR = "quarantine"

_SHARD_SANITIZER = re.compile(r"[^A-Za-z0-9._-]+")


def sibling_dir(store_root: Optional[str], name: str) -> Optional[str]:
    """``<store parent>/<name>``: where the failure manifest
    (``failures``) lives beside a result store.  A memory-only store (no
    root) has no siblings."""
    if not store_root:
        return None
    return os.path.join(os.path.dirname(store_root) or ".", name)


def _shard_filename(shard: str) -> str:
    name = _SHARD_SANITIZER.sub("_", shard) or "misc"
    return f"{name}.jsonl"


def _record_line(key: str, payload: dict) -> str:
    """One shard record: key, payload and a sha256 content digest.

    The digest covers the payload's canonical JSON form; the loader
    verifies it, so a payload silently altered on disk (bit rot, a
    partial overwrite that still parses, a hand edit) degrades to a
    recomputed miss instead of poisoning every later experiment that
    trusts the cache.
    """
    return (
        json.dumps(
            {"key": key, "payload": payload, "digest": content_digest(payload)}
        )
        + "\n"
    )


class ResultStore:
    """Keyed result records, persisted as one append-only shard per benchmark.

    ``root=None`` keeps the store memory-only (no I/O at all).  Records
    are plain JSON-serializable dicts; keys are opaque strings built by
    :mod:`repro.analysis.runner`.
    """

    def __init__(
        self,
        root: Optional[str],
        flush_every: int = 1,
    ) -> None:
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.root = root
        self.flush_every = flush_every
        self._entries: Dict[str, dict] = {}
        self._pending: List[Tuple[str, str, dict]] = []  # (shard, key, payload)
        # Per-store telemetry on the shared stat-bag primitive; the
        # process-wide registry additionally mirrors hit/miss totals
        # while observability is recording (see ``get``).
        self._stats = CounterBag({
            "entries": 0,
            "hits": 0,
            "misses": 0,
            "puts": 0,
            "flushes": 0,
            "appended_records": 0,
            "shards_loaded": 0,
            "corrupt_lines": 0,
            "digest_mismatches": 0,
            "schema_mismatches": 0,
            "quarantined_shards": 0,
            "skipped_flushes": 0,
            "write_errors": 0,
        })
        # Shards whose last append failed mid-write: the file may end
        # with a torn line, so the next successful append leads with a
        # newline (blank lines are skipped by the loader).
        self._dirty_shards: set = set()
        self._warned_write_failure = False
        if self.root:
            self._load_shards()
        self._stats["entries"] = len(self._entries)

    # --- lookups ---------------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        """Return the payload for ``key`` (counting a hit) or ``None``."""
        payload = self._entries.get(key)
        if payload is None:
            self._stats["misses"] += 1
        else:
            self._stats["hits"] += 1
        if get_tracer().enabled:
            get_registry().inc(
                "cache.misses" if payload is None else "cache.hits"
            )
        return payload

    def contains(self, key: str) -> bool:
        """Membership test that does not touch the hit/miss telemetry."""
        return key in self._entries

    @property
    def pending(self) -> int:
        """Records staged but not yet durably appended to a shard.

        Zero after a successful :meth:`flush`; the graceful-drain path
        asserts on it before exiting so "completed results flushed"
        is checked, not assumed.
        """
        return len(self._pending)

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> Iterator[str]:
        return iter(self._entries)

    def items(self) -> Iterator[Tuple[str, dict]]:
        return iter(self._entries.items())

    # --- writes ----------------------------------------------------------------
    def put(self, key: str, payload: dict, shard: str = "misc") -> None:
        """Stage one record; flushes once ``flush_every`` records pend."""
        self._entries[key] = payload
        self._stats["puts"] += 1
        self._stats["entries"] = len(self._entries)
        if not self.root:
            return
        self._pending.append((shard, key, payload))
        if len(self._pending) >= self.flush_every:
            self.flush()

    def flush(self) -> int:
        """Append all pending records to their shards; returns the count.

        Records for one shard go out in a single ``write()``, so a crash
        mid-flush can only truncate the last line of one shard — which
        the tolerant loader skips on the next run.

        A failed append (``ENOSPC``, partial write) or a low-disk verdict
        from the guard keeps the affected records *pending*: in-memory
        results stay queryable and the next flush retries, so transient
        pressure costs durability only until space recovers.
        """
        tracer = get_tracer()
        with tracer.span("cache.flush", cat="cache"):
            if not self._pending or not self.root:
                self._pending.clear()
                return 0
            if not get_disk_guard().ok(self.root):
                # Low disk: keep computing from memory, skip persistence.
                self._stats["skipped_flushes"] += 1
                return 0
            os.makedirs(self.root, exist_ok=True)
            by_shard: Dict[str, List[Tuple[str, str, dict]]] = {}
            for record in self._pending:
                by_shard.setdefault(record[0], []).append(record)
            written = 0
            remaining: List[Tuple[str, str, dict]] = []
            for shard, records in sorted(by_shard.items()):
                path = os.path.join(self.root, _shard_filename(shard))
                text = "".join(
                    _record_line(key, payload) for _, key, payload in records
                )
                if shard in self._dirty_shards:
                    # The previous append may have torn its last line; a
                    # leading newline isolates the fragment as one corrupt
                    # line instead of letting it corrupt this record too.
                    text = "\n" + text
                try:
                    fsio.append_text(path, text, op="store")
                except OSError as error:
                    self._dirty_shards.add(shard)
                    self._stats["write_errors"] += 1
                    remaining.extend(records)
                    get_disk_guard().note_failure(self.root)
                    if not self._warned_write_failure:
                        self._warned_write_failure = True
                        warnings.warn(
                            f"simcache: append to shard {path} failed "
                            f"({error}); keeping records pending and "
                            "continuing from memory"
                        )
                else:
                    self._dirty_shards.discard(shard)
                    written += len(records)
            self._pending = remaining
            if written:
                self._stats["flushes"] += 1
                self._stats["appended_records"] += written
        if tracer.enabled:
            get_registry().inc("cache.flushed_records", written)
        return written

    def clear(self) -> None:
        """Drop every record, in memory and on disk."""
        self._entries.clear()
        self._pending.clear()
        self._stats["entries"] = 0
        if not self.root or not os.path.isdir(self.root):
            return
        for fname in os.listdir(self.root):
            if fname.endswith(".jsonl"):
                os.remove(os.path.join(self.root, fname))

    # --- telemetry -------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """A snapshot of the store's counters (see module docstring)."""
        return self._stats.as_dict()

    def record_schema_mismatch(self, key: str = "") -> None:
        """Count a cached payload whose schema drifted from the current
        record type; the caller treats the entry as a miss and recomputes."""
        self._stats["schema_mismatches"] += 1
        if key:
            warnings.warn(
                f"simcache: cached payload for {key} no longer matches the "
                "current result schema; recomputing"
            )

    # --- loading ---------------------------------------------------------------
    def _load_shards(self) -> None:
        if not os.path.isdir(self.root):
            return
        for fname in sorted(os.listdir(self.root)):
            if not fname.endswith(".jsonl"):
                continue
            self._load_one_shard(os.path.join(self.root, fname))

    def _load_one_shard(self, path: str) -> None:
        with get_tracer().span(
            "cache.load_shard", cat="cache", shard=os.path.basename(path)
        ):
            try:
                with open(path) as fh:
                    raw_lines = fh.readlines()
            except OSError as error:
                warnings.warn(f"simcache: cannot read shard {path}: {error}")
                return
            good: List[Tuple[str, dict]] = []
            bad = 0
            digest_bad = 0
            for line in raw_lines:
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    key, payload = record["key"], record["payload"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    bad += 1
                    continue
                if not isinstance(key, str) or not isinstance(payload, dict):
                    bad += 1
                    continue
                # Records written before content digests existed carry none;
                # they load unverified (re-written on quarantine with one).
                digest = record.get("digest")
                if digest is not None and digest != content_digest(payload):
                    digest_bad += 1
                    continue
                good.append((key, payload))
            for key, payload in good:
                self._entries[key] = payload
            self._stats["shards_loaded"] += 1
            if get_tracer().enabled:
                get_registry().inc("cache.shards_loaded")
            if digest_bad:
                self._stats["digest_mismatches"] += digest_bad
            if bad:
                self._stats["corrupt_lines"] += bad
            if bad or digest_bad:
                self._quarantine(path, good)

    def _quarantine(self, path: str, salvaged: List[Tuple[str, dict]]) -> None:
        """Move a corrupt shard aside and rewrite only its salvaged records."""
        qdir = os.path.join(self.root, QUARANTINE_DIR)
        os.makedirs(qdir, exist_ok=True)
        base = os.path.basename(path)
        dest = os.path.join(qdir, base)
        suffix = 0
        while os.path.exists(dest):
            suffix += 1
            dest = os.path.join(qdir, f"{base}.{suffix}")
        fsio.replace_file(path, dest)
        if salvaged:
            fsio.atomic_write_text(
                path,
                "".join(_record_line(k, p) for k, p in salvaged),
                op="store",
            )
        self._stats["quarantined_shards"] += 1
        warnings.warn(
            f"simcache: shard {path} had corrupt lines; original moved to "
            f"{dest}, {len(salvaged)} records salvaged"
        )
