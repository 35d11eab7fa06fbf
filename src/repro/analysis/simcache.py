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
* **A run's terminal failure is a record too.**  ``put(...,
  failed=True)`` stores it under the run's key through the same append,
  digest and quarantine path.  Failure records for one key accumulate
  until a result supersedes them, and a result is superseded by any
  failure record after it.  A shard whose superseded failure records
  outweigh the rest of it is compacted when it is read: rewritten
  atomically without them, like a salvage but with no quarantine copy.
* **Loads are lazy and tolerant.** Opening a store only indexes keys:
  each shard's lines are read and every record line's key is decoded
  from its ``{"key": "`` prefix, nothing more.  A shard is parsed and
  digest-verified on first use — a ``get``/``contains`` of a key the
  index places in it — and every unread shard is read before a
  whole-store answer (``stats``, ``len``, ``keys``, ``items``,
  ``clear``).  The answers equal an eager load's: a ``put`` since open
  beats the on-disk record, and of a key held by several shards the
  later shard in sorted file order wins.  ``counters`` is the one
  telemetry answer that reads nothing (a run's end-of-run summary).  A shard line that fails to
  parse is counted and skipped.  A shard containing any bad line is
  *quarantined* when it is read — at open if some line is not even
  indexable (a torn tail, garbage), else on first use: the original is
  copied to ``<root>/quarantine/`` and the salvaged records are
  rewritten atomically (tmp + rename), so the corruption never crashes
  a run and never survives to the next load.  If that rewrite fails,
  the original stays in place and the salvage is served from memory.
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

import contextlib
import json
import os
import re
import shutil
import sys
import warnings
from json.decoder import scanstring
from typing import Dict, Iterator, List, Optional, Tuple

from repro import fsio
from repro.obs.metrics import CounterBag, get_registry
from repro.obs.tracing import get_tracer
from repro.resilience import get_disk_guard
from repro.verify.digest import content_digest

__all__ = ["ResultStore"]

QUARANTINE_DIR = "quarantine"

_SHARD_SANITIZER = re.compile(r"[^A-Za-z0-9._-]+")

#: How every record line starts (``json.dumps`` of ``{"key": ...}``);
#: the open-time index decodes the key that follows it.
_KEY_PREFIX = '{"key": "'
_FAILURE_FIELD = ', "failure"'

#: The rank of a value ``put`` since open: no shard read later beats it.
_PUT_RANK = 1 << 62


def _shard_filename(shard: str) -> str:
    name = _SHARD_SANITIZER.sub("_", shard) or "misc"
    return f"{name}.jsonl"


def _indexed_keys(lines: List[str]) -> Optional[List[Tuple[str, bool]]]:
    """The key of every record line and whether it is a failure record,
    or ``None`` when a non-blank line is not indexable: it must start
    with the key prefix, end with ``}`` and a newline, and its key must
    decode as a JSON string."""
    keys = []
    for line in lines:
        if line.startswith(_KEY_PREFIX) and line.endswith("}\n"):
            try:
                key, end = scanstring(line, len(_KEY_PREFIX))
            except ValueError:
                return None
            keys.append((key, line.startswith(_FAILURE_FIELD, end)))
        elif line.strip():
            return None
    return keys


def _read_lines(path: str) -> Optional[List[str]]:
    try:
        with open(path) as fh:
            return fh.readlines()
    except OSError as error:
        warnings.warn(f"simcache: cannot read shard {path}: {error}")
        return None


def _record_line(key: str, payload: dict, failed: bool = False) -> str:
    """One shard record: key, payload and a sha256 content digest.

    A result's payload travels under ``"payload"``, a run's terminal
    outcome under ``"failure"``.  The digest covers the payload's
    canonical JSON form; the loader verifies it, so a payload silently
    altered on disk (bit rot, a partial overwrite that still parses, a
    hand edit) degrades to a recomputed miss instead of poisoning every
    later experiment that trusts the cache.
    """
    field = "failure" if failed else "payload"
    return (
        json.dumps(
            {"key": key, field: payload, "digest": content_digest(payload)}
        )
        + "\n"
    )


def _rewrite_shard(path: str, records: List[Tuple[str, dict, bool]]) -> None:
    """Atomically replace shard ``path`` by ``records`` (none: remove it)."""
    if records:
        fsio.atomic_write_text(
            path, "".join(_record_line(*record) for record in records),
            op="store",
        )
    else:
        os.remove(path)


class ResultStore:
    """Keyed result records, persisted as one append-only shard per benchmark.

    ``root=None`` keeps the store memory-only (no I/O at all).  Records
    are plain JSON-serializable dicts; keys are opaque strings built by
    :mod:`repro.analysis.runner`.

    A key holds a result or the run failure records written since its
    last result (``put(..., failed=True)``).  ``get``, ``contains``,
    ``keys``, ``items`` and ``len`` answer results only; :meth:`failures`
    answers a key's failure records.
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
        self._failures: Dict[str, List[dict]] = {}
        # Lazy loading: shards indexed at open but not yet read (by
        # rank, their position in sorted file order), the unread shards
        # each indexed key appears in, the indexed keys whose last line
        # is a failure record, and the rank of the shard (or
        # ``_PUT_RANK``) that supplied each held value while any shard
        # is unread.  All four are empty once every shard is read.
        self._unread: Dict[int, str] = {}
        self._index: Dict[str, Tuple[int, ...]] = {}
        self._indexed_failures: set = set()
        self._rank: Dict[str, int] = {}
        self._pending: List[Tuple[str, str]] = []  # (shard, record line)
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
        # Shard paths that may end with a torn line (an append failed
        # mid-write, or a corrupt shard could not be rewritten), so the
        # next successful append leads with a newline (blank lines are
        # skipped by the loader).
        self._dirty_shards: set = set()
        self._warned_write_failure = False
        if self.root:
            self._index_shards()

    # --- lookups ---------------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        """Return the payload for ``key`` (counting a hit) or ``None``."""
        if key in self._index:
            self._touch(key)
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
        if key in self._index:
            self._touch(key)
        return key in self._entries

    def failures(self, key: str) -> List[dict]:
        """``key``'s failure records since its last result, oldest first."""
        if key in self._index:
            self._touch(key)
        return self._failures.get(key, [])

    @property
    def pending(self) -> int:
        """Records staged but not yet durably appended to a shard.

        Zero after a successful :meth:`flush`; the graceful-drain path
        asserts on it before exiting so "completed results flushed"
        is checked, not assumed.
        """
        return len(self._pending)

    def __len__(self) -> int:
        self._read_all()
        return len(self._entries)

    def keys(self) -> Iterator[str]:
        self._read_all()
        return iter(self._entries)

    def items(self) -> Iterator[Tuple[str, dict]]:
        self._read_all()
        return iter(self._entries.items())

    # --- writes ----------------------------------------------------------------
    def put(
        self, key: str, payload: dict, shard: str = "misc",
        failed: bool = False,
    ) -> None:
        """Stage one record; flushes once ``flush_every`` records pend.

        ``failed`` stages a failure record: it joins ``key``'s earlier
        failure records and supersedes its result, as a result supersedes
        them, in memory now and on every later load.
        """
        if failed:
            if key in self._index:
                self._touch(key)  # the records on disk come first
            self._entries.pop(key, None)
            self._failures.setdefault(key, []).append(payload)
        else:
            self._failures.pop(key, None)
            self._entries[key] = payload
            self._stats["puts"] += 1
        if self._unread:
            self._rank[key] = _PUT_RANK
        if not self.root:
            return
        self._pending.append((shard, _record_line(key, payload, failed)))
        if len(self._pending) >= self.flush_every:
            self.flush()

    @contextlib.contextmanager
    def batch(self) -> Iterator["ResultStore"]:
        """Stage every ``put`` made in the block and append them in one
        flush when it ends, even if the block raises."""
        previous = self.flush_every
        self.flush_every = sys.maxsize
        try:
            yield self
        finally:
            self.flush_every = previous
            if self._pending:
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
            by_shard: Dict[str, List[Tuple[str, str]]] = {}
            for record in self._pending:
                by_shard.setdefault(record[0], []).append(record)
            written = 0
            remaining: List[Tuple[str, str]] = []
            for shard, records in sorted(by_shard.items()):
                path = os.path.join(self.root, _shard_filename(shard))
                text = "".join(line for _, line in records)
                if path in self._dirty_shards:
                    # The previous append may have torn its last line; a
                    # leading newline isolates the fragment as one corrupt
                    # line instead of letting it corrupt this record too.
                    text = "\n" + text
                try:
                    fsio.append_text(path, text, op="store")
                except OSError as error:
                    self._dirty_shards.add(path)
                    remaining.extend(records)
                    self._write_failed(
                        f"simcache: append to shard {path} failed "
                        f"({error}); keeping records pending and "
                        "continuing from memory"
                    )
                else:
                    self._dirty_shards.discard(path)
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
        self._read_all()
        self._entries.clear()
        self._failures.clear()
        self._pending.clear()
        if not self.root or not os.path.isdir(self.root):
            return
        for fname in os.listdir(self.root):
            if fname.endswith(".jsonl"):
                os.remove(os.path.join(self.root, fname))

    # --- telemetry -------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """A snapshot of the store's counters after reading every shard,
        so ``entries`` and the corruption counts cover the whole store."""
        self._read_all()
        return self.counters()

    def counters(self) -> Dict[str, float]:
        """A snapshot of the store's counters without reading a shard:
        the corruption counts cover the shards read so far, and
        ``entries`` counts the results held or indexed."""
        failed = self._indexed_failures
        self._stats["entries"] = len(self._entries) + sum(
            1 for key in self._index
            if key not in self._entries and key not in failed
        )
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

    def _write_failed(self, message: str) -> None:
        """Count a failed write, tell the disk guard, warn once."""
        self._stats["write_errors"] += 1
        get_disk_guard().note_failure(self.root)
        if not self._warned_write_failure:
            self._warned_write_failure = True
            warnings.warn(message)

    # --- loading ---------------------------------------------------------------
    def _index_shards(self) -> None:
        """Index every shard's keys; read only the shards that cannot be
        indexed (they hold a torn or garbage line to quarantine)."""
        if not os.path.isdir(self.root):
            return
        names = sorted(f for f in os.listdir(self.root) if f.endswith(".jsonl"))
        index = self._index
        for rank, fname in enumerate(names):
            path = os.path.join(self.root, fname)
            lines = _read_lines(path)
            if lines is None:
                continue
            keys = _indexed_keys(lines)
            if keys is None:
                self._load_one_shard(path, rank, lines)
                continue
            self._unread[rank] = path
            for key, failed in keys:
                if failed:
                    self._indexed_failures.add(key)
                else:
                    self._indexed_failures.discard(key)
                held = index.get(key)
                if held is None:
                    index[key] = (rank,)
                elif held[-1] != rank:
                    index[key] = held + (rank,)
        self._settle()

    def _touch(self, key: str) -> None:
        """Read every unread shard the index places ``key`` in."""
        for rank in self._index.pop(key):
            path = self._unread.pop(rank, None)
            if path is not None:
                self._load_one_shard(path, rank)
        self._settle()

    def _read_all(self) -> None:
        """Read every shard not yet read, in sorted file order."""
        for rank in sorted(self._unread):
            self._load_one_shard(self._unread.pop(rank), rank)
        self._settle()

    def _settle(self) -> None:
        # With every shard read, no later load can override a value.
        if not self._unread:
            self._index.clear()
            self._indexed_failures.clear()
            self._rank.clear()

    def _load_one_shard(
        self, path: str, rank: int, raw_lines: Optional[List[str]] = None
    ) -> None:
        """Parse, digest-verify and (if corrupt) quarantine one shard.

        ``raw_lines`` is the shard as the open-time index read it; a
        shard read later is re-read, so it includes what this process
        appended since open.  A record only replaces a held value from a
        shard earlier in sorted order (never a ``put`` since open).
        """
        with get_tracer().span(
            "cache.load_shard", cat="cache", shard=os.path.basename(path)
        ):
            if raw_lines is None:
                raw_lines = _read_lines(path)
                if raw_lines is None:
                    return
            good: List[Tuple[str, dict, bool]] = []
            sizes: List[int] = []
            bad = 0
            digest_bad = 0
            for line in raw_lines:
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    key = record["key"]
                    failed = "failure" in record
                    payload = record["failure" if failed else "payload"]
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
                good.append((key, payload, failed))
                sizes.append(len(line))
            entries, failures, ranks = self._entries, self._failures, self._rank
            for key, payload, failed in good:
                if ranks.get(key, -1) > rank:
                    continue
                if failed:
                    entries.pop(key, None)
                    failures.setdefault(key, []).append(payload)
                else:
                    failures.pop(key, None)
                    entries[key] = payload
                ranks[key] = rank
            self._stats["shards_loaded"] += 1
            if get_tracer().enabled:
                get_registry().inc("cache.shards_loaded")
            if digest_bad:
                self._stats["digest_mismatches"] += digest_bad
            if bad:
                self._stats["corrupt_lines"] += bad
            if bad or digest_bad:
                self._quarantine(path, good)
            else:
                self._compact(path, good, sizes, sum(map(len, raw_lines)))

    def _compact(
        self, path: str, records: List[Tuple[str, dict, bool]],
        sizes: List[int], shard_size: int,
    ) -> None:
        """Drop the failure records a later result of their key superseded,
        once they outweigh the rest of the shard.

        ``sizes`` are the records' line lengths and ``shard_size`` the
        whole shard's, as read.  Every result stays, and so does every
        line after its key's last result: a key's streak counts those.  A
        shard that changed since it was read (another process appended)
        is left for a later read.
        """
        superseded = 0
        keep = [True] * len(records)
        has_result = set()
        for i in range(len(records) - 1, -1, -1):
            key, __, failed = records[i]
            if not failed:
                has_result.add(key)
            elif key in has_result:
                keep[i] = False
                superseded += sizes[i]
        if 2 * superseded <= shard_size:
            return
        try:
            if os.path.getsize(path) != shard_size:
                return
            _rewrite_shard(path, [r for r, kept in zip(records, keep) if kept])
        except OSError as error:
            self._write_failed(
                f"simcache: compaction of shard {path} failed ({error}); "
                "left it in place"
            )

    def _quarantine(
        self, path: str, salvaged: List[Tuple[str, dict, bool]]
    ) -> None:
        """Copy a corrupt shard aside, then rewrite only its salvaged records.

        The copy comes first and the rewrite is atomic, so the live shard
        is always the original or the salvage, never absent.  A failed
        copy or rewrite (``ENOSPC``, a partial write) leaves the original
        in place: the salvaged records are served from memory and the
        next open quarantines the shard again.
        """
        qdir = os.path.join(self.root, QUARANTINE_DIR)
        base = os.path.basename(path)
        dest = os.path.join(qdir, base)
        suffix = 0
        while os.path.exists(dest):
            suffix += 1
            dest = os.path.join(qdir, f"{base}.{suffix}")
        try:
            os.makedirs(qdir, exist_ok=True)
            shutil.copyfile(path, dest)
            _rewrite_shard(path, salvaged)
        except OSError as error:
            self._dirty_shards.add(path)
            self._write_failed(
                f"simcache: quarantine of shard {path} failed ({error}); "
                f"left it in place, serving its {len(salvaged)} salvaged "
                "records from memory"
            )
            return
        self._stats["quarantined_shards"] += 1
        warnings.warn(
            f"simcache: shard {path} had corrupt lines; original copied to "
            f"{dest}, {len(salvaged)} records salvaged"
        )
