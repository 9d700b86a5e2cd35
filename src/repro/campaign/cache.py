"""Persistent, cross-process solver query cache.

The paper's second solver optimisation (§3.3) caches all equivalence queries;
:class:`repro.solver.equivalence.QueryCache` implements it in memory, scoped
to one :class:`EquivalenceChecker` — i.e. one transfer.  A campaign runs many
transfers, and the same donor checks are rewritten against overlapping
recipient vocabularies over and over (three PNG recipients share the same
three donors, for example), so at campaign scale the cache must outlive both
the checker and the worker process.

:class:`PersistentSolverCache` is that extension: an append-only JSONL file
mapping a canonical query key to the serialised verdict payload.  Properties:

* **append-only** — entries are one JSON object per line, each written by a
  single ``write`` on an ``O_APPEND`` descriptor under an advisory ``flock``,
  so concurrent campaign workers never interleave bytes;
* **incrementally shared** — a reader that misses re-checks the file for
  lines appended by sibling processes since its last load before declaring
  the miss, so workers running in parallel benefit from each other;
* **crash-safe** — a torn trailing line (a writer killed mid-append) is left
  unread by readers and sealed off with a newline by the next writer that
  holds the lock, so it can never merge with a later entry; duplicate keys
  are idempotent (last wins, verdicts are deterministic for a given key).

The cache is deliberately solver-agnostic: it stores opaque JSON payloads
keyed by strings, and :mod:`repro.solver.equivalence` owns the
(de)serialisation and the key namespaces.  Two key kinds share the file
(since ``CACHE_SCHEMA_VERSION`` 3): equivalence verdicts under the sorted
digest-pair of :func:`query_key`, and satisfiability verdicts under a
``##sat##``-tagged single digest.  Namespaces fold in the schema version
and every verdict-affecting option; proved verdicts live in a
backend-neutral namespace shared by all solver backends, while
budget-limited verdicts are quarantined under a backend-qualified one
(see ``docs/SOLVER.md``).  Keys are built from the
structural *digests* of the *simplified* query pair
(:attr:`repro.symbolic.expr.Expr.digest`): content hashes computed bottom-up
over the hash-consed expression DAG.  Digests are deterministic across
processes and runs (interning order and object ids are not), injective
modulo SHA-1 collisions — unlike the paper-notation rendering, which omits
e.g. ``Constant`` widths and would let distinct queries collide on one
cached verdict — and constant-length, so cache lines stay small even for
checks whose ``repr`` runs to hundreds of kilobytes.  They are also O(1) to
obtain for any node the process has already digested, where the previous
``repr``-derived keys re-rendered the whole tree on every query.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

try:  # pragma: no cover - always available on the Linux CI substrate
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from ..obs import metrics as obs_metrics
from ..symbolic.expr import Expr


def query_key(left: Expr, right: Expr) -> str:
    """Canonical, order-insensitive key for an equivalence query pair.

    The in-memory cache probes ``(left, right)`` then ``(right, left)``; the
    persistent key gets the same symmetry by sorting the two digests.
    """
    first, second = sorted((left.digest, right.digest))
    return f"{first}||{second}"


class PersistentSolverCache:
    """Append-only JSONL store of solver verdicts shared across processes."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._entries: dict[str, dict] = {}
        self._offset = 0
        self.refresh()

    # -- reading ---------------------------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """Look up a verdict payload, picking up sibling writers' appends."""
        payload = self._entries.get(key)
        if payload is not None:
            return payload
        if self._file_grew():
            self.refresh()
            return self._entries.get(key)
        return None

    def refresh(self) -> None:
        """Load any complete lines appended since the last load."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self._offset)
                data = handle.read()
        except FileNotFoundError:
            return
        end = data.rfind(b"\n")
        if end < 0:
            return  # nothing new, or a torn line still being written
        for line in data[: end + 1].splitlines():
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write from a crashed process; skip the line
            key = entry.get("k")
            payload = entry.get("v")
            if isinstance(key, str) and isinstance(payload, dict):
                self._entries[key] = payload
        self._offset += end + 1

    def _file_grew(self) -> bool:
        try:
            return self.path.stat().st_size > self._offset
        except FileNotFoundError:
            return False

    # -- writing ---------------------------------------------------------------------

    def put(self, key: str, payload: dict) -> None:
        """Record a verdict; no-op if this process already holds the key."""
        if key in self._entries:
            return
        self._entries[key] = payload
        line = json.dumps({"k": key, "v": payload}, separators=(",", ":"))
        record = (line + "\n").encode("utf-8")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
                # Heal a torn trailing line left by a crashed writer: close it
                # with a newline so this entry starts a fresh line instead of
                # merging with (and corrupting) the partial one.  Only under
                # the lock: unlocked, the last byte may belong to a sibling's
                # append still in flight, and "healing" it leaves a blank line.
                size = os.fstat(fd).st_size
                if size and os.pread(fd, 1, size - 1) != b"\n":
                    record = b"\n" + record
            # One write on an O_APPEND descriptor: the kernel places the whole
            # record at the end of the file, so unlocked writers never
            # interleave bytes either.
            written = os.write(fd, record)
            while written < len(record):  # short write (disk full, signal)
                written += os.write(fd, record[written:])
        finally:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    # -- introspection ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries


# -- partitioned key-space ---------------------------------------------------------------


class ShardedSolverCache:
    """A partitioned verdict key-space: one JSONL shard per ring partition.

    Distributed campaigns split the cache into ``partitions`` shard files
    (``shard-XXX-of-YYY.jsonl``) under one directory; a key's home shard
    is fixed by consistent hashing over partition labels
    (:func:`repro.dist.ring.shard_of`), so every node finds the lines
    every other node writes.  Each shard file is a plain
    :class:`PersistentSolverCache` — same locking, healing, and
    incremental-sharing rules.

    Locality: a node opens the space with its own ring partition as
    ``local_partition``.  A process-wide *overlay* dict caches every key
    this process has seen regardless of home shard, so a warm node mostly
    answers from memory; only overlay misses touch shard files, and a
    touch on a non-local shard is counted as a **hop**
    (``dist.cache_hops``) in the metrics registry, alongside
    ``dist.cache_local_hits`` / ``dist.cache_remote_hits`` /
    ``dist.cache_misses``.
    """

    def __init__(
        self,
        directory: str | Path,
        partitions: int,
        local_partition: Optional[int] = None,
    ) -> None:
        if partitions < 1:
            raise ValueError("partitions must be >= 1")
        self.directory = Path(directory)
        self.partitions = partitions
        self.local_partition = local_partition
        self._shards: dict[int, PersistentSolverCache] = {}
        self._overlay: dict[str, dict] = {}

    def shard_index(self, key: str) -> int:
        """The home partition of ``key`` (stable across nodes and runs)."""
        from ..dist.ring import shard_of  # lazy: campaign <-> dist layering

        return shard_of(key, self.partitions)

    def shard_path(self, index: int) -> Path:
        return self.directory / (
            f"shard-{index:03d}-of-{self.partitions:03d}.jsonl"
        )

    def _shard(self, index: int) -> PersistentSolverCache:
        shard = self._shards.get(index)
        if shard is None:
            shard = PersistentSolverCache(self.shard_path(index))
            self._shards[index] = shard
        return shard

    def _count_touch(self, index: int) -> None:
        if self.local_partition is not None and index != self.local_partition:
            obs_metrics.inc("dist.cache_hops")

    def get(self, key: str) -> Optional[dict]:
        payload = self._overlay.get(key)
        if payload is not None:
            obs_metrics.inc("dist.cache_local_hits")
            return payload
        index = self.shard_index(key)
        self._count_touch(index)
        payload = self._shard(index).get(key)
        if payload is not None:
            self._overlay[key] = payload
            if self.local_partition is None or index == self.local_partition:
                obs_metrics.inc("dist.cache_local_hits")
            else:
                obs_metrics.inc("dist.cache_remote_hits")
        else:
            obs_metrics.inc("dist.cache_misses")
        return payload

    def put(self, key: str, payload: dict) -> None:
        if key in self._overlay:
            return
        self._overlay[key] = payload
        index = self.shard_index(key)
        self._count_touch(index)
        self._shard(index).put(key, payload)

    def refresh(self) -> None:
        for shard in self._shards.values():
            shard.refresh()

    def __len__(self) -> int:
        keys = set(self._overlay)
        for shard in self._shards.values():
            keys.update(shard._entries)
        return len(keys)

    def __contains__(self, key: str) -> bool:
        # Metric-free: membership probes must not skew hop accounting.
        if key in self._overlay:
            return True
        return key in self._shard(self.shard_index(key))


#: Spec separator for sharded cache paths: ``<dir>::shards=<P>::local=<k>``.
_SPEC_SEP = "::"

#: Sharded spaces memoized per spec so a long-lived node keeps one warm
#: overlay across every job it executes.  Plain paths are not memoized, and
#: reopening one is not cheap: a fresh flat cache re-reads the whole file
#: (about 7 ms of CPU for the 241 KB a 240-pair matrix ends with, on a
#: 2-vCPU Xeon host).  The campaign scheduler therefore hands each
#: fork-started worker a warm instance instead (:func:`adopt_solver_cache`).
_OPEN_SHARDED: dict[str, ShardedSolverCache] = {}

#: The flat cache this process adopted from its parent, if any.  Set only in
#: a campaign worker process, which runs a single job; every other process
#: (the scheduler, the repair daemon and its threads) opens fresh instances.
_ADOPTED: Optional[PersistentSolverCache] = None


def adopt_solver_cache(cache: Optional[PersistentSolverCache]) -> None:
    """Serve ``cache`` to every :func:`open_solver_cache` of its path.

    A fork-started campaign worker calls this with the instance it inherited
    from the scheduler, which refreshed it just before the fork: the worker
    then reads only what siblings append after that (on a miss), not the
    whole file again.
    """
    global _ADOPTED
    _ADOPTED = cache


def sharded_cache_spec(
    directory: str | Path, partitions: int, local_partition: Optional[int] = None
) -> str:
    """Build the string spec a coordinator hands to a node's runner."""
    spec = f"{directory}{_SPEC_SEP}shards={partitions}"
    if local_partition is not None:
        spec += f"{_SPEC_SEP}local={local_partition}"
    return spec


def open_solver_cache(spec: str | Path):
    """Open a cache from a path-or-spec string.

    A plain path opens the classic single-file
    :class:`PersistentSolverCache`, or returns the instance adopted for
    that path (:func:`adopt_solver_cache`).  A ``::shards=``-tagged spec
    (built by :func:`sharded_cache_spec`) opens a :class:`ShardedSolverCache`,
    memoized per spec so every checker in one node process shares one
    overlay.  Keeping the spec a string keeps it trivially picklable
    through worker process boundaries.
    """
    text = str(spec)
    if _SPEC_SEP not in text:
        if _ADOPTED is not None and _ADOPTED.path == Path(text):
            return _ADOPTED
        return PersistentSolverCache(text)
    cached = _OPEN_SHARDED.get(text)
    if cached is not None:
        return cached
    parts = text.split(_SPEC_SEP)
    directory = parts[0]
    partitions = 1
    local: Optional[int] = None
    for part in parts[1:]:
        name, _, value = part.partition("=")
        if name == "shards":
            partitions = int(value)
        elif name == "local":
            local = int(value)
        else:
            raise ValueError(f"unknown cache spec field {part!r} in {text!r}")
    opened = ShardedSolverCache(directory, partitions, local_partition=local)
    _OPEN_SHARDED[text] = opened
    return opened
