"""On-disk memoisation of simulation results.

Results are keyed by :meth:`SimJob.key` — a content hash of the full
declarative job spec — so a cached entry is valid exactly as long as
the job it came from is byte-for-byte the same sweep point.

The store is built for crash-resume and many concurrent writer
processes (pool parents, ``repro serve``, ``repro worker`` fleets):

* **Layout** — an entry lives at ``<dir>/<key[:2]>/<key>.pkl``: 256
  shard subdirectories named by the first hex byte of the key (keys are
  sha256 digests, so the fan-out is uniform by construction).  Directory
  scans and per-directory inode pressure stay bounded as the matrix
  grows, and writers of different keys rarely touch the same directory
  inode.  The ``CACHE_LAYOUT`` marker file records the layout version;
  a directory speaking a newer layout is refused.
* **Legacy flat directories** — a pre-sharding directory (entries at
  ``<dir>/<key>.pkl``, no marker) is migrated **in place** on open:
  each root entry moves into its shard with one atomic ``os.replace``
  (a concurrent reader sees it at exactly one of the two paths), then
  the marker is published.  A root entry written later by a straggler
  still running the flat layout is adopted into its shard on first
  touch.  Entry *bytes* never change, so migrated entries keep hitting.
* **Entry format** — ``MAGIC + sha256(payload) + payload`` where the
  payload is the pickled result.  The embedded checksum distinguishes
  "this entry is whole" from "a writer died mid-flight / the disk bit-
  flipped": a half-written or tampered entry can never be served.
  Legacy bare-pickle entries (pre-checksum) still read.
* **Quarantine** — an unreadable entry is renamed to ``*.corrupt``
  (keeping the evidence for post-mortems) and reported as a miss, so
  the job re-executes and the next ``put`` heals the slot.  Silently
  treating corruption as a miss *without* moving the file would re-miss
  the same bytes forever.
* **Atomic, last-wins writes** — ``put`` stages the entry in a
  ``mkstemp`` temp file and ``os.replace``\\ s it over the key, so
  readers never observe a partial entry and two processes putting the
  same key race harmlessly (results are deterministic per key, so both
  writers carry identical bytes).  Temp files orphaned by crashed
  writers are swept on init once they are stale, and by :meth:`clear`.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.runner.job import SimJob

#: Leads every checksummed entry; absence marks a legacy bare pickle.
MAGIC = b"repro-result-cache:v1\n"

_DIGEST_BYTES = 32  # sha256

#: A ``.tmp`` older than this is an orphan of a dead writer, not a
#: write in progress (writes take milliseconds), and is swept on init.
STALE_TMP_SECONDS = 3600.0

#: Bump when the on-disk *directory layout* (not the entry format)
#: changes incompatibly.  Layout 1 is the implicit flat directory;
#: layout 2 is the 256-way key-prefix sharding.
CACHE_LAYOUT_VERSION = 2

#: Marker file naming the layout a cache directory speaks.  Absence
#: means layout 1 (a flat, pre-sharding directory — or an empty one).
LAYOUT_MARKER = "CACHE_LAYOUT"

#: The names of the 256 shard directories.
_SHARDS = frozenset(f"{byte:02x}" for byte in range(256))


def shard_of(key: str) -> str:
    """The shard directory name for job ``key`` (its first hex byte)."""
    return key[:2]


def _publish(path: Path, blob: bytes) -> None:
    """Atomically write ``blob`` at ``path``, last writer wins.

    The blob is staged in a ``mkstemp`` temp file *next to the
    destination* (same directory, therefore the same filesystem —
    ``os.replace`` across filesystems is not atomic) and swapped in.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_entry(path: Path, payload: bytes) -> None:
    """Atomically publish one checksummed entry at ``path``.

    The multi-writer primitive under :meth:`ResultCache.put`: the
    ``MAGIC + sha256 + payload`` blob is swapped in last-wins.
    Concurrent writers of the same key carry identical bytes (results
    are deterministic per key), so the race is harmless whichever
    replace lands last.
    """
    _publish(path, MAGIC + hashlib.sha256(payload).digest() + payload)


def _unlink_if_stale(entry: os.DirEntry[str], cutoff: float) -> None:
    try:
        if entry.stat().st_mtime < cutoff:
            os.unlink(entry.path)
    except OSError:
        pass


class ResultCache:
    """A sharded directory of checksummed pickled results keyed by job hash.

    Safe for many concurrent writer processes: writes are atomic
    last-wins per entry, and migration races are settled by
    ``os.replace`` semantics.  See the module docstring for the layout.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._root = os.fspath(self.directory)
        self.hits = 0
        self.misses = 0
        #: Entries quarantined to ``*.corrupt`` since construction.
        self.quarantined = 0
        self._open()

    # ------------------------------------------------------------------ #
    # Layout
    # ------------------------------------------------------------------ #

    def _entry_path(self, key: str) -> str:
        return os.path.join(self._root, shard_of(key), key + ".pkl")

    def _flat_path(self, key: str) -> str:
        """Where the legacy flat layout kept ``key``'s entry."""
        return os.path.join(self._root, key + ".pkl")

    def path_for(self, job: SimJob) -> Path:
        return Path(self._entry_path(job.key()))

    def _listing(self) -> Tuple[List[os.DirEntry[str]],
                                List[os.DirEntry[str]]]:
        """One pass over the cache: (root-level files, shard files)."""
        root: List[os.DirEntry[str]] = []
        shards: List[str] = []
        with os.scandir(self._root) as entries:
            for entry in entries:
                if entry.name in _SHARDS and entry.is_dir():
                    shards.append(entry.path)
                else:
                    root.append(entry)
        sharded: List[os.DirEntry[str]] = []
        for shard in shards:
            with os.scandir(shard) as entries:
                sharded.extend(entries)
        return root, sharded

    def _open(self) -> None:
        """Sweep stale temps, check the layout and migrate flat entries.

        Re-entrant and multi-process safe: each flat entry moves with
        one atomic ``os.replace`` (losing that race just means another
        opener moved it first), and the marker is published last, so a
        crashed migration re-runs the idempotent walk.  Stale temp files
        are age-gated so a *live* concurrent writer's staging file is
        never yanked out from under its ``os.replace``.
        """
        cutoff = time.time() - STALE_TMP_SECONDS
        root, sharded = self._listing()
        flat: List[str] = []
        marked = False
        for entry in root:
            name = entry.name
            if name.endswith(".pkl"):
                if name[:2] in _SHARDS:
                    flat.append(name[:-len(".pkl")])
            elif name.endswith(".tmp"):
                _unlink_if_stale(entry, cutoff)
            elif name == LAYOUT_MARKER:
                marked = True
        for entry in sharded:
            if entry.name.endswith(".tmp"):
                _unlink_if_stale(entry, cutoff)
        marker = self.directory / LAYOUT_MARKER
        if marked:
            recorded = self._read_marker(marker)
            if recorded != CACHE_LAYOUT_VERSION:
                raise ValueError(
                    f"{self.directory} is a layout-{recorded} cache; this "
                    f"build speaks layout {CACHE_LAYOUT_VERSION} — migrate "
                    f"or point at a fresh directory")
        for key in flat:
            self._adopt(key)
        if not marked:
            _publish(marker, (json.dumps(
                {"cache_layout": CACHE_LAYOUT_VERSION, "shards": 256},
                sort_keys=True) + "\n").encode("utf-8"))

    @staticmethod
    def _read_marker(marker: Path) -> Optional[int]:
        try:
            doc = json.loads(marker.read_text(encoding="utf-8"))
            return doc.get("cache_layout")
        except (OSError, ValueError):
            return None

    def _adopt(self, key: str) -> bool:
        """Move a root-level ``<key>.pkl`` into its shard.

        Returns whether a flat entry was there to move.
        """
        flat = self._flat_path(key)
        if not os.path.exists(flat):
            return False
        os.makedirs(os.path.join(self._root, shard_of(key)), exist_ok=True)
        try:
            os.replace(flat, self._entry_path(key))
        except OSError:
            pass  # a concurrent migrator or writer won the race
        return True

    def _read_adopted(self, key: str, path: str) -> Optional[bytes]:
        """Read ``key``'s entry after adopting a root-level copy.

        A straggler still on the flat layout may have published at the
        root since this cache was opened; ``None`` when there is none.
        """
        if not self._adopt(key):
            return None
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except OSError:
            return None

    def shard_count(self) -> int:
        """How many of the 256 shards currently hold at least one entry."""
        _, sharded = self._listing()
        return len({os.path.dirname(entry.path) for entry in sharded
                    if entry.name.endswith(".pkl")})

    def layout_info(self) -> Dict[str, Any]:
        """Layout counters for status/stats surfaces."""
        return {"layout": CACHE_LAYOUT_VERSION,
                "shards": self.shard_count()}

    # ------------------------------------------------------------------ #
    # Entries
    # ------------------------------------------------------------------ #

    def has(self, job: SimJob) -> bool:
        """Whether an entry exists for ``job`` (existence only — the
        entry may still fail checksum validation on :meth:`get`).
        Touches no counters; used for resume previews."""
        key = job.key()
        return (os.path.exists(self._entry_path(key))
                or os.path.exists(self._flat_path(key)))

    def get(self, job: SimJob) -> Optional[Any]:
        key = job.key()
        path = self._entry_path(key)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            adopted = self._read_adopted(key, path)
            if adopted is None:
                self.misses += 1
                return None
            raw = adopted
        if raw.startswith(MAGIC):
            digest = raw[len(MAGIC):len(MAGIC) + _DIGEST_BYTES]
            payload = raw[len(MAGIC) + _DIGEST_BYTES:]
            if (len(digest) == _DIGEST_BYTES
                    and hashlib.sha256(payload).digest() == digest):
                try:
                    result = pickle.loads(payload)
                except Exception:
                    # Checksum held but the payload no longer unpickles
                    # (class moved/renamed since it was written).
                    self._quarantine(path)
                    self.misses += 1
                    return None
                self.hits += 1
                return result
            self._quarantine(path)
            self.misses += 1
            return None
        # Legacy bare-pickle entry (written before checksums existed).
        try:
            result = pickle.loads(raw)
        except Exception:
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, job: SimJob, result: Any) -> None:
        path = Path(self._entry_path(job.key()))
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        write_entry(path, payload)

    def _quarantine(self, path: str) -> None:
        """Move an unreadable entry aside so the slot can heal.

        Renaming (not deleting) keeps the corrupt bytes inspectable;
        the rename is atomic, so a concurrent reader either still sees
        the corrupt entry (and loses the rename race harmlessly) or a
        clean miss.
        """
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            pass  # another reader quarantined it first, or it vanished
        self.quarantined += 1

    def clear(self) -> None:
        """Drop every entry, plus orphaned temp and quarantined files."""
        root, sharded = self._listing()
        for entry in root + sharded:
            if entry.name.endswith((".pkl", ".tmp", ".corrupt")):
                try:
                    os.unlink(entry.path)
                except OSError:
                    pass
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    def __len__(self) -> int:
        root, sharded = self._listing()
        return sum(1 for entry in root + sharded
                   if entry.name.endswith(".pkl"))
