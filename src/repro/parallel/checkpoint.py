"""Append-only on-disk checkpoint journal for task batches.

A 170k-feature SNP training run is hours of work; if the process dies at
item 169,999 the journal is what separates "restart from where we were"
from "start over". Completed results stream to an append-only file as
``(key, value)`` pickle records, one per task, flushed as they complete;
:func:`repro.parallel.executor.run_tasks` replays the journal on resume
and re-executes only the missing keys.

Format (``repro-checkpoint-v1``): a pickled header record followed by
pickled ``(key, value)`` tuples. Append-only writing means a crash can at
worst truncate the final record; :meth:`CheckpointJournal.open` replays
the file, keeps every intact record, and truncates the torn tail before
appending, so a journal survives arbitrarily-timed kills. Duplicate keys
resolve last-write-wins (re-running an item overwrites its entry).

Keys must be picklable and hashable; the engine keys feature work by
``(feature_id, slot, seed)`` (:func:`repro.core.engine.feature_task_key`),
which pins the RNG stream and therefore the result — equal keys imply
bit-identical values, the idempotence resume relies on. Values are
arbitrary picklables (the engine journals ``(FeatureModel, TaskCost)``
pairs, or ``None`` for under-observed features).

Security note: like :mod:`repro.persistence`, loading executes pickle;
only resume from journals you wrote.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Any

from repro.utils.exceptions import ReproError

FORMAT = "repro-checkpoint-v1"

#: Header sentinel key; cannot collide with task keys because task keys are
#: supplied per-record after it.
_HEADER_KEY = "__repro_checkpoint__"


class CheckpointError(ReproError):
    """Raised when a journal cannot be read or written safely."""


class CheckpointJournal:
    """An append-only journal of completed task results.

    Usable as a context manager; opening is lazy, so a journal object can
    be handed to :func:`repro.parallel.executor.run_tasks` unopened.

    Attributes
    ----------
    preloaded:
        Number of entries replayed from disk when the journal was opened
        (0 for a fresh journal).
    appended:
        Number of entries written through this object so far.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._fh: Any = None
        self._entries: "dict[Any, Any] | None" = None
        self.preloaded = 0
        self.appended = 0

    # -- lifecycle ---------------------------------------------------------
    def open(self) -> "CheckpointJournal":
        """Replay existing records, drop any torn tail, position for append."""
        if self._fh is not None:
            return self
        exists = self.path.exists()
        entries, valid_bytes = self._replay() if exists else ({}, 0)
        self._fh = self.path.open("r+b" if exists else "wb")
        self._fh.truncate(valid_bytes)
        self._fh.seek(valid_bytes)
        if valid_bytes == 0:
            pickle.dump((_HEADER_KEY, FORMAT), self._fh, protocol=pickle.HIGHEST_PROTOCOL)
            self._fh.flush()
        self._entries = entries
        self.preloaded = len(entries)
        return self

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CheckpointJournal":
        return self.open()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- reading -----------------------------------------------------------
    def entries(self) -> dict:
        """Key -> journaled value for every completed item on record."""
        self.open()
        return dict(self._entries or {})

    def __contains__(self, key: Any) -> bool:
        self.open()
        return key in (self._entries or {})

    def __len__(self) -> int:
        self.open()
        return len(self._entries or {})

    def _replay(self) -> "tuple[dict, int]":
        """Read every intact record; return (entries, valid byte length)."""
        entries: dict[Any, Any] = {}
        valid = 0
        with self.path.open("rb") as fh:
            try:
                header = pickle.load(fh)
            except EOFError:
                return {}, 0  # empty file: treat as fresh
            except Exception as exc:
                raise CheckpointError(
                    f"{self.path} is not a checkpoint journal: {exc}"
                ) from exc
            if (
                not isinstance(header, tuple)
                or len(header) != 2
                or header[0] != _HEADER_KEY
            ):
                raise CheckpointError(
                    f"{self.path} is not a checkpoint journal (missing header)"
                )
            if header[1] != FORMAT:
                raise CheckpointError(
                    f"{self.path}: unsupported journal format {header[1]!r} "
                    f"(expected {FORMAT!r})"
                )
            valid = fh.tell()
            while True:
                try:
                    record = pickle.load(fh)
                except EOFError:
                    break
                except Exception:
                    # A kill mid-append leaves a torn final record; everything
                    # before it is intact and kept. open() truncates the tail.
                    break
                if not isinstance(record, tuple) or len(record) != 2:
                    break
                key, value = record
                entries[key] = value
                valid = fh.tell()
        return entries, valid

    # -- writing -----------------------------------------------------------
    def append(self, key: Any, value: Any) -> None:
        """Durably record one completed item (flushed immediately)."""
        self.open()
        try:
            pickle.dump((key, value), self._fh, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise CheckpointError(
                f"cannot journal result for key {key!r}: {exc}"
            ) from exc
        self._fh.flush()
        self._entries[key] = value
        self.appended += 1
