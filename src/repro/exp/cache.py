"""On-disk content-addressed cache of experiment results.

A cache entry is one :class:`~repro.core.registry.ExperimentResult` in
its canonical JSON form, stored under ``.repro-cache/`` in a file named
``<exp_id>-<key>.json`` where ``key`` is the SHA-256 of the full cache
key:

* the experiment id;
* the quick/full flag;
* the installed ``repro.__version__``;
* a source digest of the experiment's functions (the registered body
  plus, for cell-decomposed sweeps, the cell-plan functions);
* the process-wide fault-injection spec, when one is active (clean runs
  keep their historical keys);
* the flow-acceleration mode, when set to ``auto``/``on`` (``off`` and
  unset are both exact packet mode and share the clean key).

Any of those changing — editing an experiment, bumping the package
version, flipping quick to full — changes the key, so stale entries are
simply never looked up again.  A corrupted or truncated entry fails the
JSON round-trip and is treated as a miss (and deleted best-effort),
never as an error: the cache can be blown away or half-written at any
time and the engine just recomputes.

Because canonical serialization is deterministic, a cache hit returns
byte-for-byte the same JSON a cold run would produce — the
determinism tests pin this.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import json
import os
import re
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..core import registry
from ..core.registry import ExperimentResult

__all__ = ["DEFAULT_CACHE_DIR", "ResultCache", "CellCache", "source_digest"]

DEFAULT_CACHE_DIR = ".repro-cache"

#: Per-process sequence for temp-file names: two *threads* of one
#: process writing the same entry concurrently must not share a temp
#: path (two processes are already distinguished by pid).
_TMP_SEQ = itertools.count()

#: Cell-cache keys become file names; only a bare SHA-256 hex digest
#: is ever a valid key.
_KEY_RE = re.compile(r"\A[0-9a-f]{64}\Z")   # \Z: "$" would admit "...\n"


def _function_source(fn) -> str:
    try:
        return inspect.getsource(fn)
    except (OSError, TypeError):        # builtins, C funcs, lost source
        return repr(fn)


#: Digest memo keyed by exp_id, holding the exact registered objects
#: it was computed from.  Within one process an experiment's source
#: cannot change without re-registering (a new runner/plan object), so
#: identity checks make invalidation exact — and a warm worker stops
#: paying ``inspect.getsource`` file I/O for every cell of a sweep.
_DIGEST_MEMO: Dict[str, Tuple[Any, Any, str]] = {}


def source_digest(exp_id: str) -> str:
    """SHA-256 over the source of everything ``exp_id`` executes
    directly: its registered body and, if it is a cell-decomposed
    sweep, the cell plan's parameter and row functions.  Memoized per
    registered (runner, plan) pair — cache keys are computed once per
    cell per worker, and the sources cannot change under a live
    registration."""
    runner = registry.EXPERIMENTS[exp_id]
    plan = registry.CELL_PLANS.get(exp_id)
    memo = _DIGEST_MEMO.get(exp_id)
    if memo is not None and memo[0] is runner and memo[1] is plan:
        return memo[2]
    parts = [_function_source(getattr(runner, "raw_fn", runner))]
    if plan is not None:
        parts.append(_function_source(plan.params_of))
        parts.append(_function_source(plan.run_cell))
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    _DIGEST_MEMO[exp_id] = (runner, plan, digest)
    return digest


def _package_version() -> str:
    import repro
    return repro.__version__


def _active_specs() -> Tuple[Optional[str], Optional[str]]:
    """The process-wide ``(fault spec, flow mode)`` in force."""
    from ..faults.context import get_active_spec
    from ..flow.context import get_flow_mode
    return get_active_spec(), get_flow_mode()


def _key(fields: Dict[str, Any], faults: Optional[str],
         flow: Optional[str]) -> str:
    """SHA-256 key shared by both caches: ``fields`` plus the package
    version and source digest, folded with the fault spec and flow mode.

    A fault spec changes what experiments measure, so it joins the key
    — but only when one is set: clean keys (and every pre-existing
    cache entry) are untouched.  Same for flow acceleration: ``auto``/
    ``on`` produce shape-identical but not byte-identical numbers, so
    they get their own keys, while ``off`` (and unset) IS packet mode
    and shares the clean key.
    """
    payload = dict(fields, version=_package_version(),
                   digest=source_digest(fields["exp_id"]))
    if faults:
        payload["faults"] = faults
    if flow and flow != "off":
        payload["flow"] = flow
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


class ResultCache:
    """Content-addressed experiment result cache rooted at ``root``."""

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    # -- keys -----------------------------------------------------------
    def key(self, exp_id: str, quick: bool) -> str:
        return _key({"exp_id": exp_id, "quick": bool(quick)},
                    *_active_specs())

    def path(self, exp_id: str, quick: bool) -> Path:
        return self.root / f"{exp_id}-{self.key(exp_id, quick)[:16]}.json"

    # -- load/save ------------------------------------------------------
    def load(self, exp_id: str, quick: bool) -> Optional[ExperimentResult]:
        """The cached result, or ``None`` on miss/corruption."""
        path = self.path(exp_id, quick)
        try:
            result = ExperimentResult.from_json(path.read_text())
            if result.exp_id != exp_id:
                raise ValueError("cache entry names a different experiment")
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # corrupted/truncated entry: drop it and recompute
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return result

    def save(self, exp_id: str, quick: bool,
             result: ExperimentResult) -> Path:
        """Atomically persist ``result`` (write temp file, rename).

        Concurrent writers are safe: each writes a private temp file
        (pid + per-process sequence) and the final ``rename`` is atomic
        on POSIX, so readers only ever see a complete entry — the last
        rename wins, and for a content-addressed key every writer's
        bytes are identical anyway.
        """
        path = self.path(exp_id, quick)
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{next(_TMP_SEQ)}")
        tmp.write_text(result.to_json())
        tmp.replace(path)
        return path

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for entry in self.root.glob("*.json"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


class CellCache:
    """Content-addressed cache of individual *task* payloads.

    Where :class:`ResultCache` holds whole assembled
    :class:`ExperimentResult` objects, this one holds the unit the
    distributed backends trade in: one :class:`~repro.exp.planner.Task`
    payload (a sweep row, or a whole-experiment result JSON for
    plan-less experiments).  It lives under ``<root>/cells/`` next to
    the experiment-level entries and shares the same key ingredients —
    experiment id, cell index, quick/full, package version, source
    digest, active fault spec and flow mode — so the two caches
    invalidate together.

    This is the socket coordinator's cache: it looks up every task
    (:meth:`key_for`) before leasing anything, serves hits without a
    worker, and saves each payload a worker computes when its RESULT
    arrives — so a row any worker computed is a hit for every later
    sweep.  Workers never query it over the wire.

    The concurrency story is the same as :meth:`ResultCache.save`:
    private temp file, atomic rename, corrupted/torn entries read as a
    miss and are deleted best-effort.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR):
        self.root = Path(root) / "cells"
        self.hits = 0
        self.misses = 0

    # -- keys -----------------------------------------------------------
    def key(self, exp_id: str, quick: bool, index: Optional[int]) -> str:
        """The key under the process-wide fault spec and flow mode."""
        return _key({"exp_id": exp_id, "quick": bool(quick),
                     "index": index}, *_active_specs())

    def key_for(self, task: Tuple[str, Optional[int]], ctx) -> str:
        """The key of ``task`` under a run context's own ``quick``,
        ``faults_spec`` and ``flow_mode`` — no ambient state, so a
        coordinator can look up any sweep's cells without activating
        its specs first."""
        exp_id, index = task
        return _key({"exp_id": exp_id, "quick": bool(ctx.quick),
                     "index": index}, ctx.faults_spec, ctx.flow_mode)

    def path_of(self, key: str) -> Path:
        if not _KEY_RE.match(key):
            raise ValueError(f"malformed cell-cache key {key!r}")
        return self.root / f"{key}.json"

    # -- load/save ------------------------------------------------------
    def load(self, key: str) -> Optional[Any]:
        """The cached payload, or ``None`` on miss/corruption."""
        try:
            path = self.path_of(key)
        except ValueError:
            self.misses += 1
            return None
        try:
            entry = json.loads(path.read_text())
            payload = entry["payload"]
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # torn/corrupted entry (e.g. a crash mid-write before the
            # atomic rename semantics existed): drop it and recompute
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def save(self, key: str, payload: Any) -> Path:
        """Atomically persist ``payload`` under ``key``."""
        path = self.path_of(key)
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{next(_TMP_SEQ)}")
        tmp.write_text(json.dumps({"key": key, "payload": payload},
                                  sort_keys=True, separators=(",", ":")))
        tmp.replace(path)
        return path

    def clear(self) -> int:
        """Delete every cell entry; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for entry in self.root.glob("*.json"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
