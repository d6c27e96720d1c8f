"""Completion queues and memory regions."""

from __future__ import annotations

from typing import List

from ..sim import Simulator, Store
from .ops import WorkCompletion

__all__ = ["CompletionQueue", "MemoryRegion", "ProtectionDomain"]


class CompletionQueue:
    """Queue of :class:`WorkCompletion`; supports blocking and polling."""

    def __init__(self, sim: Simulator, name: str = "cq"):
        self.sim = sim
        self.name = name
        self._store: Store = Store(sim)
        self.completions_seen = 0

    def push(self, wc: WorkCompletion) -> None:
        self.completions_seen += 1
        self._store.put_nowait(wc)

    def wait(self):
        """Event yielding the next completion (blocking poll)."""
        return self._store.get()

    def poll(self, max_entries: int = 16) -> List[WorkCompletion]:
        """Non-blocking poll: drain up to ``max_entries`` completions."""
        out: List[WorkCompletion] = []
        while self._store.items and len(out) < max_entries:
            out.append(self._store.items.popleft())
        return out

    def __len__(self) -> int:
        return len(self._store)


class ProtectionDomain:
    """Groups MRs and QPs (bookkeeping only, as in a single-tenant app)."""

    def __init__(self, name: str = "pd"):
        self.name = name
        self.regions: List["MemoryRegion"] = []


class MemoryRegion:
    """A registered buffer.  The simulator does not move real bytes, but
    RDMA operations validate against MR bounds as a real HCA would."""

    _next_key = 1

    def __init__(self, pd: ProtectionDomain, length: int):
        if length <= 0:
            raise ValueError("MR length must be positive")
        self.pd = pd
        self.length = length
        self.lkey = MemoryRegion._next_key
        self.rkey = MemoryRegion._next_key
        MemoryRegion._next_key += 1
        pd.regions.append(self)

    def check(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.length:
            raise ValueError(
                f"access [{offset}, {offset+nbytes}) outside MR of "
                f"{self.length} bytes")
