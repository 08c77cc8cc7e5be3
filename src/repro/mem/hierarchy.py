"""MESI-coherent private cache hierarchy.

Each core owns a private L1I, L1D and an inclusive private L2 (Table II:
8 kB 2-way L1s, 1 MB L2 per core, MESI, 100 ns memory).  The L2s snoop a
shared bus.  One MESI state machine runs per (core, line); the L1/L2 tag
arrays model capacity and give the latency of the level the line is found
in.  Timing is computed transactionally at access time — the returned value
is the cycle at which the access completes.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional

from repro.common.config import CacheConfig, SystemConfig
from repro.common.stats import Stats
from repro.mem.bus import SnoopBus
from repro.mem.cache import TagArray
from repro.obs import events as ev
from repro.obs.bus import EventBus

# MESI states; absence from the state dict means Invalid.
SHARED = 1
EXCLUSIVE = 2
MODIFIED = 3

#: Latency of a cache-to-cache transfer once the bus is granted.
C2C_LATENCY = 30
#: Latency of an invalidation-only (upgrade) transaction once granted.
UPGRADE_LATENCY = 8
#: Instruction addresses live in their own region so program text never
#: aliases workload data in the shared tag space.
INST_SPACE = 1 << 31


class _CorePort:
    """Per-core tag arrays, counters and snoop hook."""

    __slots__ = ("index", "l1i", "l1d", "l2", "states", "stats", "cnt",
                 "l1_latency", "l2_latency", "snoop_hook")

    STAT_KEYS = (
        "l1d_hits", "l1d_misses", "l1d_upgrades", "l2_hits", "l2_misses",
        "l1i_hits", "l1i_misses", "snoop_writebacks",
        "snoop_invalidations", "l2_writebacks")

    def __init__(self, index: int, l1i_cfg: CacheConfig, l1d_cfg: CacheConfig,
                 l2_cfg: CacheConfig, stats: Stats) -> None:
        self.index = index
        self.stats = stats
        stats.declare(*self.STAT_KEYS)
        # The scope's counter dict for the per-access hot path
        # (data_access and inst_fetch run for every load/store/fetch
        # line): every key is declared (zero-initialized) above.
        self.cnt = stats.counters
        self.l1i = TagArray(l1i_cfg, stats.child("l1i"))
        self.l1d = TagArray(l1d_cfg, stats.child("l1d"))
        self.l2 = TagArray(l2_cfg, stats.child("l2"))
        self.states: Dict[int, int] = {}
        self.l1_latency = l1d_cfg.hit_latency
        self.l2_latency = l2_cfg.hit_latency
        #: ``weakref.WeakMethod`` of the ``hook(line)`` that a snoop
        #: invalidation of this hierarchy calls, or None
        #: (:meth:`CoherentMemorySystem.set_snoop_hook`).
        self.snoop_hook: Optional[weakref.WeakMethod] = None

    def snapshot_state(self) -> dict:
        return {
            "l1i": self.l1i.snapshot_state(),
            "l1d": self.l1d.snapshot_state(),
            "l2": self.l2.snapshot_state(),
            "states": [[line, state]
                       for line, state in sorted(self.states.items())],
        }

    def restore_state(self, state: dict) -> None:
        self.l1i.restore_state(state["l1i"])
        self.l1d.restore_state(state["l1d"])
        self.l2.restore_state(state["l2"])
        self.states = {line: mesi for line, mesi in state["states"]}


class CoherentMemorySystem:
    """All private hierarchies plus the shared bus and main memory timing."""

    def __init__(self, core_cache_configs, system: SystemConfig,
                 stats: Stats, obs: Optional[EventBus] = None) -> None:
        """``core_cache_configs`` is a list of (l1i, l1d, l2) per core."""
        self.system = system
        self.stats = stats
        stats.declare("upgrades", "c2c_transfers", "memory_reads")
        self.obs = obs if obs is not None else EventBus()
        self.bus = SnoopBus(system.bus_occupancy, stats.child("bus"),
                            obs=self.obs)
        self.memory_latency = system.memory_latency
        self.ports: List[_CorePort] = [
            _CorePort(i, l1i, l1d, l2, stats.child(f"core{i}"))
            for i, (l1i, l1d, l2) in enumerate(core_cache_configs)
        ]

    def set_snoop_hook(self, core: int,
                       hook: Callable[[int], None]) -> None:
        """Call the bound method ``hook(line)`` whenever a snoop drops
        ``line`` from ``core``'s hierarchy (cores replay the loads they
        issued speculatively, see cpu.pipeline).

        The reference is non-owning: the core owns this memory system,
        so a strong one back would make a cycle that keeps a finished
        machine alive until the cyclic collector runs (DESIGN.md §3).
        """
        self.ports[core].snoop_hook = weakref.WeakMethod(hook)

    # -- snapshot contract (DESIGN.md §8) ----------------------------------------

    def snapshot_state(self) -> dict:
        """Tag arrays, MESI states, and bus arbitration.  Snoop hooks are
        construction-time wiring, not state."""
        return {"bus": self.bus.snapshot_state(),
                "ports": [port.snapshot_state() for port in self.ports]}

    def restore_state(self, state: dict) -> None:
        self.bus.restore_state(state["bus"])
        for port, port_state in zip(self.ports, state["ports"]):
            port.restore_state(port_state)

    # -- public access points ---------------------------------------------------

    def data_access(self, core: int, addr: int, is_write: bool,
                    cycle: int) -> int:
        """Perform the timing side of a data access; returns completion cycle."""
        port = self.ports[core]
        l1d = port.l1d
        line = addr >> l1d.offset_bits  # l1d.line_addr(addr), inlined
        state = port.states.get(line, 0)
        cnt = port.cnt
        if l1d.lookup(line):
            if not is_write or state >= EXCLUSIVE:
                cnt["l1d_hits"] += 1
                if is_write and state == EXCLUSIVE:
                    port.states[line] = MODIFIED
                return cycle + port.l1_latency
            # Write hit on a Shared line: bus upgrade.
            cnt["l1d_upgrades"] += 1
            return self._upgrade(port, line, cycle + port.l1_latency)
        cnt["l1d_misses"] += 1
        ready = cycle + port.l1_latency
        if port.l2.lookup(line) and state:
            cnt["l2_hits"] += 1
            ready += port.l2_latency
            if is_write and state == SHARED:
                ready = self._upgrade(port, line, ready)
            elif is_write:
                port.states[line] = MODIFIED
            self._fill_l1(port, line)
            if self.obs.active:
                self.obs.emit(cycle, f"mem{port.index}", ev.MEM_MISS,
                              level="l1d", addr=addr, done=ready,
                              write=is_write)
            return ready
        cnt["l2_misses"] += 1
        ready += port.l2_latency
        done = self._bus_fill(port, line, is_write, ready, data_cache=True)
        if self.obs.active:
            self.obs.emit(cycle, f"mem{port.index}", ev.MEM_MISS,
                          level="l2", addr=addr, done=done, write=is_write)
        return done

    def inst_fetch(self, core: int, pc: int, cycle: int) -> int:
        """Fetch timing for the line containing instruction index ``pc``."""
        port = self.ports[core]
        l1i = port.l1i
        line = (INST_SPACE + pc * 4) >> l1i.offset_bits
        if l1i.lookup(line):
            port.cnt["l1i_hits"] += 1
            return cycle + port.l1_latency
        port.cnt["l1i_misses"] += 1
        ready = cycle + port.l1_latency
        if port.l2.lookup(line):
            ready += port.l2_latency
        else:
            # Instructions are read-only: no snooping needed, straight to
            # memory through the bus.
            grant = self.bus.transact(ready + port.l2_latency)
            ready = grant + self.memory_latency
            self._fill_l2(port, line, SHARED)
        victim = l1i.insert(line)
        if victim is not None:
            pass  # clean instruction lines are silently dropped
        if self.obs.active:
            self.obs.emit(cycle, f"mem{port.index}", ev.MEM_MISS,
                          level="l1i", addr=INST_SPACE + pc * 4, done=ready,
                          write=False)
        return ready

    # -- internals ----------------------------------------------------------------

    def _upgrade(self, port: _CorePort, line: int, ready: int) -> int:
        grant = self.bus.transact(ready)
        self._invalidate_others(port.index, line)
        port.states[line] = MODIFIED
        self.stats.bump("upgrades")
        return grant + UPGRADE_LATENCY

    def _bus_fill(self, port: _CorePort, line: int, is_write: bool,
                  ready: int, data_cache: bool) -> int:
        grant = self.bus.transact(ready)
        supplier = self._snoop(port.index, line, is_write)
        if supplier == "c2c":
            done = grant + C2C_LATENCY
            self.stats.bump("c2c_transfers")
        else:
            done = grant + self.memory_latency
            self.stats.bump("memory_reads")
        if is_write:
            port.states[line] = MODIFIED
        else:
            shared = any(line in other.states
                         for other in self.ports if other is not port)
            port.states[line] = SHARED if shared else EXCLUSIVE
        self._fill_l2(port, line, port.states[line])
        if data_cache:
            self._fill_l1(port, line)
        return done

    def _snoop(self, requester: int, line: int, is_write: bool) -> str:
        """Snoop every other hierarchy; returns "c2c" or "memory"."""
        supplier = "memory"
        for other in self.ports:
            if other.index == requester:
                continue
            state = other.states.get(line)
            if state is None:
                continue
            if state == MODIFIED:
                other.stats.bump("snoop_writebacks")
                supplier = "c2c"
            elif supplier == "memory":
                supplier = "c2c"
            if is_write:
                self._drop(other, line)
                other.stats.bump("snoop_invalidations")
            else:
                other.states[line] = SHARED
        return supplier

    def _invalidate_others(self, requester: int, line: int) -> None:
        for other in self.ports:
            if other.index == requester:
                continue
            if line in other.states:
                self._drop(other, line)
                other.stats.bump("snoop_invalidations")

    def _drop(self, port: _CorePort, line: int) -> None:
        port.states.pop(line, None)
        port.l1d.remove(line)
        port.l2.remove(line)
        hook = port.snoop_hook
        if hook is not None:
            method = hook()
            if method is not None:
                method(line)

    def _fill_l1(self, port: _CorePort, line: int) -> None:
        victim = port.l1d.insert(line)
        if victim is not None and victim not in port.l2.sets.get(
                victim & port.l2.set_mask, ()):
            # Inclusion normally guarantees the victim is still in L2;
            # nothing to do if it is (writeback stays on-chip).
            pass

    def _fill_l2(self, port: _CorePort, line: int, state: int) -> None:
        victim = port.l2.insert(line)
        if victim is not None:
            # Inclusive hierarchy: the L1 copy must go too.
            port.l1d.remove(victim)
            port.l1i.remove(victim)
            victim_state = port.states.pop(victim, None)
            if victim_state == MODIFIED:
                port.stats.bump("l2_writebacks")

    # -- introspection -------------------------------------------------------------

    def line_state(self, core: int, addr: int) -> int:
        """MESI state (0 = Invalid) of the line holding ``addr`` in ``core``."""
        port = self.ports[core]
        return port.states.get(port.l1d.line_addr(addr), 0)

    def check_invariants(self) -> None:
        """Assert the MESI single-writer invariant over all tracked lines."""
        owners: Dict[int, List[int]] = {}
        for port in self.ports:
            for line, state in port.states.items():
                owners.setdefault(line, []).append(state)
        for line, states in owners.items():
            exclusive = sum(1 for s in states if s >= EXCLUSIVE)
            if exclusive > 1 or (exclusive == 1 and len(states) > 1):
                raise AssertionError(
                    f"MESI violation on line {line:#x}: states {states}")
