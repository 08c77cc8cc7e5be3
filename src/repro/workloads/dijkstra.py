"""Parallel Dijkstra workload variants (Figure 7, Figures 12(d)/13(b)/14(d)).

Variants:

* ``seq``          — dense O(V^2) Dijkstra on one OOO1 core.
* ``sw``           — Figure 7(a): software barriers (x2 per iteration),
  thread 0 computes the global minimum in software.
* ``barrier``      — Figure 7(b): ReMAP synchronization-only barriers,
  global minimum still in software.
* ``barrier_comp`` — Figure 7(c): the fabric computes the global minimum
  during the barrier.  One barrier per iteration on a single cluster;
  the staged regional-minimum scheme with an extra barrier when threads
  span clusters (Section III-B).
* ``hwbar``        — the homogeneous baseline of Section V-C2: OOO1 cores
  with an idealized dedicated barrier network, global min in software.

Local minima travel as ``dist << 10 | node`` packed words, making the
minimum unique; every variant's final distance vector is checked against
the reference kernel.
"""

from __future__ import annotations

from typing import List

from repro.baselines.comm_network import attach_network
from repro.baselines.sw_sync import SwBarrier
from repro.common.config import SystemConfig, ooo1_cluster
from repro.common.errors import WorkloadError
from repro.core.dfg import DfgOp
from repro.core.function import barrier_reduce_function, barrier_token_function
from repro.isa import Asm, MemoryImage, ThreadSpec
from repro.system.workload import Workload
from repro.workloads.base import (RunSpec, chunk_bounds,
                                  homogeneous_barrier_system,
                                  remap_machine_system, seq_system,
                                  spl_clusters_for_threads)
from repro.workloads.kernels.dijkstra import (INF_DIST, INF_PACKED,
                                              NODE_BITS, dijkstra_reference,
                                              make_graph)

# Register conventions.
IT, N = "r1", "r2"
T0, T1, T2 = "r3", "r4", "r5"
BEST, PD, PV, IDX = "r7", "r8", "r9", "r10"
SENSE, HI, GMIN, GD, GN, PW, LO = "r11", "r12", "r13", "r14", "r15", "r16", "r17"

REGMIN_CONFIG = 3
TOKEN_CONFIG = 4
FINAL_CONFIG = 5


class DijkstraLayout:
    """Shared memory layout for one graph instance."""

    def __init__(self, image: MemoryImage, weights: List[List[int]],
                 n_threads: int) -> None:
        self.n = len(weights)
        flat: List[int] = []
        for row in weights:
            flat.extend(row)
        self.w = image.alloc_words(flat)
        self.dist = image.alloc_words([0] + [INF_DIST] * (self.n - 1))
        self.visited = image.alloc_zeroed(self.n)
        self.localmins = image.alloc_zeroed(max(1, n_threads))
        self.globalmin = image.alloc_zeroed(1)
        self.regionalmins = image.alloc_zeroed(4)
        self.weights = weights


def _check(memory, layout: DijkstraLayout) -> None:
    reference = dijkstra_reference(layout.weights)
    got = memory.read_words(layout.dist, layout.n)
    assert got == reference, (
        f"dijkstra dist mismatch: {got[:8]}... vs {reference[:8]}...")


# -- emission helpers --------------------------------------------------------------


def _emit_local_min(a: Asm, lay: DijkstraLayout, lo: int, hi: int) -> None:
    """Packed minimum of the thread's unvisited chunk into BEST."""
    a.li(BEST, INF_PACKED)
    a.li(PD, lay.dist + 4 * lo)
    a.li(PV, lay.visited + 4 * lo)
    a.li(IDX, lo)
    a.li(HI, hi)
    scan = a.fresh_label("scan")
    skip = a.fresh_label("scan_skip")
    a.label(scan)
    a.lw(T0, PV, 0)
    a.bnez(T0, skip)
    a.lw(T1, PD, 0)
    a.slli(T1, T1, NODE_BITS)
    a.or_(T1, T1, IDX)
    a.bge(T1, BEST, skip)
    a.mov(BEST, T1)
    a.label(skip)
    a.addi(PD, PD, 4)
    a.addi(PV, PV, 4)
    a.addi(IDX, IDX, 1)
    a.blt(IDX, HI, scan)


def _emit_decode_and_update(a: Asm, lay: DijkstraLayout, lo: int,
                            hi: int) -> None:
    """Decode GMIN into GD/GN, mark visited if owned, update the chunk."""
    a.srli(GD, GMIN, NODE_BITS)
    a.andi(GN, GMIN, (1 << NODE_BITS) - 1)
    nomark = a.fresh_label("nomark")
    a.li(T0, lo)
    a.blt(GN, T0, nomark)
    a.li(T0, hi)
    a.bge(GN, T0, nomark)
    a.li(T0, lay.visited)
    a.slli(T1, GN, 2)
    a.add(T0, T0, T1)
    a.li(T1, 1)
    a.sw(T1, T0, 0)
    a.label(nomark)
    # PW = &W[GN][lo]
    a.li(T0, lay.n * 4)
    a.mul(T1, GN, T0)
    a.li(PW, lay.w + 4 * lo)
    a.add(PW, PW, T1)
    a.li(PD, lay.dist + 4 * lo)
    a.li(IDX, lo)
    a.li(HI, hi)
    update = a.fresh_label("update")
    noupd = a.fresh_label("noupd")
    a.label(update)
    a.lw(T0, PW, 0)
    a.add(T0, T0, GD)
    a.lw(T1, PD, 0)
    a.bge(T0, T1, noupd)
    a.sw(T0, PD, 0)
    a.label(noupd)
    a.addi(PW, PW, 4)
    a.addi(PD, PD, 4)
    a.addi(IDX, IDX, 1)
    a.blt(IDX, HI, update)


def _emit_global_min_software(a: Asm, lay: DijkstraLayout,
                              n_threads: int) -> None:
    """Thread 0: min over localmins[0..p), store to globalmin."""
    a.li(BEST, INF_PACKED)
    a.li(PD, lay.localmins)
    a.li(IDX, 0)
    a.li(HI, n_threads)
    loop = a.fresh_label("gmin")
    skip = a.fresh_label("gmin_skip")
    a.label(loop)
    a.lw(T0, PD, 0)
    a.bge(T0, BEST, skip)
    a.mov(BEST, T0)
    a.label(skip)
    a.addi(PD, PD, 4)
    a.addi(IDX, IDX, 1)
    a.blt(IDX, HI, loop)
    a.li(T0, lay.globalmin)
    a.sw(BEST, T0, 0)
    a.fence()


def _emit_token_barrier(a: Asm, config_id: int) -> None:
    """Arrive at a hardware barrier (SPL or dedicated network) and wait."""
    a.spl_load("r0", 0)
    a.spl_init(config_id)
    a.spl_recv(T0)


# -- program builders ------------------------------------------------------------------


def build_seq_program(lay: DijkstraLayout):
    a = Asm("dijkstra_seq")
    a.li(IT, 0)
    a.li(N, lay.n)
    a.label("outer")
    _emit_local_min(a, lay, 0, lay.n)
    a.mov(GMIN, BEST)
    _emit_decode_and_update(a, lay, 0, lay.n)
    a.addi(IT, IT, 1)
    a.blt(IT, N, "outer")
    a.halt()
    return a.assemble()


def _emit_store_local_min(a: Asm, lay: DijkstraLayout, thread: int) -> None:
    a.li(T0, lay.localmins + 4 * thread)
    a.sw(BEST, T0, 0)
    a.fence()


def _emit_load_global_min(a: Asm, lay: DijkstraLayout) -> None:
    a.li(T0, lay.globalmin)
    a.lw(GMIN, T0, 0)


def build_two_barrier_program(lay: DijkstraLayout, thread: int,
                              n_threads: int, barrier_emitter,
                              name: str):
    """Figure 7(a)/(b) shape: barrier; t0 computes gmin; barrier; update."""
    lo, hi = chunk_bounds(lay.n, n_threads, thread)
    a = Asm(name)
    a.li(SENSE, 1)
    a.li(IT, 0)
    a.li(N, lay.n)
    a.label("outer")
    _emit_local_min(a, lay, lo, hi)
    _emit_store_local_min(a, lay, thread)
    barrier_emitter(a)
    if thread == 0:
        _emit_global_min_software(a, lay, n_threads)
    barrier_emitter(a)
    _emit_load_global_min(a, lay)
    _emit_decode_and_update(a, lay, lo, hi)
    a.addi(IT, IT, 1)
    a.blt(IT, N, "outer")
    a.halt()
    return a.assemble()


def build_barrier_comp_program(lay: DijkstraLayout, thread: int,
                               n_threads: int, name: str):
    """Figure 7(c): global minimum computed in the fabric at the barrier."""
    lo, hi = chunk_bounds(lay.n, n_threads, thread)
    n_clusters = spl_clusters_for_threads(n_threads)
    a = Asm(name)
    a.li(IT, 0)
    a.li(N, lay.n)
    a.label("outer")
    _emit_local_min(a, lay, lo, hi)
    if n_clusters == 1:
        a.spl_load(BEST, 0)
        a.spl_init(REGMIN_CONFIG)
        a.spl_recv(GMIN)
    else:
        # Stage 1: regional minimum within each cluster.
        a.spl_load(BEST, 0)
        a.spl_init(REGMIN_CONFIG)
        a.spl_recv(GMIN)  # regional minimum
        cluster = thread // 4
        if thread % 4 == 0:  # cluster representative publishes it
            a.li(T0, lay.regionalmins + 4 * cluster)
            a.sw(GMIN, T0, 0)
            a.fence()
        # Stage 2: extra barrier so all regional minima are visible.
        _emit_token_barrier(a, TOKEN_CONFIG)
        # Stage 3: every participant loads one regional minimum and the
        # fabric reduces them to the global minimum.
        slot_mod = (thread % 4) % n_clusters
        a.li(T0, lay.regionalmins + 4 * slot_mod)
        a.spl_loadm(T0, 0)
        a.spl_init(FINAL_CONFIG)
        a.spl_recv(GMIN)
    _emit_decode_and_update(a, lay, lo, hi)
    a.addi(IT, IT, 1)
    a.blt(IT, N, "outer")
    a.halt()
    return a.assemble()


# -- run specs ----------------------------------------------------------------------------


def _threads(programs) -> List[ThreadSpec]:
    return [ThreadSpec(program, thread_id=i + 1)
            for i, program in enumerate(programs)]


def seq_spec(n: int = 60) -> RunSpec:
    image = MemoryImage()
    lay = DijkstraLayout(image, make_graph(n), 1)
    workload = Workload("dijkstra_seq", image,
                        _threads([build_seq_program(lay)]), placement=[0],
                        check=lambda memory: _check(memory, lay))
    return RunSpec("dijkstra/seq", workload, seq_system(), ooo1_cores=(0,),
                   region_items=n)


def sw_spec(n: int = 60, p: int = 8) -> RunSpec:
    image = MemoryImage()
    lay = DijkstraLayout(image, make_graph(n), p)
    barrier = SwBarrier(image, p)

    def emitter(a: Asm) -> None:
        barrier.emit(a, SENSE, T0, T1, T2)

    programs = [build_two_barrier_program(lay, t, p, emitter,
                                          f"dijkstra_sw_t{t}")
                for t in range(p)]
    n_clusters = max(1, -(-p // 4))
    system = SystemConfig(clusters=[ooo1_cluster(4)
                                    for _ in range(n_clusters)])
    workload = Workload(f"dijkstra_sw_p{p}", image, _threads(programs),
                        placement=list(range(p)),
                        check=lambda memory: _check(memory, lay))
    return RunSpec(f"dijkstra/sw_p{p}", workload, system,
                   ooo1_cores=tuple(range(p)), region_items=n)


def _remap_barrier_setup(machine, p: int, comp: bool) -> None:
    n_clusters = spl_clusters_for_threads(p)
    thread_ids = list(range(1, p + 1))
    machine.register_barrier(1, 1, thread_ids)
    if comp and n_clusters > 1:
        machine.register_barrier(2, 1, thread_ids)
        machine.register_barrier(3, 1, thread_ids)
    for cluster in range(n_clusters):
        local = [t for t in range(p) if t // 4 == cluster]
        slots = len(local)
        if comp:
            regmin = barrier_reduce_function(slots, DfgOp.MIN,
                                             f"dijkstra_regmin_{slots}")
            for t in local:
                machine.configure_spl(t, REGMIN_CONFIG, regmin, barrier_id=1)
            if n_clusters > 1:
                # All three stages reuse the SAME min-reduce configuration
                # (a min over tokens is a valid sync-only barrier), so the
                # partition never reconfigures between stages.
                for t in local:
                    machine.configure_spl(t, TOKEN_CONFIG, regmin,
                                          barrier_id=2)
                    machine.configure_spl(t, FINAL_CONFIG, regmin,
                                          barrier_id=3)
        else:
            token = barrier_token_function(slots, f"dijkstra_tok_{slots}")
            for t in local:
                machine.configure_spl(t, TOKEN_CONFIG, token, barrier_id=1)


def barrier_spec(n: int = 60, p: int = 8) -> RunSpec:
    """ReMAP synchronization-only barriers (Figure 7(b))."""
    image = MemoryImage()
    lay = DijkstraLayout(image, make_graph(n), p)

    def emitter(a: Asm) -> None:
        _emit_token_barrier(a, TOKEN_CONFIG)

    programs = [build_two_barrier_program(lay, t, p, emitter,
                                          f"dijkstra_bar_t{t}")
                for t in range(p)]
    n_clusters = spl_clusters_for_threads(p)
    workload = Workload(
        f"dijkstra_barrier_p{p}", image, _threads(programs),
        placement=list(range(p)),
        setup=lambda machine: _remap_barrier_setup(machine, p, comp=False),
        check=lambda memory: _check(memory, lay))
    return RunSpec(f"dijkstra/barrier_p{p}", workload,
                   remap_machine_system(n_clusters),
                   ooo1_cores=tuple(range(p)),
                   spl_clusters=tuple((c, 1.0) for c in range(n_clusters)),
                   region_items=n)


def barrier_comp_spec(n: int = 60, p: int = 8) -> RunSpec:
    """Barrier + integrated global-minimum computation (Figure 7(c)).

    Needs at least one node per thread: the local-minimum and update
    loops are do-while loops, so a thread with an empty chunk still scans
    index ``n``, where ``dist[n]`` aliases ``visited[0]`` and its small
    value would win the fabric's min-reduction.
    """
    if n < p:
        raise WorkloadError(
            f"dijkstra/barrier_comp needs n >= p (got n={n}, p={p}): a "
            f"thread with an empty chunk corrupts the global minimum")
    image = MemoryImage()
    lay = DijkstraLayout(image, make_graph(n), p)
    programs = [build_barrier_comp_program(lay, t, p, f"dijkstra_bc_t{t}")
                for t in range(p)]
    n_clusters = spl_clusters_for_threads(p)
    workload = Workload(
        f"dijkstra_barrier_comp_p{p}", image, _threads(programs),
        placement=list(range(p)),
        setup=lambda machine: _remap_barrier_setup(machine, p, comp=True),
        check=lambda memory: _check(memory, lay))
    return RunSpec(f"dijkstra/barrier_comp_p{p}", workload,
                   remap_machine_system(n_clusters),
                   ooo1_cores=tuple(range(p)),
                   spl_clusters=tuple((c, 1.0) for c in range(n_clusters)),
                   region_items=n)


def hwbar_spec(n: int = 60, p: int = 8) -> RunSpec:
    """Homogeneous area-equivalent baseline with a barrier network."""
    image = MemoryImage()
    lay = DijkstraLayout(image, make_graph(n), p)

    def emitter(a: Asm) -> None:
        _emit_token_barrier(a, TOKEN_CONFIG)

    programs = [build_two_barrier_program(lay, t, p, emitter,
                                          f"dijkstra_hw_t{t}")
                for t in range(p)]
    system = homogeneous_barrier_system(p)

    def setup(machine) -> None:
        controller = attach_network(machine, list(range(p)), name="barnet")
        controller.register_barrier(1, list(range(1, p + 1)))
        for t in range(p):
            controller.configure_barrier(t, TOKEN_CONFIG, barrier_id=1)

    workload = Workload(
        f"dijkstra_hwbar_p{p}", image, _threads(programs),
        placement=list(range(p)), setup=setup,
        check=lambda memory: _check(memory, lay))
    # Area-equivalent: clusters of six OOO1 cores; idle extras still leak.
    n_cores_charged = 6 * len(system.clusters)
    return RunSpec(f"dijkstra/hwbar_p{p}", workload, system,
                   ooo1_cores=tuple(range(min(n_cores_charged,
                                              system.n_cores))),
                   region_items=n)


VARIANTS = {
    "seq": seq_spec,
    "sw": sw_spec,
    "barrier": barrier_spec,
    "barrier_comp": barrier_comp_spec,
    "hwbar": hwbar_spec,
}
