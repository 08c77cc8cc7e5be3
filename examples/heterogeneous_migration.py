#!/usr/bin/env python
"""The heterogeneous CMP usage model of Section V-A, live.

The paper's whole-program scheduling: a thread runs its sequential phases
on a wide OOO2 core and migrates to an SPL-cluster OOO1 core for its
fabric-accelerated region, paying the 500-cycle context switch each way.
This example executes that literally — one g721 thread, three phases, two
migrations — and shows the context-switch and drain costs in the cycle
counts.

Run:  python examples/heterogeneous_migration.py
"""

from repro import Machine, MemoryImage, ThreadSpec, Workload
from repro.common.config import (RunOptions, SystemConfig, ooo2_cluster,
                                 remap_cluster)
from repro.isa import Asm
from repro.system.report import machine_report
from repro.workloads.g721 import G721Layout, fmult_function
from repro.workloads.kernels.g721 import TAPS

ITEMS = 16
COMPUTE_CONFIG = 1


def build_program(lay: G721Layout, marker_addr: int):
    """Three phases: sequential prologue, fabric region, sequential epilogue.

    Phase boundaries spin on a marker word the host flips after migrating
    the thread — standing in for the scheduler's phase detection.
    """
    a = Asm("phased")
    # Phase 1 (on OOO2): a sequential warm-up over the input data.
    a.li("r20", lay.an_addr)
    a.li("r21", 0)
    a.li("r22", ITEMS * TAPS)
    a.li("r23", 0)
    a.label("warm")
    a.lw("r24", "r20", 0)
    a.add("r23", "r23", "r24")
    a.addi("r20", "r20", 4)
    a.addi("r21", "r21", 1)
    a.blt("r21", "r22", "warm")
    # Wait for the scheduler to move us onto the SPL cluster.
    a.li("r25", marker_addr)
    a.label("wait1")
    a.lw("r26", "r25", 0)
    a.li("r27", 1)
    a.bne("r26", "r27", "wait1")
    # Phase 2 (on the SPL cluster): the fmult region in the fabric.
    a.li("r3", lay.an_addr)
    a.li("r4", lay.srn_addr)
    a.li("r6", lay.out)
    a.li("r1", 0)
    a.li("r2", lay.items)
    a.label("region")
    a.li("r5", 0)
    for _ in range(TAPS):
        a.spl_loadm("r3", 0)
        a.spl_loadm("r4", 4)
        a.spl_init(COMPUTE_CONFIG)
        a.addi("r3", "r3", 4)
        a.addi("r4", "r4", 4)
    for _ in range(TAPS):
        a.spl_recv("r9")
        a.add("r5", "r5", "r9")
    a.sw("r5", "r6", 0)
    a.addi("r6", "r6", 4)
    a.addi("r1", "r1", 1)
    a.blt("r1", "r2", "region")
    # Wait to be moved back, then a sequential epilogue.
    a.label("wait2")
    a.lw("r26", "r25", 0)
    a.li("r27", 2)
    a.bne("r26", "r27", "wait2")
    a.li("r21", 0)
    a.label("cool")
    a.addi("r23", "r23", 1)
    a.addi("r21", "r21", 1)
    a.blt("r21", "r22", "cool")
    a.halt()
    return a.assemble()


def main() -> None:
    image = MemoryImage()
    lay = G721Layout(image, ITEMS, seed=42)
    marker = image.alloc_zeroed(1)
    program = build_program(lay, marker)

    system = SystemConfig(clusters=[remap_cluster(), ooo2_cluster()])
    machine = Machine(system)
    # Start the thread on the OOO2 cluster (core 4).
    workload = Workload(
        "phased", image, [ThreadSpec(program, thread_id=1)], placement=[4],
        setup=lambda m: m.configure_spl(0, COMPUTE_CONFIG,
                                        fmult_function()))
    machine.load(workload)

    # Phase 1 runs on OOO2 until it reaches the first wait loop.
    machine.run(options=RunOptions(
        max_cycles=300_000,
        until=lambda: machine.cores[4].ctx is not None
        and machine.cores[4].ctx.retired_instructions > 500))
    t0 = machine.cycle
    print(f"phase 1 (OOO2 core 4):        cycle {t0}")

    # Scheduler: migrate to the SPL cluster and release phase 2.
    machine.migrate(1, dest_core=0)
    machine.memory.write_word(marker, 1)
    t1 = machine.cycle
    print(f"migrated to SPL core 0:       cycle {t1} "
          f"(+{t1 - t0} drain + 500 switch)")

    machine.run(options=RunOptions(
        max_cycles=2_000_000,
        until=lambda: machine.memory.read_word(lay.out + 4 * (ITEMS - 1))
        != 0))
    t2 = machine.cycle
    print(f"fabric region done:           cycle {t2} (+{t2 - t1})")

    # Scheduler: migrate back for the sequential epilogue.
    machine.migrate(1, dest_core=4)
    machine.memory.write_word(marker, 2)
    machine.run(options=RunOptions(max_cycles=2_000_000))
    t3 = machine.cycle
    print(f"phase 3 (back on OOO2):       cycle {t3} (+{t3 - t2})")

    lay.check(machine.memory)
    print("\nregion output verified against the fmult reference ✓\n")
    print(machine_report(machine))


if __name__ == "__main__":
    main()
