"""Property-based scenario fuzzer: static verdicts vs. dynamic behaviour.

Randomized multithreaded scenarios (communication rings, producer /
consumer pairs over fabric and dedicated-comm, barriers, self-loops,
random compute DFGs, atomics with fences) are generated from a seed,
statically analyzed by :func:`repro.analysis.lint.lint_spec`, and
simulated.  Three agreement properties are enforced per scenario
(``python -m repro fuzz``):

1. **Clean means runs.**  A scenario with no error-severity diagnostics
   must simulate to completion without :exc:`DeadlockError` /
   :exc:`SplError`, and its static performance lower bounds
   (:mod:`repro.analysis.bounds`) must not exceed the measured run.
2. **Flagged means fails.**  A scenario seeded with a defect must be
   flagged by the expected rule family *and* actually misbehave when
   simulated (deadlock with a non-empty wait-state report, or an SPL
   fault).  A flagged scenario that runs clean is recorded as a
   *downgrade counterexample* for the rule.
3. **Modes agree.**  Clean scenarios are executed on both sides of the
   scheduler switch (``fast_forward``: the compiled walk, or the naive
   per-cycle loop); cycle counts, every stats counter, and result
   memory words must be identical across the two modes, and the result
   words must match a host-model golden (for random compute graphs,
   ``Dfg.evaluate``, the reference the compiled SPL closures are
   checked against).  The multithreaded scenarios (rings,
   producer/consumer pairs, barriers, atomics) keep several cores live
   at once, so the fast leg exercises the *multi-core* walk (DESIGN.md
   section 10) — compiled SPL ops, FENCEs and atomics, elision and
   jumps, and cross-core pokes are all covered by the same agreement
   contract.

Any violation is a *disagreement*; :func:`run_fuzz` reports them all and
returns a non-zero exit code if any exist.  Scenario generation is fully
deterministic in the seed, so a failing seed is a reproducer.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.bounds import check_measured, compute_bounds
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.lint import lint_spec
from repro.baselines.comm_network import attach_comm_network
from repro.baselines.sw_sync import SwBarrier
from repro.common.config import (RunOptions, SystemConfig, ooo2_cluster,
                                 remap_cluster)
from repro.common.errors import DeadlockError, ReproError, SplError
from repro.core.dfg import Dfg, DfgOp
from repro.core.function import (SplFunction, barrier_token_function,
                                 identity_function)
from repro.isa import Asm, MemoryImage, Program, ThreadSpec
from repro.system.machine import Machine
from repro.system.workload import Workload
from repro.workloads.base import RunSpec

#: JSON schema version of :func:`run_fuzz` reports.
FUZZ_SCHEMA_VERSION = 1

#: Watchdog window for fuzz machines: the walk jumps recv-parked
#: deadlocks to the watchdog in O(1), init-spinning ones tick, so the
#: window stays small to bound the worst case.
_DEADLOCK_CYCLES = 10_000
_MAX_CYCLES = 2_000_000

_RESULT_BASE = 0x8000
_CONFIG = 1
_BARRIER_CONFIG = 3
_BARRIER_ID = 1
_COMM_ROUTE_CONFIG = 2


@dataclass
class Scenario:
    """One generated scenario: a spec builder plus its expectations."""

    seed: int
    kind: str
    #: None for an expected-clean scenario, else the seeded defect name.
    defect: Optional[str]
    #: Rule ids of which at least one must fire when ``defect`` is set.
    expect_rules: Tuple[str, ...]
    #: Rebuildable so each execution mode gets fresh SplFunction state.
    build: Callable[[], RunSpec]
    #: Result words compared across modes (and against ``golden``).
    result_addrs: Tuple[int, ...] = ()
    #: addr -> mode-independent expected value (host-model golden).
    golden: Dict[int, int] = field(default_factory=dict)


def _remap_system() -> SystemConfig:
    return SystemConfig(clusters=[remap_cluster()],
                        deadlock_cycles=_DEADLOCK_CYCLES)


def _ooo2_system() -> SystemConfig:
    return SystemConfig(clusters=[ooo2_cluster(4)],
                        deadlock_cycles=_DEADLOCK_CYCLES)


def _send_words(a: Asm, values: Sequence[int], config: int) -> None:
    for value in values:
        a.li("r4", value)
        a.spl_load("r4", 0)
        a.spl_init(config)


def _recv_sum(a: Asm, count: int) -> None:
    """Pop ``count`` words into an r3 accumulator (r3 must be zeroed)."""
    for _ in range(count):
        a.spl_recv("r5")
        a.add("r3", "r3", "r5")


def _store_result(a: Asm, addr: int) -> None:
    a.li("r6", addr)
    a.sw("r3", "r6", 0)


def _ring_program(name: str, values: Sequence[int], addr: int,
                  pop_first: bool) -> Program:
    a = Asm(name)
    a.li("r3", 0)
    if pop_first:
        _recv_sum(a, len(values))
        _send_words(a, values, _CONFIG)
    else:
        _send_words(a, values, _CONFIG)
        _recv_sum(a, len(values))
    _store_result(a, addr)
    a.halt()
    return a.assemble()


def _scenario_ring(seed: int, rng: random.Random,
                   defect: Optional[str]) -> Scenario:
    n = rng.choice((2, 3))
    k = rng.randint(2, 4)
    bases = [rng.randint(1, 500) for _ in range(n)]
    pop_first = defect == "ring_deadlock"
    addrs = tuple(_RESULT_BASE + 4 * i for i in range(n))

    def build() -> RunSpec:
        route = identity_function("fuzz_route")
        threads = []
        for i in range(n):
            values = [bases[i] + j for j in range(k)]
            program = _ring_program(f"ring{i}", values, addrs[i], pop_first)
            threads.append(ThreadSpec(program, thread_id=i + 1))

        def setup(machine: Machine) -> None:
            for i in range(n):
                dest = (i + 1) % n + 1
                machine.configure_spl(i, _CONFIG, route, dest_thread=dest)

        workload = Workload(f"fuzz_ring_{seed}", MemoryImage(), threads,
                            placement=list(range(n)), setup=setup)
        return RunSpec(f"fuzz/ring/{seed}", workload, _remap_system(),
                       max_cycles=_MAX_CYCLES)

    golden = {addrs[i]: sum(bases[(i - 1) % n] + j for j in range(k))
              for i in range(n)}
    return Scenario(seed, "ring", defect, ("CON004",), build,
                    result_addrs=addrs, golden=golden)


def _scenario_fabric_pair(seed: int, rng: random.Random,
                          defect: Optional[str]) -> Scenario:
    # dest_absent needs enough sends to wedge the producer: the fabric
    # can absorb one input queue plus the staging entry before the core
    # blocks, so overshoot the queue depth comfortably.
    k = 24 if defect == "dest_absent" else rng.randint(2, 5)
    base = rng.randint(1, 500)
    addr = _RESULT_BASE
    values = [base + j for j in range(k)]

    def build() -> RunSpec:
        route = identity_function("fuzz_route")
        a = Asm("producer")
        _send_words(a, values, _CONFIG)
        a.halt()
        producer = a.assemble()
        a = Asm("consumer")
        if defect == "dest_absent":
            a.halt()
        else:
            a.li("r3", 0)
            _recv_sum(a, k)
            _store_result(a, addr)
            a.halt()
        consumer = a.assemble()
        dest = 99 if defect == "dest_absent" else 2

        def setup(machine: Machine) -> None:
            machine.configure_spl(0, _CONFIG, route, dest_thread=dest)

        workload = Workload(
            f"fuzz_pair_{seed}", MemoryImage(),
            [ThreadSpec(producer, thread_id=1),
             ThreadSpec(consumer, thread_id=2)],
            placement=[0, 1], setup=setup)
        return RunSpec(f"fuzz/pair/{seed}", workload, _remap_system(),
                       max_cycles=_MAX_CYCLES)

    if defect == "dest_absent":
        return Scenario(seed, "fabric_pair", defect, ("CON001",), build)
    return Scenario(seed, "fabric_pair", None, (), build,
                    result_addrs=(addr,), golden={addr: sum(values)})


def _scenario_comm_pair(seed: int, rng: random.Random,
                        defect: Optional[str]) -> Scenario:
    k = rng.randint(2, 5)
    base = rng.randint(1, 500)
    addr = _RESULT_BASE
    values = [base + j for j in range(k)]

    def build() -> RunSpec:
        a = Asm("producer")
        _send_words(a, values, _COMM_ROUTE_CONFIG)
        a.halt()
        producer = a.assemble()
        a = Asm("consumer")
        a.li("r3", 0)
        _recv_sum(a, k)
        _store_result(a, addr)
        a.halt()
        consumer = a.assemble()
        dest = 99 if defect == "comm_dest_absent" else 2

        def setup(machine: Machine) -> None:
            controller = attach_comm_network(machine, 0)
            controller.configure_send(0, _COMM_ROUTE_CONFIG,
                                      dest_thread=dest)

        workload = Workload(
            f"fuzz_comm_{seed}", MemoryImage(),
            [ThreadSpec(producer, thread_id=1),
             ThreadSpec(consumer, thread_id=2)],
            placement=[0, 1], setup=setup)
        return RunSpec(f"fuzz/comm/{seed}", workload, _ooo2_system(),
                       max_cycles=_MAX_CYCLES)

    if defect == "comm_dest_absent":
        # The consumer starves: CON001 flags the unmatched endpoint and
        # SPL005 the guaranteed-blocking pop.
        return Scenario(seed, "comm_pair", defect, ("CON001", "SPL005"),
                        build)
    return Scenario(seed, "comm_pair", None, (), build,
                    result_addrs=(addr,), golden={addr: sum(values)})


def _scenario_barrier(seed: int, rng: random.Random,
                      defect: Optional[str]) -> Scenario:
    n = rng.choice((2, 3, 4))
    rounds = rng.randint(1, 3)
    addrs = tuple(_RESULT_BASE + 4 * i for i in range(n))

    def build() -> RunSpec:
        token = barrier_token_function(n, "fuzz_barrier")
        threads = []
        for i in range(n):
            my_rounds = rounds
            if defect == "barrier_unbalanced" and i == 0:
                my_rounds = rounds + 1
            a = Asm(f"barrier{i}")
            a.li("r3", 0)
            for r in range(my_rounds):
                a.li("r4", i + 1)
                a.spl_load("r4", 0)
                a.spl_init(_BARRIER_CONFIG)
                a.spl_recv("r5")
                a.add("r3", "r3", "r5")
            _store_result(a, addrs[i])
            a.halt()
            threads.append(ThreadSpec(a.assemble(), thread_id=i + 1))

        def setup(machine: Machine) -> None:
            tids = list(range(1, n + 1))
            if defect == "barrier_phantom":
                machine.register_barrier(_BARRIER_ID, 1, tids + [n + 1])
            elif defect != "barrier_unregistered":
                machine.register_barrier(_BARRIER_ID, 1, tids)
            for i in range(n):
                machine.configure_spl(i, _BARRIER_CONFIG, token,
                                      barrier_id=_BARRIER_ID)

        workload = Workload(f"fuzz_barrier_{seed}", MemoryImage(), threads,
                            placement=list(range(n)), setup=setup)
        return RunSpec(f"fuzz/barrier/{seed}", workload, _remap_system(),
                       max_cycles=_MAX_CYCLES)

    expect = {"barrier_unregistered": ("CON003",),
              "barrier_phantom": ("CON003",),
              "barrier_unbalanced": ("SPL004",)}.get(defect or "", ())
    # Each release hands every participant the slot-0 token (thread 1's
    # contribution, value 1).
    golden = {addr: rounds for addr in addrs}
    return Scenario(seed, "barrier", defect, expect, build,
                    result_addrs=addrs if defect is None else (),
                    golden=golden if defect is None else {})


def _scenario_selfloop(seed: int, rng: random.Random,
                       defect: Optional[str]) -> Scenario:
    # Overfill must exceed the static absorption threshold (output queue
    # + input queue + in-flight cap + partition rows): 140 > 128.
    k = 140 if defect == "selfloop_overfill" else rng.randint(2, 8)
    base = rng.randint(1, 500)
    addr = _RESULT_BASE
    values = [base + j for j in range(k)]

    def build() -> RunSpec:
        route = identity_function("fuzz_route")
        a = Asm("selfloop")
        a.li("r3", 0)
        _send_words(a, values, _CONFIG)
        _recv_sum(a, k)
        _store_result(a, addr)
        a.halt()

        def setup(machine: Machine) -> None:
            machine.configure_spl(0, _CONFIG, route)

        workload = Workload(f"fuzz_self_{seed}", MemoryImage(),
                            [ThreadSpec(a.assemble(), thread_id=1)],
                            placement=[0], setup=setup)
        return RunSpec(f"fuzz/self/{seed}", workload, _remap_system(),
                       max_cycles=_MAX_CYCLES)

    if defect == "selfloop_overfill":
        return Scenario(seed, "selfloop", defect, ("CON005",), build)
    return Scenario(seed, "selfloop", None, (), build,
                    result_addrs=(addr,), golden={addr: sum(values)})


def _random_dfg(rng: random.Random) -> Dfg:
    """A small random feed-forward compute graph (1 output word)."""
    dfg = Dfg(f"fuzz_dfg_{rng.randint(0, 1 << 16)}")
    n_inputs = rng.randint(1, 3)
    nodes = [dfg.input(f"v{i}", offset=4 * i, width=4)
             for i in range(n_inputs)]
    # Small positive values + overflow-free ops keep the host-model
    # golden exact without modelling 32-bit wraparound.
    ops = (DfgOp.ADD, DfgOp.MIN, DfgOp.MAX)
    for _ in range(rng.randint(1, 4)):
        op = rng.choice(ops)
        a = rng.choice(nodes)
        b = rng.choice(nodes + [dfg.const(rng.randint(1, 9))])
        nodes.append(dfg.op(op, a, b))
    out = nodes[-1]
    if out.op is DfgOp.INPUT:
        out = dfg.op(DfgOp.PASS, out)
    dfg.output("result", out)
    return dfg


def _scenario_compute(seed: int, rng: random.Random) -> Scenario:
    dfg = _random_dfg(rng)
    n_inputs = len(dfg.inputs)
    iterations = rng.randint(1, 3)
    inputs = [[rng.randint(1, 1000) for _ in range(n_inputs)]
              for _ in range(iterations)]
    addr = _RESULT_BASE
    golden_sum = 0
    for row in inputs:
        feed = {f"v{i}": row[i] for i in range(n_inputs)}
        golden_sum += dfg.evaluate(feed)["result"]

    def build() -> RunSpec:
        function = SplFunction(dfg)
        a = Asm("compute")
        a.li("r3", 0)
        for row in inputs:
            for i, value in enumerate(row):
                a.li("r4", value)
                a.spl_load("r4", 4 * i)
            a.spl_init(_CONFIG)
            a.spl_recv("r5")
            a.add("r3", "r3", "r5")
        _store_result(a, addr)
        a.halt()

        def setup(machine: Machine) -> None:
            machine.configure_spl(0, _CONFIG, function)

        workload = Workload(f"fuzz_compute_{seed}", MemoryImage(),
                            [ThreadSpec(a.assemble(), thread_id=1)],
                            placement=[0], setup=setup)
        return RunSpec(f"fuzz/compute/{seed}", workload, _remap_system(),
                       max_cycles=_MAX_CYCLES)

    return Scenario(seed, "compute", None, (), build,
                    result_addrs=(addr,), golden={addr: golden_sum})


def _scenario_atomics(seed: int, rng: random.Random) -> Scenario:
    """2-4 threads, each running ``k`` episodes of random compute and
    stores, then an ``amo_swap`` test-and-set lock around a shared
    counter increment, then a software barrier (``amo_add``, FENCE and
    a sense spin): the serialized ops the other shapes never emit."""
    n = rng.choice((2, 3, 4))
    k = rng.randint(1, 3)
    episodes = [[([(rng.choice(("addi", "xori")), rng.randint(1, 99))
                   for _ in range(rng.randint(1, 4))],
                  rng.sample(range(16), rng.randint(0, 4)),
                  rng.randint(1, 9)) for _ in range(k)] for _ in range(n)]
    counter, lock = _RESULT_BASE, _RESULT_BASE + 32
    scratch = [_RESULT_BASE + 64 * (i + 1) for i in range(n)]

    def build() -> RunSpec:
        image = MemoryImage()
        barrier = SwBarrier(image, n)
        threads = []
        for i in range(n):
            a = Asm(f"atomics{i}")
            a.li("r20", 1)  # the barrier's local sense
            a.li("r8", i)
            for ops, slots, inc in episodes[i]:
                for op, imm in ops:
                    getattr(a, op)("r8", "r8", imm)
                for slot in slots:
                    a.li("r9", scratch[i] + 4 * slot)
                    a.sw("r8", "r9", 0)
                a.li("r10", lock)
                a.li("r11", 1)
                acquire = a.fresh_label("acquire")
                a.label(acquire)
                a.amo_swap("r12", "r10", "r11")
                a.bne("r12", "r0", acquire)
                a.li("r13", counter)
                a.lw("r14", "r13", 0)
                a.addi("r14", "r14", inc)
                a.sw("r14", "r13", 0)
                a.fence()
                a.sw("r0", "r10", 0)  # release
                barrier.emit(a, "r20", "r21", "r22", "r23")
            a.halt()
            threads.append(ThreadSpec(a.assemble(), thread_id=i + 1))
        workload = Workload(f"fuzz_atomics_{seed}", image, threads,
                            placement=list(range(n)))
        return RunSpec(f"fuzz/atomics/{seed}", workload, _ooo2_system(),
                       max_cycles=_MAX_CYCLES)

    result_addrs = (counter,) + tuple(base + 4 * slot for base in scratch
                                      for slot in range(16))
    golden = {counter: sum(inc for thread in episodes
                           for _ops, _slots, inc in thread)}
    return Scenario(seed, "atomics", None, (), build,
                    result_addrs=result_addrs, golden=golden)


#: (kind, defect) menu the seed indexes into; clean entries dominate so
#: the mode-agreement property gets most of the coverage.
_MENU: Tuple[Tuple[str, Optional[str]], ...] = (
    ("ring", None),
    ("fabric_pair", None),
    ("comm_pair", None),
    ("barrier", None),
    ("selfloop", None),
    ("compute", None),
    ("compute", None),
    ("atomics", None),
    ("ring", "ring_deadlock"),
    ("fabric_pair", "dest_absent"),
    ("comm_pair", "comm_dest_absent"),
    ("barrier", "barrier_unregistered"),
    ("barrier", "barrier_phantom"),
    ("barrier", "barrier_unbalanced"),
    ("selfloop", "selfloop_overfill"),
)

_GENERATORS = {
    "ring": _scenario_ring,
    "fabric_pair": _scenario_fabric_pair,
    "comm_pair": _scenario_comm_pair,
    "barrier": _scenario_barrier,
    "selfloop": _scenario_selfloop,
}


def scenario_for_seed(seed: int) -> Scenario:
    """Deterministically generate the scenario for ``seed``."""
    rng = random.Random(seed)
    kind, defect = _MENU[seed % len(_MENU)]
    if kind == "compute":
        return _scenario_compute(seed, rng)
    if kind == "atomics":
        return _scenario_atomics(seed, rng)
    return _GENERATORS[kind](seed, rng, defect)


# -- execution ----------------------------------------------------------------


def _run_spec(spec: RunSpec, scenario: Scenario,
              fast_forward: bool) -> Dict[str, Any]:
    machine = Machine(spec.system)
    machine.load(spec.workload)
    cycles = machine.run(options=RunOptions(max_cycles=spec.max_cycles,
                                            fast_forward=fast_forward))
    return {
        "cycles": cycles,
        "counters": machine.stats.as_dict(),
        "results": {addr: machine.memory.read_word(addr)
                    for addr in scenario.result_addrs},
    }


def _error_rules(diagnostics: Sequence[Diagnostic]) -> List[str]:
    return sorted({d.rule for d in diagnostics if d.is_error})


def run_scenario(scenario: Scenario) -> Dict[str, Any]:
    """Lint + simulate one scenario; returns its agreement record."""
    record: Dict[str, Any] = {
        "seed": scenario.seed,
        "kind": scenario.kind,
        "defect": scenario.defect,
        "disagreements": [],
    }
    disagreements: List[str] = record["disagreements"]

    spec = scenario.build()
    unit = spec.name
    diagnostics = lint_spec(spec, unit=unit)
    rules = _error_rules(diagnostics)
    record["error_rules"] = rules

    if scenario.defect is not None:
        if not any(rule in rules for rule in scenario.expect_rules):
            disagreements.append(
                f"defect {scenario.defect} not flagged statically "
                f"(expected one of {list(scenario.expect_rules)}, "
                f"got {rules})")
        try:
            outcome = _run_spec(spec, scenario, fast_forward=True)
        except DeadlockError as exc:
            record["dynamic"] = "deadlock"
            if not exc.wait_states:
                disagreements.append(
                    "deadlock raised without a wait-state report")
        except (SplError, ReproError) as exc:
            record["dynamic"] = f"fault:{type(exc).__name__}"
        else:
            record["dynamic"] = "completed"
            disagreements.append(
                f"statically flagged ({rules}) but ran clean in "
                f"{outcome['cycles']} cycles — downgrade candidate")
        return record

    # Expected-clean scenario: static cleanliness, mode agreement, bounds.
    if rules:
        disagreements.append(f"expected clean but flagged: {rules}")
        record["dynamic"] = "skipped"
        return record

    outcomes: Dict[str, Dict[str, Any]] = {}
    for fast_forward in (True, False):
        mode = f"ff={'on' if fast_forward else 'off'}"
        # The first mode is the default configuration; it reuses the
        # spec already built for linting (workload images are consumed
        # by execution, so the other mode rebuilds).
        mode_spec = spec if fast_forward else scenario.build()
        try:
            outcomes[mode] = _run_spec(mode_spec, scenario,
                                       fast_forward=fast_forward)
        except ReproError as exc:
            disagreements.append(
                f"clean scenario failed in mode {mode}: "
                f"{type(exc).__name__}: {exc}")
    record["dynamic"] = "completed" if outcomes else "failed"
    if len(outcomes) == 2:
        reference_mode = next(iter(outcomes))
        reference = outcomes[reference_mode]
        for mode, outcome in outcomes.items():
            if outcome != reference:
                differing = sorted(
                    key for key in reference
                    if outcome.get(key) != reference.get(key))
                disagreements.append(
                    f"mode {mode} disagrees with {reference_mode} "
                    f"on {differing}")
        record["cycles"] = reference["cycles"]
        results = reference["results"]
        for addr, expected in scenario.golden.items():
            actual = results.get(addr)
            if actual != expected:
                disagreements.append(
                    f"result word @0x{addr:x} is {actual}, host-model "
                    f"golden is {expected}")
        bounds = compute_bounds(spec, unit=unit)
        record["min_cycles_bound"] = bounds.min_cycles
        bound_diags = check_measured(
            bounds, int(reference["cycles"]),
            counters=reference["counters"], unit=unit)
        for diag in bound_diags:
            disagreements.append(f"bounds violation: {diag.render()}")
    return record


def run_fuzz(seeds: Sequence[int]) -> Dict[str, Any]:
    """Fuzz every seed; returns the aggregate report dict."""
    records = [run_scenario(scenario_for_seed(seed)) for seed in seeds]
    disagreements = [
        {"seed": record["seed"], "kind": record["kind"],
         "defect": record["defect"], "problems": record["disagreements"]}
        for record in records if record["disagreements"]]
    return {
        "schema": FUZZ_SCHEMA_VERSION,
        "seeds": [int(seed) for seed in seeds],
        "scenarios": len(records),
        "clean": sum(1 for r in records if r["defect"] is None),
        "defective": sum(1 for r in records if r["defect"] is not None),
        "disagreements": disagreements,
        "records": records,
    }


def render_fuzz_text(report: Dict[str, Any]) -> str:
    lines = [f"{report['scenarios']} scenarios "
             f"({report['clean']} clean, {report['defective']} seeded "
             f"defects)"]
    disagreements = report["disagreements"]
    for entry in disagreements:
        for problem in entry["problems"]:
            lines.append(f"seed {entry['seed']} ({entry['kind']}"
                         f"{'/' + entry['defect'] if entry['defect'] else ''}"
                         f"): {problem}")
    lines.append(f"{len(disagreements)} disagreements")
    return "\n".join(lines)


def write_fuzz_json(report: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
