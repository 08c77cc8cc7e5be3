"""Architecture configuration dataclasses and Table II presets.

The paper evaluates two out-of-order cores (Table II): a single-issue OOO1
and a dual-issue OOO2, both at 2 GHz in 65 nm, with an SPL fabric clocked at
500 MHz (one quarter of the core clock).  All the numbers below come
directly from Table II and Sections II/IV of the paper.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from repro.common.errors import ConfigError

CORE_CLOCK_HZ = 2_000_000_000
SPL_CLOCK_HZ = 500_000_000
#: Core cycles per SPL fabric cycle (2 GHz / 500 MHz).
SPL_CLOCK_RATIO = CORE_CLOCK_HZ // SPL_CLOCK_HZ
#: Main memory access time: 100 ns at 2 GHz.
MAIN_MEMORY_CYCLES = 200
#: Cycles charged to migrate a thread between core types (Section V-A).
MIGRATION_CYCLES = 500


@dataclass(frozen=True)
class BranchPredictorConfig:
    """gshare + bimodal hybrid predictor with BTB and RAS (Table II)."""

    gshare_bits: int = 12
    bimodal_bits: int = 12
    chooser_bits: int = 12
    #: 512 B BTB; 8 bytes per entry gives 64 entries.
    btb_entries: int = 64
    ras_entries: int = 32

    def validate(self) -> None:
        if min(self.gshare_bits, self.bimodal_bits, self.chooser_bits) < 1:
            raise ConfigError("predictor index widths must be positive")
        if self.btb_entries < 1 or self.ras_entries < 1:
            raise ConfigError("BTB and RAS must have at least one entry")


@dataclass(frozen=True)
class CacheConfig:
    """One set-associative cache level."""

    name: str
    size_bytes: int
    assoc: int
    line_bytes: int
    hit_latency: int

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)

    def validate(self) -> None:
        if self.size_bytes % (self.assoc * self.line_bytes) != 0:
            raise ConfigError(f"{self.name}: size not divisible by assoc*line")
        if self.n_sets < 1:
            raise ConfigError(f"{self.name}: fewer than one set")
        if self.line_bytes & (self.line_bytes - 1):
            raise ConfigError(f"{self.name}: line size must be a power of two")
        if self.n_sets & (self.n_sets - 1):
            raise ConfigError(f"{self.name}: set count must be a power of two")


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core parameters (one column of Table II)."""

    name: str
    fetch_width: int
    decode_width: int
    issue_width: int
    retire_width: int
    int_regs: int = 64
    fp_regs: int = 64
    int_queue: int = 32
    fp_queue: int = 16
    rob_entries: int = 64
    int_alus: int = 1
    fp_alus: int = 1
    branch_units: int = 1
    ldst_units: int = 1
    store_queue: int = 16
    load_queue: int = 16
    fetch_queue: int = 16
    predictor: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1I", 8 * 1024, 2, 32, 2)
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1D", 8 * 1024, 2, 32, 2)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig("L2", 1024 * 1024, 8, 32, 10)
    )

    def validate(self) -> None:
        if self.issue_width < 1 or self.retire_width < 1:
            raise ConfigError("issue/retire width must be >= 1")
        if self.fetch_width < self.issue_width:
            raise ConfigError("fetch width narrower than issue width")
        if self.rob_entries < self.issue_width:
            raise ConfigError("ROB smaller than issue width")
        arch_regs = 32
        if self.int_regs <= arch_regs or self.fp_regs <= arch_regs:
            raise ConfigError("physical registers must exceed 32 architectural")
        self.predictor.validate()
        for cache in (self.l1i, self.l1d, self.l2):
            cache.validate()


@dataclass(frozen=True)
class SplConfig:
    """SPL fabric parameters (Section II-A)."""

    rows: int = 24
    cells_per_row: int = 16
    bits_per_cell: int = 8
    sharers: int = 4
    max_partitions: int = 4
    input_queue_entries: int = 16
    output_queue_entries: int = 16
    #: Fabric cycles to load one row's configuration on a context switch of
    #: the partition to a different function.
    config_cycles_per_row: int = 1
    #: Core cycles for a barrier-table update broadcast on the inter-cluster
    #: barrier bus (16 data lines plus control, Section II-B2).
    barrier_bus_latency: int = 10
    #: Maximum thread/application IDs representable in the tables.
    max_ids: int = 256

    @property
    def row_width_bits(self) -> int:
        return self.cells_per_row * self.bits_per_cell

    @property
    def row_width_bytes(self) -> int:
        return self.row_width_bits // 8

    @property
    def output_queue_words(self) -> int:
        """Output queue capacity in words: entries are row-width (16 B)."""
        return self.output_queue_entries * self.row_width_bytes // 4

    def validate(self) -> None:
        if self.rows < 1 or self.cells_per_row < 1:
            raise ConfigError("fabric must have at least one row and cell")
        if self.max_partitions > self.sharers:
            raise ConfigError("cannot have more partitions than sharers")
        if self.rows % self.max_partitions != 0:
            raise ConfigError("rows must divide evenly into max partitions")


def ooo1_config() -> CoreConfig:
    """Single-issue out-of-order core (Table II, OOO1 column)."""
    return CoreConfig(
        name="OOO1",
        fetch_width=2,
        decode_width=2,
        issue_width=1,
        retire_width=1,
        int_alus=1,
        branch_units=1,
    )


def ooo2_config() -> CoreConfig:
    """Dual-issue out-of-order core (Table II, OOO2 column)."""
    return CoreConfig(
        name="OOO2",
        fetch_width=4,
        decode_width=4,
        issue_width=2,
        retire_width=2,
        int_alus=2,
        branch_units=2,
    )


def spl_config() -> SplConfig:
    """Default 24-row, 4-way shared SPL (Section II-A)."""
    return SplConfig()


@dataclass(frozen=True)
class ClusterConfig:
    """One cluster of a heterogeneous CMP."""

    kind: str  # "spl" or "conventional"
    core: CoreConfig
    n_cores: int = 4
    spl: SplConfig = field(default_factory=SplConfig)

    def validate(self) -> None:
        if self.kind not in ("spl", "conventional"):
            raise ConfigError(f"unknown cluster kind {self.kind!r}")
        if self.n_cores < 1:
            raise ConfigError("cluster needs at least one core")
        self.core.validate()
        if self.kind == "spl":
            self.spl.validate()
            if self.n_cores != self.spl.sharers:
                raise ConfigError("SPL sharers must equal cluster core count")


@dataclass(frozen=True)
class SystemConfig:
    """A heterogeneous CMP: a list of clusters plus global parameters."""

    clusters: List[ClusterConfig]
    memory_latency: int = MAIN_MEMORY_CYCLES
    bus_occupancy: int = 4
    migration_cycles: int = MIGRATION_CYCLES
    #: Watchdog: abort if no instruction retires anywhere for this many cycles.
    deadlock_cycles: int = 2_000_000

    @property
    def n_cores(self) -> int:
        return sum(c.n_cores for c in self.clusters)

    def validate(self) -> None:
        if not self.clusters:
            raise ConfigError("system needs at least one cluster")
        for cluster in self.clusters:
            cluster.validate()


# -- run options ---------------------------------------------------------------

#: The escape-hatch environment variables.  Setting a variable to any
#: non-empty value disables the corresponding feature.
#: :meth:`RunOptions.resolve` reads the scheduler switch and the
#: experiment engine the lint switch (repro.experiments.engine).
ENV_NO_FASTFORWARD = "REPRO_NO_FASTFORWARD"
ENV_NO_LINT = "REPRO_NO_LINT"


def env_enabled(var: str) -> bool:
    """True unless the REPRO_NO_* escape hatch ``var`` is set (non-empty)."""
    return not os.environ.get(var)


@dataclass(frozen=True)
class RunOptions:
    """Every knob of one simulation run, in one place.

    ``Machine.run(options=)`` takes nothing else, and ``execute``
    passes its ``options=`` through: construct a ``RunOptions``, resolve
    it once, and pass it around.

    ``fast_forward`` is the one scheduler switch: the compiled walk,
    with its elision and jumps, or the naive per-cycle reference loop
    (see :meth:`Machine.run`).  It defaults to ``None`` = "consult the
    environment"; :meth:`resolve` pins it to a boolean using the
    ``REPRO_NO_FASTFORWARD`` escape hatch.

    ``pause_at`` stops :meth:`Machine.run` at exactly that cycle, with
    every elided window credited — the machine is left in the precise
    mid-run state, counters included, the naive loop would inspect at
    the top of that cycle, which is what makes mid-run snapshots
    deterministic (see DESIGN.md §8).

    ``until`` is a host-side predicate closure; it cannot be serialized
    and therefore never participates in :meth:`fingerprint`.
    """

    max_cycles: int = 1_000_000_000
    #: Stop when this predicate returns True (checked between cycles).
    until: Optional[Callable[[], bool]] = None
    #: Stop at exactly this absolute cycle, in the naive loop's state.
    pause_at: Optional[int] = None
    #: The fast scheduler, the compiled walk with its elision and jumps
    #: (None: env-resolved); False runs the naive per-cycle loop.
    fast_forward: Optional[bool] = None

    def resolve(self) -> "RunOptions":
        """Pin ``fast_forward`` against the environment, once."""
        return replace(
            self,
            fast_forward=(env_enabled(ENV_NO_FASTFORWARD)
                          if self.fast_forward is None else self.fast_forward),
        )

    def fingerprint(self) -> Dict[str, bool]:
        """The execution-affecting knobs, resolved, as a stable mapping.

        Used by the experiment engine's cache key so a result produced
        under one scheduler is never served to a request for the other.
        ``max_cycles``/``until``/``pause_at`` are excluded (run-shape
        inputs the request already encodes, or host-only closures).
        """
        return {"fast_forward": bool(self.resolve().fast_forward)}

    def validate(self) -> None:
        if self.max_cycles < 0:
            raise ConfigError("max_cycles must be >= 0")
        if self.pause_at is not None and self.pause_at < 0:
            raise ConfigError("pause_at must be >= 0")


def remap_cluster(n_cores: int = 4) -> ClusterConfig:
    """An SPL cluster: four OOO1 cores sharing a 24-row fabric."""
    spl = SplConfig(sharers=n_cores)
    return ClusterConfig(kind="spl", core=ooo1_config(), n_cores=n_cores, spl=spl)


def ooo2_cluster(n_cores: int = 4) -> ClusterConfig:
    """A conventional cluster of OOO2 cores (right side of Figure 2(a))."""
    return ClusterConfig(kind="conventional", core=ooo2_config(), n_cores=n_cores)


def ooo1_cluster(n_cores: int = 4) -> ClusterConfig:
    """A conventional cluster of OOO1 cores (homogeneous baseline)."""
    return ClusterConfig(kind="conventional", core=ooo1_config(), n_cores=n_cores)


def remap_system(n_spl_clusters: int = 1, n_ooo2_clusters: int = 1) -> SystemConfig:
    """The ReMAP heterogeneous CMP of Figure 2(a)."""
    clusters = [remap_cluster() for _ in range(n_spl_clusters)]
    clusters += [ooo2_cluster() for _ in range(n_ooo2_clusters)]
    return SystemConfig(clusters=clusters)


def with_cluster_count(config: SystemConfig, n: int) -> SystemConfig:
    """Return a copy of ``config`` with its first cluster replicated ``n`` times."""
    return replace(config, clusters=[config.clusters[0]] * n)
