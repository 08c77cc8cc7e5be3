"""Table III: the benchmark registry.

Maps every benchmark to its optimized functions, the fraction of total
program execution time those functions account for (used by the Figure 8/9
whole-program composition), its category, and the variant spec factories.
The Table III columns are plain data; a benchmark's module, which builds
its programs, is imported the first time its ``variants`` are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Callable, Dict, Tuple

CATEGORY_COMP = "computation"
CATEGORY_COMMCOMP = "communication+computation"
CATEGORY_BARRIER = "barrier"


@dataclass(frozen=True)
class BenchmarkInfo:
    """One row of Table III."""

    name: str
    category: str
    functions: str
    exec_fraction: float  # "% Exec Time" / 100
    #: ``"module:attribute"`` under ``repro.workloads`` naming the
    #: variant factories, e.g. ``"g721:VARIANTS_DEC"``.
    variants_path: str
    #: Number of region entries/exits in the whole program, used to charge
    #: migration overhead in the Figure 8 composition (one region phase in
    #: our kernels; real programs enter the region once per invocation).
    region_entries: int = 1

    @property
    def variants(self) -> Dict[str, Callable]:
        """Variant name -> spec factory (imports the benchmark's module)."""
        module, _, attribute = self.variants_path.partition(":")
        return getattr(import_module(f"repro.workloads.{module}"), attribute)


REGISTRY: Dict[str, BenchmarkInfo] = {}


def _add(info: BenchmarkInfo) -> None:
    REGISTRY[info.name] = info


_add(BenchmarkInfo("g721dec", CATEGORY_COMP, "fmult", 0.48,
                   "g721:VARIANTS_DEC"))
_add(BenchmarkInfo("g721enc", CATEGORY_COMP, "fmult", 0.46,
                   "g721:VARIANTS_ENC"))
_add(BenchmarkInfo("mpeg2dec", CATEGORY_COMP,
                   "store_ppm_tga, conv422to444, conv420to422", 0.63,
                   "mpeg2:VARIANTS_DEC"))
_add(BenchmarkInfo("mpeg2enc", CATEGORY_COMP, "dist1", 0.70,
                   "mpeg2:VARIANTS_ENC"))
_add(BenchmarkInfo("gsmtoast", CATEGORY_COMP,
                   "LTP parameters, weighting filter", 0.54,
                   "gsm:VARIANTS_TOAST"))
_add(BenchmarkInfo("gsmuntoast", CATEGORY_COMP,
                   "short term synthesis filtering", 0.76,
                   "gsm:VARIANTS_UNTOAST"))
_add(BenchmarkInfo("libquantum", CATEGORY_COMP,
                   "quantum_toffoli, quantum_cnot", 0.40,
                   "libquantum:VARIANTS"))

_add(BenchmarkInfo("wc", CATEGORY_COMMCOMP, "wc", 1.00, "wc:VARIANTS"))
_add(BenchmarkInfo("unepic", CATEGORY_COMMCOMP,
                   "read_and_huffman_decode", 0.22, "unepic:VARIANTS"))
_add(BenchmarkInfo("cjpeg", CATEGORY_COMMCOMP,
                   "rgb_ycc_convert, jpeg_fdct_islow", 0.50, "cjpeg:VARIANTS"))
_add(BenchmarkInfo("adpcm", CATEGORY_COMMCOMP, "adpcm_decoder", 0.99,
                   "adpcm:VARIANTS"))
# twolf's optimized region is entered once per net with short sequential
# stretches between — the frequent migrations are why it is the paper's
# one exception in Figure 8.
_add(BenchmarkInfo("twolf", CATEGORY_COMMCOMP, "new_dbox_a", 0.30,
                   "twolf:VARIANTS", region_entries=8))
_add(BenchmarkInfo("hmmer", CATEGORY_COMMCOMP, "P7Viterbi", 0.85,
                   "hmmer:VARIANTS"))
_add(BenchmarkInfo("astar", CATEGORY_COMMCOMP, "regwayobj::makebound2",
                   0.33, "astar:VARIANTS"))

_add(BenchmarkInfo("ll2", CATEGORY_BARRIER, "Livermore Loop 2", 1.00,
                   "livermore:LL2_VARIANTS"))
_add(BenchmarkInfo("ll3", CATEGORY_BARRIER, "Livermore Loop 3", 1.00,
                   "livermore:LL3_VARIANTS"))
_add(BenchmarkInfo("ll6", CATEGORY_BARRIER, "Livermore Loop 6", 1.00,
                   "livermore:LL6_VARIANTS"))
_add(BenchmarkInfo("dijkstra", CATEGORY_BARRIER, "Dijkstra's Algorithm",
                   1.00, "dijkstra:VARIANTS"))


def by_category(category: str) -> Tuple[BenchmarkInfo, ...]:
    return tuple(info for info in REGISTRY.values()
                 if info.category == category)


def communicating() -> Tuple[BenchmarkInfo, ...]:
    return by_category(CATEGORY_COMMCOMP)


def computation_only() -> Tuple[BenchmarkInfo, ...]:
    return by_category(CATEGORY_COMP)


def barrier_benchmarks() -> Tuple[BenchmarkInfo, ...]:
    return by_category(CATEGORY_BARRIER)


def table3_rows():
    """Rows of Table III (name, optimized functions, % exec time)."""
    rows = []
    for info in REGISTRY.values():
        if info.category == CATEGORY_BARRIER:
            rows.append((info.name, info.functions, "100%"))
        else:
            rows.append((info.name, info.functions,
                         f"{int(info.exec_fraction * 100)}%"))
    return rows
