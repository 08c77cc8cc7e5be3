"""The benchmark's workloads: which specs each one regenerates, at what size.

A workload is a list of :class:`Entry` rows.  Each row names one registry
spec (benchmark, variant, fixed parameters such as the thread count) and
a size list: the base size, one step down, one step up, each step 2-4%
of the base.  A row too small for such a step (a thread-parallel loop of
n=8, say, where one step is 12% and costs grow faster than n) has its
base size only.  Seed 0 runs the base sizes.  Any other seed moves half
the rows that have steps one step down and the other half one step up,
so the seed changes the inputs but hardly the amount of work.  Rows are
always submitted in declaration order: the peak RSS of a pass depends
on where in the order its heaviest spec runs, and a shuffled order
moved it by up to 18% from seed to seed.  The simulator only ever
receives the generated :class:`~repro.experiments.engine.SpecRequest`
values.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Tuple

from repro.experiments.engine import SpecRequest, request


class Entry(NamedTuple):
    bench: str
    variant: str
    fixed: Tuple[Tuple[str, int], ...]
    size_key: str
    #: (base, base - step, base + step), or (base,)
    sizes: Tuple[int, ...]

    @property
    def ident(self) -> str:
        """Size-independent identity, shared across workloads."""
        fixed = "".join(f" {key}={value}" for key, value in self.fixed)
        return f"{self.bench}/{self.variant}{fixed}"

    def request(self, size: int) -> SpecRequest:
        return request(self.bench, self.variant,
                       **dict(self.fixed), **{self.size_key: size})


def _sizes(base: int, step: int = 0) -> Tuple[int, ...]:
    return (base, base - step, base + step) if step else (base,)


def _seq_compute() -> List[Entry]:
    # Single-core compiled windows only: no fabric, no barrier.  Sizes
    # are about 0.8x the factory defaults.
    bases = [("g721dec", 32, 1), ("g721enc", 32, 1), ("mpeg2enc", 25, 1),
             ("mpeg2dec", 160, 4), ("gsmtoast", 80, 2),
             ("gsmuntoast", 48, 1), ("libquantum", 40, 1),
             ("adpcm", 320, 8)]
    rows = [Entry(bench, variant, (), "items", _sizes(base, step))
            for bench, base, step in bases
            for variant in ("seq", "seq_ooo2")]
    # ll3 has no OOO2 variant.
    rows.append(Entry("ll3", "seq", (("passes", 5),), "n", _sizes(384, 12)))
    return rows


def _spl_stream() -> List[Entry]:
    # Half the Figure 10/11 quick sizes (hmmer at M=50 R=2, as compcomm
    # needs M >= 48; cjpeg at 200, as it takes multiples of 8).
    rows = []
    stream = [("hmmer", "M", 50, 1), ("wc", "items", 128, 4),
              ("cjpeg", "items", 200, 8), ("adpcm", "items", 192, 4),
              ("unepic", "items", 128, 4), ("twolf", "items", 128, 4),
              ("astar", "items", 96, 3)]
    for bench, key, base, step in stream:
        fixed = (("R", 2),) if bench == "hmmer" else ()
        for variant in ("comm", "compcomm", "ooo2comm"):
            rows.append(Entry(bench, variant, fixed, key,
                              _sizes(base, step)))
    for bench, base, step in (("g721dec", 26, 1), ("gsmtoast", 48, 1),
                              ("libquantum", 26, 1)):
        rows.append(Entry(bench, "spl", (), "items", _sizes(base, step)))
    rows.append(Entry("hmmer", "swqueue", (("R", 2),), "M", _sizes(50, 1)))
    rows.append(Entry("wc", "swqueue", (), "items", _sizes(128, 4)))
    return rows


def _barrier_sweep() -> List[Entry]:
    # At p in {8, 16}: the smallest Figure-12 quick size of each Livermore
    # loop at a fraction of its default passes, and dijkstra at n=12.
    # Only ll3 is large enough for size steps.  barrier_comp of dijkstra
    # stays at n=16: below that, at p=16 it fails its own output check.
    loops = [("ll2", 16, 1, 0), ("ll6", 8, 1, 0), ("ll3", 32, 2, 1),
             ("dijkstra", 12, 0, 0)]
    rows = []
    for bench, base, passes, step in loops:
        variants = ["sw", "barrier"]
        if bench in ("ll3", "dijkstra"):
            variants.append("barrier_comp")
        for p in (8, 16):
            fixed = (("p", p),) + ((("passes", passes),) if passes else ())
            for variant in variants:
                size = 16 if (bench, variant) == ("dijkstra",
                                                  "barrier_comp") else base
                rows.append(Entry(bench, variant, fixed, "n",
                                  _sizes(size, step)))
    return rows


#: Rows of the three engine workloads, keyed by workload name.
GRIDS: Dict[str, List[Entry]] = {
    "seq_compute": _seq_compute(),
    "spl_stream": _spl_stream(),
    "barrier_sweep": _barrier_sweep(),
}

#: Specs the observed-profile workload reuses: (source workload, ident).
OBSERVED = (
    ("seq_compute", "g721dec/seq"),
    ("seq_compute", "libquantum/seq_ooo2"),
    ("spl_stream", "hmmer/compcomm R=2"),
    ("spl_stream", "wc/swqueue"),
    ("barrier_sweep", "ll2/sw p=16 passes=1"),
    ("barrier_sweep", "dijkstra/barrier_comp p=8"),
)

#: A few small rows per engine workload for the test suite's smoke runs.
SMOKE_GRIDS: Dict[str, List[Entry]] = {
    "seq_compute": [Entry("g721dec", "seq", (), "items", _sizes(8, 2)),
                    Entry("adpcm", "seq_ooo2", (), "items", _sizes(64, 8))],
    "spl_stream": [Entry("wc", "compcomm", (), "items", _sizes(32, 8)),
                   Entry("wc", "swqueue", (), "items", _sizes(32, 8))],
    "barrier_sweep": [
        Entry("ll3", "barrier", (("p", 8), ("passes", 1)), "n",
              _sizes(32, 4)),
        Entry("ll2", "sw", (("p", 8), ("passes", 1)), "n", _sizes(8, 2))],
}

SMOKE_OBSERVED = (("seq_compute", "g721dec/seq"),
                  ("spl_stream", "wc/swqueue"),
                  ("barrier_sweep", "ll3/barrier p=8 passes=1"))

WORKLOADS = ("seq_compute", "spl_stream", "barrier_sweep", "observed_profile")


def _draw(rows: List[Entry], seed: int) -> List[Tuple[Entry, int]]:
    """(row, size) pairs in submission order for one seed."""
    if seed == 0:
        return [(row, row.sizes[0]) for row in rows]
    rng = random.Random(seed)
    stepped = [row for row in rows if len(row.sizes) > 1]
    steps = [1, 2] * (len(stepped) // 2) + \
        [rng.choice((1, 2))] * (len(stepped) % 2)
    rng.shuffle(steps)
    sizes = {row.ident: row.sizes[step] for row, step in zip(stepped, steps)}
    return [(row, sizes.get(row.ident, row.sizes[0])) for row in rows]


def spec_label(req: SpecRequest) -> str:
    """Stable key of one request: ``bench/variant k=v ...`` (sorted)."""
    params = "".join(f" {key}={value}" for key, value in req.params)
    return f"{req.label}{params}"


def requests(workload: str, seed: int,
             smoke: bool = False) -> List[SpecRequest]:
    """The requests one pass of ``workload`` submits, in order."""
    grids = SMOKE_GRIDS if smoke else GRIDS
    if workload == "observed_profile":
        picked = []
        for source, ident in (SMOKE_OBSERVED if smoke else OBSERVED):
            drawn = {row.ident: row.request(size)
                     for row, size in _draw(grids[source], seed)}
            picked.append(drawn[ident])
        return picked
    if workload not in grids:
        raise ValueError(f"unknown workload {workload!r} "
                         f"(known: {', '.join(WORKLOADS)})")
    return [row.request(size) for row, size in _draw(grids[workload], seed)]


def every_request() -> List[SpecRequest]:
    """Every request any seed can generate, smoke sizes included."""
    out = {}
    for grids in (GRIDS, SMOKE_GRIDS):
        for rows in grids.values():
            for row in rows:
                for size in row.sizes:
                    req = row.request(size)
                    out[spec_label(req)] = req
    return [out[label] for label in sorted(out)]
