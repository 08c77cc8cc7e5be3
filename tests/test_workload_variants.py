"""Integration: every Table III benchmark variant runs and verifies.

Each run executes the full simulator stack (OOO cores, MESI hierarchy, SPL
fabric / baseline hardware) and the workload's ``check`` compares the
simulated memory contents against the pure-Python reference kernel.
"""

import pytest

from repro.experiments.runner import execute
from repro.workloads import registry

#: (benchmark, variant, kwargs) for the computation/communication matrix.
_SMALL = {
    "g721enc": {"items": 10},
    "g721dec": {"items": 10},
    "mpeg2enc": {"items": 6},
    "mpeg2dec": {"items": 48},
    "gsmtoast": {"items": 32},
    "gsmuntoast": {"items": 24},
    "libquantum": {"items": 8, "passes": 3},
    "wc": {"items": 64},
    "unepic": {"items": 64},
    "cjpeg": {"items": 64},
    "adpcm": {"items": 96},
    "twolf": {"items": 64},
    "hmmer": {"M": 48, "R": 2},
    "astar": {"items": 48},
}

_COMP_VARIANTS = ("seq", "seq_ooo2", "spl")
_COMM_VARIANTS = ("seq", "seq_ooo2", "spl", "comm", "compcomm", "ooo2comm",
                  "swqueue")


def _cases():
    cases = []
    for info in registry.computation_only():
        for variant in _COMP_VARIANTS:
            cases.append((info.name, variant))
    for info in registry.communicating():
        variants = _COMM_VARIANTS
        if info.name == "hmmer":
            pass  # hmmer exposes the same variant names
        for variant in variants:
            cases.append((info.name, variant))
    return cases


@pytest.mark.parametrize("bench,variant", _cases())
def test_region_variant_verifies(bench, variant):
    info = registry.REGISTRY[bench]
    kwargs = dict(_SMALL[bench])
    if bench == "libquantum" and variant in ("seq", "seq_ooo2", "spl"):
        pass
    elif "passes" in kwargs and bench != "libquantum":
        kwargs.pop("passes")
    spec = info.variants[variant](**kwargs)
    result = execute(spec)  # raises on check failure
    assert result.cycles > 0
    assert result.energy_joules > 0


_BARRIER_CASES = [
    ("ll2", "seq", {"n": 16, "passes": 2}),
    ("ll2", "sw", {"n": 16, "passes": 2, "p": 4}),
    ("ll2", "barrier", {"n": 16, "passes": 2, "p": 4}),
    ("ll2", "barrier", {"n": 16, "passes": 2, "p": 8}),
    ("ll2", "hwbar", {"n": 16, "passes": 2, "p": 4}),
    ("ll3", "seq", {"n": 64, "passes": 3}),
    ("ll3", "sw", {"n": 64, "passes": 3, "p": 4}),
    ("ll3", "barrier", {"n": 64, "passes": 3, "p": 4}),
    ("ll3", "barrier_comp", {"n": 64, "passes": 3, "p": 4}),
    ("ll3", "barrier_comp", {"n": 64, "passes": 3, "p": 8}),
    ("ll3", "hwbar", {"n": 64, "passes": 3, "p": 8}),
    ("ll6", "seq", {"n": 16, "passes": 2}),
    ("ll6", "sw", {"n": 16, "passes": 2, "p": 4}),
    ("ll6", "barrier", {"n": 16, "passes": 2, "p": 4}),
    ("ll6", "hwbar", {"n": 16, "passes": 2, "p": 4}),
    ("dijkstra", "seq", {"n": 16}),
    ("dijkstra", "sw", {"n": 16, "p": 4}),
    ("dijkstra", "barrier", {"n": 16, "p": 4}),
    ("dijkstra", "barrier_comp", {"n": 16, "p": 4}),
    ("dijkstra", "barrier_comp", {"n": 16, "p": 8}),
    ("dijkstra", "hwbar", {"n": 16, "p": 4}),
]


@pytest.mark.parametrize("bench,variant,kwargs", _BARRIER_CASES)
def test_barrier_variant_verifies(bench, variant, kwargs):
    info = registry.REGISTRY[bench]
    spec = info.variants[variant](**kwargs)
    result = execute(spec)
    assert result.cycles > 0


def test_sixteen_thread_barrier_all_benchmarks():
    """p=16 spans four SPL clusters and the inter-cluster barrier bus."""
    for bench, kwargs in (("ll3", {"n": 64, "passes": 2, "p": 16}),
                          ("dijkstra", {"n": 20, "p": 16})):
        info = registry.REGISTRY[bench]
        execute(info.variants["barrier"](**kwargs))
        execute(info.variants["barrier_comp"](**kwargs))


def test_registry_table3_complete():
    rows = registry.table3_rows()
    assert len(rows) == 18
    names = {row[0] for row in rows}
    for expected in ("g721enc", "hmmer", "dijkstra", "wc", "ll3"):
        assert expected in names
    assert registry.REGISTRY["hmmer"].exec_fraction == 0.85
    assert registry.REGISTRY["wc"].exec_fraction == 1.0


@pytest.mark.parametrize("n,p", [(3, 4), (7, 8), (15, 16)])
def test_dijkstra_barrier_comp_rejects_fewer_nodes_than_threads(n, p):
    """An empty per-thread chunk would scan past the distance array and
    win the fabric min-reduction with a bogus value, so the spec refuses
    such sizes instead of computing wrong distances."""
    from repro.common.errors import WorkloadError
    with pytest.raises(WorkloadError, match="n >= p"):
        registry.REGISTRY["dijkstra"].variants["barrier_comp"](n=n, p=p)


def test_dijkstra_barrier_comp_smallest_valid_size_verifies():
    spec = registry.REGISTRY["dijkstra"].variants["barrier_comp"](n=4, p=4)
    assert execute(spec).cycles > 0
