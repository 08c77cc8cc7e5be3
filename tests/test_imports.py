"""Import budget: what a fresh interpreter loads for a job.

Each check runs in a subprocess, so that what this test process has
already imported cannot hide an eager import (DESIGN.md section 3,
"Import policy").
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.workloads import registry

SRC = Path(__file__).resolve().parent.parent / "src"

#: What only a simulating command may load.
SIMULATOR = ("repro.cpu", "repro.mem", "repro.system", "repro.core")

#: The machine itself: what a command that builds only workloads (whose
#: SPL functions and programs import ``repro.core`` and
#: ``repro.system.workload``) must not load.
MACHINE = ("repro.system.machine", "repro.cpu.pipeline",
           "repro.cpu.blockgen", "repro.mem")

#: The benchmark modules the registry imports on demand.
BENCHMARK_MODULES = frozenset(
    f"repro.workloads.{info.variants_path.partition(':')[0]}"
    for info in registry.REGISTRY.values())

#: Loaded only by an engine that fans out (``jobs > 1``).
FAN_OUT = ("multiprocessing", "concurrent.futures")


def _modules_after(code: str) -> set:
    """``sys.modules`` of a fresh interpreter after it runs ``code``."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    script = code + "\nimport json, sys\n" \
        "print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _under(modules: set, prefixes) -> list:
    return sorted(name for name in modules
                  if any(name == prefix or name.startswith(prefix + ".")
                         for prefix in prefixes))


def test_tables_load_no_simulator():
    modules = _modules_after("""
from repro.cli import main
for number in ("1", "2", "3"):
    assert main(["table", number]) == 0
""")
    assert "repro.experiments.tables" in modules
    assert not _under(modules, SIMULATOR)
    assert not sorted(BENCHMARK_MODULES & modules)
    assert not _under(modules, FAN_OUT)


def test_list_loads_no_machine():
    modules = _modules_after("""
from repro.cli import main
assert main(["list"]) == 0
""")
    assert "repro.workloads.g721" in modules
    assert not _under(modules, MACHINE)


def test_run_checks_names_before_the_engine():
    modules = _modules_after("""
from repro.cli import main
assert main(["run", "nosuchbench", "seq"]) == 2
""")
    assert not _under(modules, SIMULATOR + ("repro.experiments",))
    assert not sorted(BENCHMARK_MODULES & modules)
    modules = _modules_after("""
from repro.cli import main
assert main(["run", "g721dec", "nosuch"]) == 2
""")
    assert sorted(BENCHMARK_MODULES & modules) == ["repro.workloads.g721"]
    assert not _under(modules, MACHINE + ("repro.experiments",))


def test_observed_commands_check_names_before_the_simulator():
    for argv in (["trace", "nosuchbench"], ["profile", "nosuchbench"],
                 ["profile", "--hot", "nosuchbench"],
                 ["sample", "nosuchbench", "seq"]):
        modules = _modules_after(f"""
from repro.cli import main
assert main({argv!r}) == 2
""")
        assert not _under(modules, SIMULATOR + ("repro.experiments",)), argv
        assert not sorted(BENCHMARK_MODULES & modules), argv


def test_setup_path_compiles_no_benchmark(tmp_path):
    modules = _modules_after(f"""
import repro.cli
from repro.experiments.engine import (ExperimentEngine, code_fingerprint,
                                      request)
ExperimentEngine(jobs=1, cache_dir={str(tmp_path)!r})
ExperimentEngine(jobs=2, cache_dir={str(tmp_path)!r})
code_fingerprint()
for req in (request("ll2", "sw", n=16, p=4, passes=1),
            request("g721dec", "seq", items=4),
            request("wc", "compcomm", items=32)):
    req.cache_key()
""")
    assert "repro.experiments.engine" in modules
    assert not sorted(BENCHMARK_MODULES & modules)
    assert not _under(modules, FAN_OUT)


def test_building_a_spec_imports_only_its_benchmark():
    modules = _modules_after("""
from repro.experiments.engine import build_spec, request
build_spec(request("ll2", "sw", n=16, p=4, passes=1))
""")
    assert sorted(BENCHMARK_MODULES & modules) == ["repro.workloads.livermore"]


def test_package_exports_resolve():
    out = _modules_after("""
import repro
import repro.experiments
for package in (repro, repro.experiments):
    names = dir(package)
    for name in package.__all__:
        assert name in names, (package.__name__, name)
        assert getattr(package, name) is not None, (package.__name__, name)
    try:
        getattr(package, "no_such_name")
    except AttributeError:
        pass
    else:
        raise AssertionError(f"{package.__name__}.no_such_name resolved")
from repro.experiments import ablations
""")
    assert "repro.experiments.ablations" in out
