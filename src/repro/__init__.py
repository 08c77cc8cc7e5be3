"""ReMAP: A Reconfigurable Heterogeneous Multicore Architecture.

A full-system reproduction of Watkins & Albonesi, MICRO 2010: a
cycle-level heterogeneous CMP simulator with a shared Specialized
Programmable Logic (SPL) fabric supporting individual computation,
fine-grained interthread communication with in-flight computation, and
barrier synchronization with integrated global functions.

The names below are resolved on first access (PEP 562), so importing a
submodule such as ``repro.cli`` does not load the simulator.
"""

from importlib import import_module

__version__ = "1.0.0"

#: Public name -> the module that defines it.
_EXPORTS = {
    "remap_system": "repro.common.config",
    "ooo1_config": "repro.common.config",
    "ooo2_config": "repro.common.config",
    "spl_config": "repro.common.config",
    "SystemConfig": "repro.common.config",
    "Dfg": "repro.core.dfg",
    "DfgOp": "repro.core.dfg",
    "SplFunction": "repro.core.function",
    "barrier_reduce_function": "repro.core.function",
    "barrier_token_function": "repro.core.function",
    "identity_function": "repro.core.function",
    "Asm": "repro.isa",
    "MemoryImage": "repro.isa",
    "Program": "repro.isa",
    "ThreadSpec": "repro.isa",
    "EnergyModel": "repro.power.model",
    "Machine": "repro.system.machine",
    "Workload": "repro.system.workload",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
