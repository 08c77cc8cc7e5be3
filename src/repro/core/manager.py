"""Dynamic fabric management (the paper's [32]: "intelligent fabric
management ... can increase fabric utilization").

The :class:`FabricManager` watches an SPL cluster at run time and adapts
its spatial partitioning to the offered load:

* when the active threads all run the **same** configuration, one shared
  full-width partition maximizes throughput (II is lowest with the most
  rows, and round-robin sharing costs little);
* when they run **different** configurations, temporal sharing would
  thrash the fabric with reconfigurations — the manager instead gives each
  function group a private partition.

Decisions are re-evaluated every ``interval`` cycles from the head of each
core's input queue; repartitioning is only applied at quiescent points
(the controller refuses to repartition with results in flight, in which
case the manager retries at the next interval).  Section II's footnote —
"the virtualization of the fabric makes this dynamic division transparent
to software" — is literal here: programs never change.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.errors import SplError
from repro.common.stats import Stats
from repro.core.controller import SplClusterController


class FabricManager:
    """Adaptive spatial partitioning for one SPL cluster."""

    def __init__(self, controller: SplClusterController, stats: Stats,
                 interval: int = 2048) -> None:
        self.controller = controller
        self.stats = stats
        stats.declare("repartitions", "repartition_deferred")
        self.interval = interval
        self._next_decision = interval
        self._current_plan: Optional[Tuple] = None

    # -- machine hook -------------------------------------------------------------

    def next_event_cycle(self, now: int) -> int:
        """The next decision cycle: every tick before it is a no-op."""
        return self._next_decision if self._next_decision > now \
            else now + 1

    def tick(self, cycle: int) -> None:
        if cycle < self._next_decision:
            return
        self._next_decision = cycle + self.interval
        plan = self._decide()
        if plan is None or plan == self._current_plan:
            return
        row_counts, assignment = plan
        try:
            self.controller.set_partitions(list(row_counts),
                                           list(assignment))
        except SplError:
            # Results in flight: retry at the next interval.
            self.stats.bump("repartition_deferred")
            return
        self._current_plan = plan
        self.stats.bump("repartitions")

    # -- snapshot contract (DESIGN.md §8) ------------------------------------------

    def snapshot_state(self) -> dict:
        return {"next_decision": self._next_decision,
                "current_plan": self._current_plan}

    def restore_state(self, state: dict) -> None:
        self._next_decision = state["next_decision"]
        plan = state["current_plan"]
        # JSON gives lists back; ``tick`` compares plans as tuples.
        self._current_plan = tuple(tuple(part) for part in plan) \
            if plan is not None else None

    # -- policy ---------------------------------------------------------------------

    def _demand(self) -> Dict[int, str]:
        """Map each core slot with pending work to its head function."""
        demand = {}
        for slot, queue in enumerate(self.controller.input_queues):
            request = queue.head()
            if request is None:
                continue
            binding = self.controller.bindings.get(
                (slot, request.config_id))
            if binding is None:
                continue
            demand[slot] = binding.function.name
        return demand

    def _decide(self) -> Optional[Tuple]:
        demand = self._demand()
        if not demand:
            return None
        sharers = self.controller.config.sharers
        rows = self.controller.config.rows
        groups: Dict[str, List[int]] = {}
        for slot, function_name in demand.items():
            groups.setdefault(function_name, []).append(slot)
        if len(groups) <= 1:
            # Homogeneous demand: one shared full-width partition.
            return ((rows,), tuple([0] * sharers))
        n_groups = min(len(groups), self.controller.config.max_partitions)
        if rows % n_groups:
            n_groups = 2 if rows % 2 == 0 else 1
        if n_groups <= 1:
            return ((rows,), tuple([0] * sharers))
        rows_each = rows // n_groups
        assignment = [0] * sharers
        for index, (_, slots) in enumerate(sorted(groups.items())):
            partition = min(index, n_groups - 1)
            for slot in slots:
                assignment[slot] = partition
        return (tuple([rows_each] * n_groups), tuple(assignment))


def attach_fabric_manager(machine, cluster_index: int = 0,
                          interval: int = 2048) -> FabricManager:
    """Attach adaptive partitioning to one of a machine's SPL clusters."""
    cluster = machine.clusters[cluster_index]
    if cluster.controller is None:
        raise SplError(f"cluster {cluster_index} has no SPL fabric")
    manager = FabricManager(cluster.controller,
                            machine.stats.child(f"mgr{cluster_index}"),
                            interval=interval)
    machine.add_controller(manager)
    return manager
