"""Statistics collection: declared, mergeable counter scopes.

Every simulated structure owns a :class:`Stats` scope.  Scopes form a tree
so that a whole-chip report can be produced with :meth:`Stats.report`.
Counters are plain dict entries for speed: the simulator bumps them
millions of times per run.

Two usage styles coexist:

* **Declared scopes** (the simulator's own structures): the component
  declares every counter it will ever touch up front with
  :meth:`Stats.declare` (or the ``schema`` constructor argument).  A
  typo'd key then raises :class:`~repro.common.errors.StatsError` at the
  first use instead of silently creating a new counter.  Declared
  counters are zero-initialized, so a hot call site may bind the
  scope's ``counters`` dict once at construction and add to it
  directly (``cnt[key] += 1`` is ``bump(key)`` without the method
  call); the core, its predictor and its cache port do.
* **Open scopes** (tests, ad-hoc instrumentation): without a declaration,
  :meth:`bump`/:meth:`set` create counters on first write, exactly as the
  original API did — existing call sites keep working unchanged.

For engine-side aggregation, :meth:`Stats.merge` folds another scope tree
into this one, and :func:`merge_counters` sums already-flattened
``{"scope.path.counter": value}`` mappings (the form :class:`RunResult`
serializes).
"""

from __future__ import annotations

from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Tuple)

from repro.common.errors import StatsError


class Stats:
    """A named scope of integer/float counters with child scopes."""

    __slots__ = ("name", "counters", "children", "declared")

    def __init__(self, name: str,
                 schema: Optional[Iterable[str]] = None) -> None:
        self.name = name
        self.counters: Dict[str, float] = {}
        self.children: List["Stats"] = []
        self.declared: Optional[frozenset] = None
        if schema is not None:
            self.declare(*schema)

    # -- declaration -------------------------------------------------------

    def declare(self, *keys: str) -> None:
        """Declare the counters this scope may use (idempotent union).

        Declared counters are zero-initialized; once a scope has any
        declaration, writes to undeclared keys raise :class:`StatsError`.
        """
        for key in keys:
            self.counters.setdefault(key, 0)
        known = self.declared or frozenset()
        self.declared = known | frozenset(keys)

    # -- tree construction -------------------------------------------------

    def child(self, name: str,
              schema: Optional[Iterable[str]] = None) -> "Stats":
        scope = Stats(name, schema=schema)
        self.children.append(scope)
        return scope

    # -- counter access ----------------------------------------------------

    def bump(self, key: str, amount: float = 1) -> None:
        try:
            self.counters[key] += amount
        except KeyError:
            if self.declared is not None:
                raise StatsError(
                    f"scope {self.name!r} never declared counter "
                    f"{key!r}") from None
            self.counters[key] = amount

    def set(self, key: str, value: float) -> None:
        if self.declared is not None and key not in self.declared:
            raise StatsError(
                f"scope {self.name!r} never declared counter {key!r}")
        self.counters[key] = value

    def get(self, key: str, default: float = 0) -> float:
        return self.counters.get(key, default)

    # -- traversal ---------------------------------------------------------

    def walk(self, prefix: str = "") -> Iterator[Tuple[str, str, float]]:
        """Yield (scope_path, counter, value) for this scope and children.

        Declared-but-never-touched counters (still zero) are skipped so
        that flattened output stays as compact as the pre-declaration
        format.
        """
        path = f"{prefix}{self.name}"
        for key in sorted(self.counters):
            value = self.counters[key]
            if value:
                yield path, key, value
        for child in self.children:
            yield from child.walk(prefix=f"{path}.")

    def total(self, key: str) -> float:
        """Sum of ``key`` over this scope and all descendants.

        For many keys at once use :meth:`totals`, which visits the
        subtree a single time instead of once per key.
        """
        value = self.counters.get(key, 0)
        for child in self.children:
            value += child.total(key)
        return value

    def totals(self) -> Dict[str, float]:
        """Every counter summed over the whole subtree, in one pass.

        Reports that need several subtree totals were accidentally
        quadratic when they called :meth:`total` once per counter; this
        walks the tree exactly once.
        """
        out: Dict[str, float] = {}
        stack: List[Stats] = [self]
        while stack:
            scope = stack.pop()
            for key, value in scope.counters.items():
                if value:
                    out[key] = out.get(key, 0) + value
            stack.extend(scope.children)
        return out

    def find(self, name: str) -> Optional["Stats"]:
        """Depth-first search for a child scope by name."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    # -- aggregation -------------------------------------------------------

    def merge(self, other: "Stats") -> None:
        """Fold ``other``'s counters (and children, by name) into this tree.

        Used by engine-side aggregation when several runs of the same
        machine shape are combined; unknown counters and child scopes are
        adopted wholesale (declarations are not enforced across merges —
        the other tree already validated its own writes).
        """
        for key, value in other.counters.items():
            if value:
                self.counters[key] = self.counters.get(key, 0) + value
                if self.declared is not None and key not in self.declared:
                    self.declared = self.declared | frozenset((key,))
        mine = {child.name: child for child in self.children}
        for child in other.children:
            target = mine.get(child.name)
            if target is None:
                target = self.child(child.name)
                mine[child.name] = target
            target.merge(child)

    # -- snapshot contract (DESIGN.md §8) ----------------------------------

    def snapshot_state(self) -> dict:
        """Full counter tree, including zero-valued declared counters.

        Declarations themselves are construction-time wiring and are not
        captured: restore targets a freshly rebuilt tree whose scopes have
        already declared their schemas.
        """
        return {
            "name": self.name,
            "counters": [[key, self.counters[key]]
                         for key in sorted(self.counters)],
            "children": [child.snapshot_state() for child in self.children],
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite this tree's counters from ``state``.

        The rebuilt tree must have the same shape (scope names and child
        order) as the snapshotted one; any divergence means the machine
        was reconstructed from a different configuration.
        """
        if state["name"] != self.name:
            raise StatsError(
                f"snapshot scope {state['name']!r} does not match "
                f"rebuilt scope {self.name!r}")
        if len(state["children"]) != len(self.children):
            raise StatsError(
                f"scope {self.name!r}: snapshot has "
                f"{len(state['children'])} child scopes, rebuilt tree "
                f"has {len(self.children)}")
        # Mutate in place: hot call sites bind this exact dict at
        # construction (see the module docstring).
        self.counters.clear()
        self.counters.update((key, value) for key, value in state["counters"])
        for child, child_state in zip(self.children, state["children"]):
            child.restore_state(child_state)

    # -- rendering ---------------------------------------------------------

    def report(self, indent: int = 0) -> str:
        lines = [f"{'  ' * indent}{self.name}:"]
        for key in sorted(self.counters):
            value = self.counters[key]
            if not value:
                continue
            text = f"{value:.4g}" if isinstance(value, float) else str(value)
            lines.append(f"{'  ' * (indent + 1)}{key} = {text}")
        for child in self.children:
            lines.append(child.report(indent + 1))
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, float]:
        """Flatten to {"scope.path.counter": value}."""
        return {f"{path}.{key}": value for path, key, value in self.walk()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Stats({self.name!r}, {len(self.counters)} counters)"


def merge_counters(*flats: Mapping[str, float]) -> Dict[str, float]:
    """Sum flattened counter mappings (``RunResult.counters`` form)."""
    out: Dict[str, float] = {}
    for flat in flats:
        for key, value in flat.items():
            out[key] = out.get(key, 0) + value
    return out
