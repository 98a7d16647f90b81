"""Schemas: named sets of classes organized in an is-a hierarchy (§2, §6.1).

A schema is "a set of classes C" whose members are linked by is-a
(inheritance) and aggregation links.  For the integration algorithms of
§6 a schema is *viewed as a graph*: nodes are classes, arcs are is-a or
aggregation links, and traversal runs along is-a links from a *start
node* — a virtual root added above all parentless classes exactly as the
paper prescribes (Fig 14).

:class:`Schema` therefore exposes both the declarative view (lookup,
validation, subtyping tests) and the graph view (roots, children along
reversed is-a edges, traversal orders) that
:mod:`repro.integration.naive` / :mod:`repro.integration.optimized`
consume.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import (
    CycleError,
    DuplicateDefinitionError,
    ModelError,
    UnknownClassError,
)
from .attributes import ClassType
from .classes import ClassDef

#: Name of the virtual start node added above parentless classes (Fig 14).
#: It is never stored in the schema; the graph view synthesizes it.
VIRTUAL_ROOT = "⊤"  # ⊤


class Schema:
    """A named object-oriented schema.

    Parameters
    ----------
    name:
        Schema name, e.g. ``"S1"``; used in assertions (``S1.person``)
        and in the provenance of integrated concepts.
    classes:
        Initial classes; more can be added with :meth:`add_class`.
    """

    def __init__(self, name: str, classes: Iterable[ClassDef] = ()) -> None:
        if not name:
            raise ModelError("schema name must be non-empty")
        self.name = name
        self._classes: Dict[str, ClassDef] = {}
        for class_def in classes:
            self.add_class(class_def)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_class(self, class_def: ClassDef) -> ClassDef:
        """Add *class_def*; raises on duplicate names."""
        if class_def.name in self._classes:
            raise DuplicateDefinitionError(
                f"schema {self.name!r} already defines class {class_def.name!r}"
            )
        self._classes[class_def.name] = class_def
        return class_def

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def __contains__(self, class_name: str) -> bool:
        return class_name in self._classes

    def __iter__(self) -> Iterator[ClassDef]:
        return iter(self._classes.values())

    def __len__(self) -> int:
        return len(self._classes)

    @property
    def class_names(self) -> Tuple[str, ...]:
        return tuple(self._classes)

    def cls(self, name: str) -> ClassDef:
        """The class called *name*; raises UnknownClassError."""
        try:
            return self._classes[name]
        except KeyError:
            raise UnknownClassError(name, self.name) from None

    def get(self, name: str) -> Optional[ClassDef]:
        """The class called *name*, or None."""
        return self._classes.get(name)

    # ------------------------------------------------------------------
    # is-a hierarchy
    # ------------------------------------------------------------------
    def parents(self, class_name: str) -> Tuple[str, ...]:
        """Direct superclasses of *class_name*."""
        return tuple(self.cls(class_name).parents)

    def children(self, class_name: str) -> Tuple[str, ...]:
        """Direct subclasses of *class_name* (or of the virtual root)."""
        if class_name == VIRTUAL_ROOT:
            return self.roots()
        return tuple(
            c.name for c in self._classes.values() if class_name in c.parents
        )

    def roots(self) -> Tuple[str, ...]:
        """Classes without parents — children of the virtual start node."""
        return tuple(c.name for c in self._classes.values() if not c.parents)

    def ancestors(self, class_name: str) -> Set[str]:
        """All strict ancestors of *class_name* along is-a links."""
        seen: Set[str] = set()
        frontier = list(self.parents(class_name))
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self.parents(current))
        return seen

    def descendants(self, class_name: str) -> Set[str]:
        """All strict descendants of *class_name* along is-a links."""
        seen: Set[str] = set()
        frontier = list(self.children(class_name))
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self.children(current))
        return seen

    def is_subclass(self, sub: str, sup: str) -> bool:
        """True when ``<sub : sup>`` holds (reflexively)."""
        if sub == sup:
            return True
        return sup in self.ancestors(sub)

    def effective_class(self, class_name: str) -> ClassDef:
        """*class_name* with all inherited members merged in.

        Attributes and aggregation functions of ancestors are visible on
        instances of a subclass (``{<o:C>} ⊆ {<o':C'>}`` makes every
        ``C`` object also a ``C'`` object).  The subclass's own
        declaration wins on a name clash, ancestors contribute the rest
        in breadth-first order.
        """
        own = self.cls(class_name)
        merged = own.copy()
        frontier = deque(own.parents)
        visited: Set[str] = set()
        while frontier:
            ancestor_name = frontier.popleft()
            if ancestor_name in visited:
                continue
            visited.add(ancestor_name)
            ancestor = self.cls(ancestor_name)
            for attribute in ancestor.attributes:
                if not merged.has_member(attribute.name):
                    merged.add_attribute(attribute)
            for aggregation in ancestor.aggregations:
                if not merged.has_member(aggregation.name):
                    merged.add_aggregation(aggregation)
            frontier.extend(ancestor.parents)
        return merged

    def is_a_links(self) -> List[Tuple[str, str]]:
        """All ``is_a(child, parent)`` pairs declared in the schema."""
        return [
            (c.name, parent) for c in self._classes.values() for parent in c.parents
        ]

    def aggregation_links(self) -> List[Tuple[str, str, str]]:
        """All ``(domain_class, function_name, range_class)`` triples."""
        return [
            (c.name, agg.name, agg.range_class)
            for c in self._classes.values()
            for agg in c.aggregations
        ]

    def is_a_path(self, descendant: str, ancestor: str) -> Optional[List[str]]:
        """A shortest is-a path ``descendant -> ... -> ancestor``, or None.

        The returned list starts at *descendant* and ends at *ancestor*;
        ``None`` means *ancestor* is not reachable.  Used by Principle 6 /
        §6.2 when hunting redundant links (Fig 12).
        """
        if descendant == ancestor:
            return [descendant]
        previous: Dict[str, str] = {}
        queue = deque([descendant])
        while queue:
            current = queue.popleft()
            for parent in self.parents(current):
                if parent in previous or parent == descendant:
                    continue
                previous[parent] = current
                if parent == ancestor:
                    path = [ancestor]
                    while path[-1] != descendant:
                        path.append(previous[path[-1]])
                    path.reverse()
                    return path
                queue.append(parent)
        return None

    # ------------------------------------------------------------------
    # traversal orders for the integration algorithms
    # ------------------------------------------------------------------
    def bfs_order(self) -> List[str]:
        """Classes in breadth-first order from the virtual root."""
        order: List[str] = []
        seen: Set[str] = set()
        queue = deque(self.roots())
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            order.append(current)
            queue.extend(self.children(current))
        return order

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check referential integrity of the whole schema.

        Raises :class:`UnknownClassError` when a parent, a complex
        attribute type or an aggregation range names a class the schema
        does not define, and :class:`CycleError` when the is-a hierarchy
        is cyclic.
        """
        for class_def in self._classes.values():
            for parent in class_def.parents:
                if parent not in self._classes:
                    raise UnknownClassError(parent, self.name)
            for attribute in class_def.attributes:
                if isinstance(attribute.value_type, ClassType):
                    if attribute.value_type.class_name not in self._classes:
                        raise UnknownClassError(
                            attribute.value_type.class_name, self.name
                        )
            for aggregation in class_def.aggregations:
                if aggregation.range_class not in self._classes:
                    raise UnknownClassError(aggregation.range_class, self.name)
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {name: WHITE for name in self._classes}

        def visit(node: str, trail: List[str]) -> None:
            color[node] = GRAY
            trail.append(node)
            for parent in self._classes[node].parents:
                if color.get(parent) == GRAY:
                    cycle = trail[trail.index(parent):] + [parent]
                    raise CycleError(
                        f"schema {self.name!r} has a cyclic is-a hierarchy: "
                        + " -> ".join(cycle)
                    )
                if color.get(parent) == WHITE:
                    visit(parent, trail)
            trail.pop()
            color[node] = BLACK

        for name in self._classes:
            if color[name] == WHITE:
                visit(name, [])

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """A multi-line, paper-style rendering of every class."""
        lines = [f"schema {self.name}:"]
        for class_def in self._classes.values():
            lines.append("  " + class_def.type_signature())
            for parent in class_def.parents:
                lines.append(f"  is_a({class_def.name}, {parent})")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Schema({self.name!r}, {len(self._classes)} classes)"


def build_hierarchy(
    name: str, edges: Sequence[Tuple[str, str]], extra: Iterable[str] = ()
) -> Schema:
    """Build a bare schema from ``(child, parent)`` is-a edges.

    Convenience used by tests and workload generators that only care
    about hierarchy shape, not attribute content.  *extra* adds isolated
    classes.
    """
    schema = Schema(name)
    mentioned = {n for edge in edges for n in edge} | set(extra)
    for class_name in mentioned:
        schema.add_class(ClassDef(class_name))
    for child, parent in edges:
        schema.cls(child).add_parent(parent)
    schema.validate()
    return schema
