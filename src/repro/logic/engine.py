"""Bottom-up evaluation of virtual rules: a stratified datalog engine.

The paper equips the integrated schema with derivation rules (Principles
3-5) and evaluates them "at an abstract level" without touching local
autonomy (Appendix B).  This module is the production evaluation path: a
semi-naive, stratified bottom-up engine over ground facts.

* Facts live in a :class:`FactStore` — per-predicate sets of value
  tuples.  :func:`facts_from_database` compiles an
  :class:`~repro.model.database.ObjectDatabase` into ``inst$C`` /
  ``att$C$a`` / ``is_a`` facts (one ``att`` fact per element of a
  multivalued value, which turns the paper's ``∈`` correspondences into
  plain joins).
* Programs are collections of :class:`~repro.logic.rules.DatalogRule`;
  negation is handled by stratification (rules with ``¬`` on a predicate
  evaluate in a later stratum), matching the paper's reliance on ref [8]
  for well-defined rule sets.
* :func:`evaluate` materializes all derivable facts; :class:`QueryEngine`
  wraps it with conjunctive queries like ``?- uncle('John', y)``.

:func:`compile_body` and :class:`JoinPlan` are the package's only
conjunctive join, run set-at-a-time.  Rule bodies in :func:`evaluate`
(semi-naive, with the delta literal), query goals in
:meth:`QueryEngine.ask`, and the rule bodies and goals of the faithful
*top-down* algorithm of Appendix B (:mod:`repro.logic.labelled`, which
hands it per-call tables) all run through it.

* **The compiler.**  :func:`compile_body` turns a body and the delta
  literal's index into a :class:`JoinPlan`.  The plan fixes the literal
  order, each positive atom's probe position, equality checks and
  bound slots, and the step at which each comparison, ``=``-binding,
  skolem and negation runs: the first one where its variables are
  bound.  An unsafe body raises :class:`~repro.errors.EvaluationError`.
* **The plan key.**  Plans are cached by (body shape, delta index).
  The shape keeps predicates, operators, signs and variable names but
  not constants: those are the plan's parameters, so
  ``person(level=3)`` and ``person(level=4)`` share one plan.
* **The executor.**  :meth:`JoinPlan.run` carries a list of plain value
  tuples through the steps.  An atom bound at its first argument (an
  O-term's ``inst$C`` / ``att$C$a`` atoms once the object is) reads the
  per-layer records of that value, and consecutive such atoms on one
  object run as one star step, one record probe per row and layer.  An
  atom bound elsewhere probes the per-layer index buckets of its bound
  value; one with nothing bound tries every fact of its predicate.
  Rows are built in full before the caller adds anything to a store,
  and answer dicts and derived heads are built from the final rows
  only.

Two Hypothesis suites check it: against a naive nested-loop evaluator
(``tests/logic/test_compiled_joins.py``), and Appendix B's top-down
evaluator against the bottom-up one (``tests/logic/test_evaluator_parity.py``).
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..errors import EvaluationError
from .atoms import Atom, Comparison, ComparisonOp, Literal, Skolem
from .oterms import TypingOTerm, att_predicate, inst_predicate
from .rules import DatalogRule, Rule, compile_rules
from .terms import Constant, Term, Variable

FactTuple = Tuple[Any, ...]
#: one index bucket: the only fact with that value, or a set of them
Bucket = Union[FactTuple, Set[FactTuple]]


def _insert(index: Dict[Any, Bucket], value: Any, values: FactTuple) -> None:
    bucket = index.get(value)
    if bucket is None:
        index[value] = values
    elif isinstance(bucket, set):
        bucket.add(values)
    else:
        index[value] = {bucket, values}


def _file(records: Dict[Any, Dict[str, Bucket]], predicate: str, values: FactTuple) -> None:
    """File a fact in a layer's *records*, under its first value."""
    record = records.get(values[0])
    if record is None:
        records[values[0]] = {predicate: values}
    else:
        _insert(record, predicate, values)


def _patched_index(
    index: Dict[Any, Bucket],
    position: int,
    gone: Set[FactTuple],
    new: Set[FactTuple],
) -> Dict[Any, Bucket]:
    """A copy of one predicate's *index* at *position* without the facts
    *gone* and with the facts *new*; only the buckets they touch are
    rebuilt (as new objects), every other bucket is shared."""
    changed: Dict[Any, Set[FactTuple]] = {}

    def rebuilt(value: Any) -> Set[FactTuple]:
        if value not in changed:
            bucket = index.get(value)
            if bucket is None:
                changed[value] = set()
            elif isinstance(bucket, set):
                changed[value] = set(bucket)
            else:
                changed[value] = {bucket}
        return changed[value]

    for values in gone:
        if position < len(values):
            rebuilt(values[position]).discard(values)
    for values in new:
        if position < len(values):
            rebuilt(values[position]).add(values)
    patched = dict(index)
    for value, members in changed.items():
        if not members:
            patched.pop(value, None)
        elif len(members) == 1:
            patched[value] = next(iter(members))
        else:
            patched[value] = members
    return patched


def _patched_records(
    records: Dict[Any, Dict[str, Bucket]],
    changes: Sequence[Tuple[str, Set[FactTuple], Set[FactTuple]]],
) -> Dict[Any, Dict[str, Bucket]]:
    """A copy of a layer's *records* after *changes*, each ``(predicate,
    facts gone, facts new)``; only the records of the objects they touch
    are rebuilt (as new dicts), every other record is shared."""
    changed: Dict[Tuple[Any, str], Set[FactTuple]] = {}

    def rebuilt(key: Any, predicate: str) -> Set[FactTuple]:
        members = changed.get((key, predicate))
        if members is None:
            bucket = records.get(key, {}).get(predicate)
            if bucket is None:
                members = set()
            elif isinstance(bucket, set):
                members = set(bucket)
            else:
                members = {bucket}
            changed[(key, predicate)] = members
        return members

    for predicate, gone, new in changes:
        for values in gone:
            if values:
                rebuilt(values[0], predicate).discard(values)
        for values in new:
            if values:
                rebuilt(values[0], predicate).add(values)
    patched = dict(records)
    copied: Set[Any] = set()
    for (key, predicate), members in changed.items():
        if key not in copied:
            copied.add(key)
            patched[key] = dict(records.get(key, {}))
        record = patched[key]
        if not members:
            record.pop(predicate, None)
        elif len(members) == 1:
            record[predicate] = next(iter(members))
        else:
            record[predicate] = members
    for key in copied:
        if not patched[key]:
            del patched[key]
    return patched


def _bucket(
    indexes: Sequence[Dict[Any, Bucket]], value: Any
) -> Union[Set[FactTuple], Tuple[FactTuple, ...]]:
    """The facts under *value* in the indexes of one predicate's layers.

    One matching layer's bucket is returned as it is (a bare fact comes
    back as a 1-tuple); when several layers match, a set unions copies,
    so a fact two sibling layers hold appears once.
    """
    found: Optional[Bucket] = None
    merged: Optional[Set[FactTuple]] = None
    for index in indexes:
        bucket = index.get(value)
        if bucket is None:
            continue
        if found is None:
            found = bucket
            continue
        if merged is None:  # a second layer matches: union a copy
            merged = set(found) if isinstance(found, set) else {found}
        if isinstance(bucket, set):
            merged |= bucket
        else:
            merged.add(bucket)
    if merged is not None:
        return merged
    if found is None:
        return ()
    return found if isinstance(found, set) else (found,)


class FactStore:
    """Ground facts grouped by predicate name, optionally layered.

    A store owns one writable layer and may sit over read-only *parent*
    stores: reads see the union of every layer, writes go to the own
    layer, and a fact a parent already holds is not added again.
    :func:`evaluate` layers derived facts over its base this way instead
    of copying it, and the federation composes a query's lifted facts
    from cached per-granule slices.  Parents must not be written while
    a store is layered over them.

    Each layer keeps, lazily, its *records* (:meth:`records`): every
    fact of the layer grouped by its first value and then by predicate,
    ``{oid: {predicate: bucket}}`` — one object's O-term, which a star
    join (:class:`_Star`) reads with one probe per row.  A probe at a
    later position reads a ``(predicate, position)`` index, built
    lazily in one pass on the first probe that needs it (:meth:`index`).
    A bucket holding one fact is kept as the bare fact tuple.  Indexes and
    records are published by a single assignment, so threads probing one
    shared read-only store may race to build them and still agree.  A
    shared store is changed only by :meth:`patched`, which returns a new
    store and leaves this one as it was.
    """

    def __init__(self, *parents: "FactStore") -> None:
        self._facts: Dict[str, Set[FactTuple]] = {}
        self._index: Dict[Tuple[str, int], Dict[Any, Bucket]] = {}
        #: first value -> predicate -> bucket, once :meth:`records` built it
        self._records: Optional[Dict[Any, Dict[str, Bucket]]] = None
        #: every parent layer, flattened (parents of parents included)
        self._parents: Tuple["FactStore", ...] = tuple(
            dict.fromkeys(
                layer for parent in parents for layer in (parent, *parent._parents)
            )
        )
        #: predicate -> the parent layers holding it (parents never change)
        self._holding: Dict[str, Tuple["FactStore", ...]] = {}
        #: predicate -> (own facts when merged, union over the layers)
        self._merged: Dict[str, Tuple[int, Set[FactTuple]]] = {}

    def holders(self, predicate: str) -> Tuple["FactStore", ...]:
        """The layers holding *predicate*: parents first, then this one.

        Every read of a predicate — index probes, scans, negation tests —
        starts here, so a subclass can fill a predicate on first use.
        """
        own = (self,) if predicate in self._facts else ()
        if not self._parents:
            return own
        holding = self._holding.get(predicate)
        if holding is None:
            holding = tuple(p for p in self._parents if predicate in p._facts)
            self._holding[predicate] = holding
        return holding + own

    def index(self, predicate: str, position: int) -> Dict[Any, Bucket]:
        """This layer's index of *predicate* at *position* (past the
        first: :meth:`records` groups by that), built lazily in one pass
        and published by a single assignment."""
        index = self._index.get((predicate, position))
        if index is not None:
            return index
        index = {}
        for values in self._facts.get(predicate, ()):
            if position < len(values):
                _insert(index, values[position], values)
        self._index[(predicate, position)] = index
        return index

    def records(self) -> Dict[Any, Dict[str, Bucket]]:
        """This layer's facts keyed by their first value, then by
        predicate (a bucket as in :meth:`index`); built lazily in one
        pass over the layer, then kept current by :meth:`add`."""
        records = self._records
        if records is not None:
            return records
        records = {}
        for predicate, facts in self._facts.items():
            for values in facts:
                if values:
                    _file(records, predicate, values)
        self._records = records
        return records

    def add(self, predicate: str, values: FactTuple) -> bool:
        """Add a fact to the own layer; True when no layer held it."""
        for parent in self._parents:
            if values in parent._facts.get(predicate, ()):
                return False
        bucket = self._facts.get(predicate)
        if bucket is None:
            bucket = self._facts[predicate] = set()
        elif values in bucket:
            return False
        bucket.add(values)
        if self._index:
            for position, value in enumerate(values):
                index = self._index.get((predicate, position))
                if index is not None:
                    _insert(index, value, values)
        if self._records is not None and values:
            _file(self._records, predicate, values)
        return True

    def patched(self, removed: "FactStore", added: "FactStore") -> "FactStore":
        """A new flat store holding ``(self − removed) ∪ added``.

        Copy-on-write: predicates the patch leaves alone share this
        store's fact sets and index dicts.  A changed predicate gets a
        copied set, and each index built here a copied dict in which
        only the buckets of changed facts are replaced; built records
        are copied the same way, rebuilding only the records of the
        objects whose facts changed.  This store is never written, so
        readers holding it are unaffected.  Flat stores only; *removed*
        and *added* are read as flat too.
        """
        assert not self._parents, "patched() copies flat stores only"
        store = FactStore()
        store._facts = dict(self._facts)
        # snapshots: another reader may publish an index or the records
        store._index = dict(self._index)
        records = self._records
        changes: List[Tuple[str, Set[FactTuple], Set[FactTuple]]] = []
        for predicate in {*removed._facts, *added._facts}:
            old = self._facts.get(predicate, set())
            incoming = added._facts.get(predicate, set())
            gone = (old & removed._facts.get(predicate, set())) - incoming
            new = incoming - old
            if not gone and not new:
                continue
            changes.append((predicate, gone, new))
            facts = (old - gone) | new
            if facts:
                store._facts[predicate] = facts
            else:
                del store._facts[predicate]
            for key, index in list(store._index.items()):
                if key[0] != predicate:
                    continue
                if facts:
                    store._index[key] = _patched_index(index, key[1], gone, new)
                else:
                    del store._index[key]
        if records is not None:
            store._records = _patched_records(records, changes) if changes else records
        return store

    def facts(self, predicate: str) -> Set[FactTuple]:
        holders = self.holders(predicate)
        if len(holders) == 1:
            return holders[0]._facts[predicate]
        if not holders:
            return set()
        # only the own layer grows, so its size dates the cached union
        own = len(self._facts.get(predicate, ()))
        merged = self._merged.get(predicate)
        if merged is None or merged[0] != own:
            merged = (own, set().union(*(h._facts[predicate] for h in holders)))
            self._merged[predicate] = merged
        return merged[1]

    def contains(self, predicate: str, values: FactTuple) -> bool:
        return any(
            values in layer._facts[predicate] for layer in self.holders(predicate)
        )

    def predicates(self) -> Tuple[str, ...]:
        return tuple(
            dict.fromkeys(
                predicate
                for layer in (*self._parents, self)
                for predicate in layer._facts
            )
        )

    def __len__(self) -> int:
        return sum(len(self.facts(predicate)) for predicate in self.predicates())

    def __iter__(self) -> Iterator[Tuple[str, FactTuple]]:
        for predicate in self.predicates():
            for values in self.facts(predicate):
                yield predicate, values


def iter_value_elements(descriptor: str, value: Any) -> Iterator[Tuple[str, Any]]:
    """Yield ``(flattened descriptor, scalar)`` pairs for one value.

    Scalars yield themselves; frozensets yield one pair per element;
    nested records (dicts — the §2 complex-attribute values) flatten to
    dotted descriptors (``author.name``), matching the Definition 4.1
    path descriptors O-terms use.  ``None`` elements are dropped.
    """
    if value is None:
        return
    if isinstance(value, frozenset):
        for element in value:
            yield from iter_value_elements(descriptor, element)
    elif isinstance(value, dict):
        for key, nested in value.items():
            yield from iter_value_elements(f"{descriptor}.{key}", nested)
    else:
        yield descriptor, value


def facts_from_database(database: "object") -> FactStore:
    """Compile an object database into a :class:`FactStore`.

    Emits, per instance of class ``C`` (direct extent):

    * ``inst$A(oid)`` for ``C`` and every ancestor ``A`` (extension
      semantics of typing O-terms);
    * ``att$C$a(oid, v)`` per attribute/aggregation value element;
    * ``is_a(child, parent)`` per declared link.

    Attribute facts are emitted for the *declaring* class and inherited
    upward as well, so a rule over a superclass O-term sees subclass
    objects — matching ``{<o:C>} ⊆ {<o':C'>}``.
    """
    store = FactStore()
    schema = database.schema  # type: ignore[attr-defined]
    for child, parent in schema.is_a_links():
        store.add(TypingOTerm.PREDICATE, (child, parent))
    for class_name in schema.class_names:
        lineage = [class_name] + sorted(schema.ancestors(class_name))
        for instance in database.direct_extent(class_name):  # type: ignore[attr-defined]
            oid = instance.oid
            for owner in lineage:
                store.add(inst_predicate(owner), (oid,))
            members: Dict[str, Any] = {}
            members.update(instance.attributes)
            members.update(instance.aggregations)
            for name, value in members.items():
                if value is None:
                    continue
                flattened = list(iter_value_elements(name, value))
                for owner in lineage:
                    owner_class = schema.effective_class(owner)
                    if owner == class_name or owner_class.has_member(name):
                        for descriptor, element in flattened:
                            store.add(att_predicate(owner, descriptor), (oid, element))
    return store


# ----------------------------------------------------------------------
# stratification
# ----------------------------------------------------------------------
def stratify(rules: Sequence[DatalogRule]) -> List[List[DatalogRule]]:
    """Partition *rules* into strata safe for negation.

    Uses the classic numbering relaxation: ``stratum(head) ≥
    stratum(positive body)`` and ``stratum(head) ≥ stratum(negative body)
    + 1``.  Raises :class:`EvaluationError` when no stratification exists
    (negation through recursion).
    """
    predicates = {rule.head.predicate for rule in rules}
    stratum: Dict[str, int] = {predicate: 0 for predicate in predicates}
    limit = len(predicates) + 1
    changed = True
    while changed:
        changed = False
        for rule in rules:
            head = rule.head.predicate
            for literal in rule.body:
                atom = literal.atom
                if not isinstance(atom, Atom):
                    continue  # comparisons and skolems don't constrain strata
                if atom.predicate not in stratum:
                    continue  # base predicate, stratum 0
                required = stratum[atom.predicate] + (0 if literal.positive else 1)
                if stratum[head] < required:
                    stratum[head] = required
                    changed = True
                    if stratum[head] > limit:
                        raise EvaluationError(
                            "program is not stratifiable: negation through "
                            f"recursion involving {head!r}"
                        )
    layers: Dict[int, List[DatalogRule]] = defaultdict(list)
    for rule in rules:
        layers[stratum[rule.head.predicate]].append(rule)
    return [layers[index] for index in sorted(layers)]


# ----------------------------------------------------------------------
# compiled joins
# ----------------------------------------------------------------------
#: one body literal's part of a plan key: (atom kind, sign, predicate /
#: operator / skolem tag, terms), each term a variable's name or None
#: for a constant, which is a plan parameter
ShapeEntry = Tuple[type, bool, Any, Tuple[Optional[str], ...]]
Row = Tuple[Any, ...]


def _take(slots: Sequence[int]) -> Callable[[Row], Row]:
    """A function picking *slots* of a tuple, as a tuple."""
    if not slots:
        return lambda values: ()
    if len(slots) == 1:
        slot = slots[0]
        return lambda values: (values[slot],)
    return itemgetter(*slots)


class _Join:
    """A positive atom: extend each row by every fact matching it.

    With a bound argument (``probe >= 0``) the facts come from the
    per-layer index buckets of the row's value in slot ``key``;
    otherwise every fact of the predicate is tried.  A probe at
    position 0 never runs here: :func:`_plan` hands it to a
    :class:`_Star`.  ``checks`` pairs an argument position with the slot
    of the *extended* row it must equal: other bound arguments, and a
    variable repeated in the atom.
    ``binds`` are the positions whose values extend the row.
    """

    __slots__ = ("predicate", "arity", "delta", "probe", "key", "checks", "_take")

    def __init__(
        self,
        predicate: str,
        arity: int,
        delta: bool,
        probe: int,
        key: int,
        checks: Tuple[Tuple[int, int], ...],
        binds: Tuple[int, ...],
    ) -> None:
        self.predicate = predicate
        self.arity = arity
        self.delta = delta
        self.probe = probe
        self.key = key
        self.checks = checks
        self._take = _take(binds)

    def run(
        self, rows: List[Row], store: FactStore, delta: Optional[FactStore]
    ) -> List[Row]:
        source = delta if self.delta else store
        assert source is not None
        out: List[Row] = []
        if self.probe < 0:
            facts = source.facts(self.predicate)
            for row in rows:
                self._extend(row, facts, out)
            return out
        layers = source.holders(self.predicate)
        if not layers:
            return out
        indexes = [layer.index(self.predicate, self.probe) for layer in layers]
        key = self.key
        if len(indexes) > 1 or self.checks:
            for row in rows:
                self._extend(row, _bucket(indexes, row[key]), out)
            return out
        # one layer, nothing to check: the common warm-read probe, inlined
        # because it measured faster (EXPERIMENTS.md, E-R7)
        index, arity, take, append = indexes[0], self.arity, self._take, out.append
        for row in rows:
            bucket = index.get(row[key])
            if bucket is None:
                continue
            if bucket.__class__ is tuple:
                if len(bucket) == arity:  # type: ignore[arg-type]
                    append(row + take(bucket))  # type: ignore[arg-type]
                continue
            for values in bucket:  # type: ignore[union-attr]
                if len(values) == arity:
                    append(row + take(values))
        return out

    def _extend(self, row: Row, facts: Iterable[FactTuple], out: List[Row]) -> None:
        arity, take, checks = self.arity, self._take, self.checks
        for values in facts:
            if len(values) != arity:
                continue
            extended = row + take(values)
            if checks and any(values[p] != extended[s] for p, s in checks):
                continue
            out.append(extended)


class _Star:
    """Consecutive atoms probing position 0 by the same bound slot —
    ``inst$C(X), att$C$a(X, A), att$C$b(X, B)`` once ``X`` is bound:
    extend each row by every combination of their facts.

    The O-term of §2 flattened by Appendix B, joined back in one probe
    per row and layer: the object's record (:meth:`FactStore.records`)
    holds the facts of every member.  A member with no fact of its arity
    (an absent or NULL attribute) yields no row; a multi-valued one
    yields one row per value.  When several layers hold records of the
    object, a fact two of them hold counts once, as in :func:`_bucket`.
    Each member keeps its :class:`_Join`'s checks (a constant, a
    variable bound before, or one repeated in the atom); a lone atom is
    a star of one.
    """

    __slots__ = ("key", "delta", "joins", "predicates", "members")

    def __init__(self, joins: Sequence[_Join]) -> None:
        self.key = joins[0].key
        self.delta = joins[0].delta
        self.joins = tuple(joins)
        self.predicates = tuple(dict.fromkeys(join.predicate for join in joins))
        #: (predicate, arity, take, nothing to check) per atom, in plan order
        self.members = tuple(
            (join.predicate, join.arity, join._take, not join.checks) for join in joins
        )

    def run(
        self, rows: List[Row], store: FactStore, delta: Optional[FactStore]
    ) -> List[Row]:
        source = delta if self.delta else store
        assert source is not None
        # every member's holders first: a subclass fills a predicate there
        layers = dict.fromkeys(
            layer for predicate in self.predicates for layer in source.holders(predicate)
        )
        maps = [layer.records() for layer in layers]
        out: List[Row] = []
        key, members, append = self.key, self.members, out.append
        for row in rows:
            oid = row[key]
            found = None
            several = None
            for records in maps:
                record = records.get(oid)
                if record is not None:
                    if found is None:
                        found = record
                    elif several is None:
                        several = [found, record]
                    else:
                        several.append(record)
            if found is None:
                continue
            if several is not None:
                self._expand(row, several, out)
                continue
            # one layer holds the object and each member one fact with
            # nothing to check: the common warm-read row, inlined because
            # it measured faster (EXPERIMENTS.md, "Star joins over O-terms")
            extended = row
            for predicate, arity, take, plain in members:
                bucket = found.get(predicate)
                if plain and bucket.__class__ is tuple and len(bucket) == arity:  # type: ignore[arg-type]
                    extended += take(bucket)  # type: ignore[arg-type]
                    continue
                if bucket is not None:  # several facts, or checks: the general path
                    self._expand(row, (found,), out)
                break
            else:
                append(extended)
        return out

    def _expand(
        self, row: Row, records: Sequence[Dict[str, Bucket]], out: List[Row]
    ) -> None:
        """Extend *row* by every combination of one matching fact per
        member, read from the object's *records* (one per layer holding
        it)."""
        rows = [row]
        for join in self.joins:
            grown: List[Row] = []
            facts = _bucket(records, join.predicate)
            for partial in rows:
                join._extend(partial, facts, grown)
            if not grown:
                return
            rows = grown
        out.extend(rows)


class _Test:
    """A comparison whose sides are both bound: keep the rows it holds
    for (fails for a negated one)."""

    __slots__ = ("op", "left", "right", "positive")

    def __init__(self, op: ComparisonOp, left: int, right: int, positive: bool) -> None:
        self.op, self.left, self.right, self.positive = op, left, right, positive

    def run(self, rows: List[Row], store: FactStore, delta: Optional[FactStore]) -> List[Row]:
        test, left, right, positive = self.op.test, self.left, self.right, self.positive
        return [row for row in rows if test(row[left], row[right]) == positive]


class _Assign:
    """``x = y`` with only one side bound: a new slot copies slot ``source``."""

    __slots__ = ("source",)

    def __init__(self, source: int) -> None:
        self.source = source

    def run(self, rows: List[Row], store: FactStore, delta: Optional[FactStore]) -> List[Row]:
        source = self.source
        return [row + (row[source],) for row in rows]


class _Skolem:
    """A skolem over bound arguments: its token ``("sk", tag, *args)``
    fills a new slot (``result < 0``) or must equal slot ``result``."""

    __slots__ = ("tag", "result", "_take")

    def __init__(self, tag: str, args: Tuple[int, ...], result: int) -> None:
        self.tag, self.result, self._take = tag, result, _take(args)

    def run(self, rows: List[Row], store: FactStore, delta: Optional[FactStore]) -> List[Row]:
        prefix, take, result = ("sk", self.tag), self._take, self.result
        if result < 0:
            return [row + (prefix + take(row),) for row in rows]
        return [row for row in rows if row[result] == prefix + take(row)]


class _Absent:
    """A negated atom over bound arguments: keep the rows whose fact no
    layer of the full store holds."""

    __slots__ = ("predicate", "_take")

    def __init__(self, predicate: str, args: Tuple[int, ...]) -> None:
        self.predicate, self._take = predicate, _take(args)

    def run(self, rows: List[Row], store: FactStore, delta: Optional[FactStore]) -> List[Row]:
        contains, predicate, take = store.contains, self.predicate, self._take
        return [row for row in rows if not contains(predicate, take(row))]


Step = Union[_Join, _Star, _Test, _Assign, _Skolem, _Absent]


class JoinPlan:
    """A conjunctive body compiled for one delta literal: the steps to
    run, in order, over rows of values.

    Slot ``i`` of a row holds the body's ``i``-th constant (the plan's
    parameters come first), then each variable in the order the steps
    bind it; :attr:`slots` names the variable slots.
    """

    __slots__ = ("steps", "slots")

    def __init__(self, steps: Tuple[Step, ...], slots: Dict[str, int]) -> None:
        self.steps = steps
        self.slots = slots

    def run(
        self, store: FactStore, params: Sequence[Any], delta: Optional[FactStore] = None
    ) -> List[Row]:
        """Every row satisfying the body over *store* (the delta literal
        reads *delta*), built in full before the caller adds anything."""
        rows: List[Row] = [tuple(params)]
        for step in self.steps:
            rows = step.run(rows, store, delta)
            if not rows:
                break
        return rows


def _shape(body: Sequence[Literal]) -> Tuple[Tuple[ShapeEntry, ...], Tuple[Any, ...]]:
    """*body*'s plan key without its constants, and the constants in the
    order the key lists them."""
    params: List[Any] = []

    def term(value: Term) -> Optional[str]:
        if isinstance(value, Variable):
            return value.name
        params.append(value.value)
        return None

    shape: List[ShapeEntry] = []
    for literal in body:
        atom = literal.atom
        if isinstance(atom, Atom):
            terms, name = atom.args, atom.predicate
        elif isinstance(atom, Comparison):
            terms, name = (atom.left, atom.right), atom.op
        else:
            terms, name = (*atom.args, atom.result), atom.tag
        shape.append((type(atom), literal.positive, name, tuple(map(term, terms))))
    return tuple(shape), tuple(params)


class _Compiler:
    """Orders one body's literals and assigns their slots (see :func:`_plan`)."""

    def __init__(self, width: int) -> None:
        self.width = width
        self.slots: Dict[str, int] = {}
        self.size = width

    def ref(self, term: Union[int, str]) -> Optional[int]:
        """The slot holding *term* (a parameter's slot, or a bound
        variable's), or None for an unbound variable."""
        return term if isinstance(term, int) else self.slots.get(term)

    def new(self, name: str) -> None:
        self.slots[name] = self.size
        self.size += 1

    def builtin(
        self, kind: type, positive: bool, name: Any, terms: Tuple[Any, ...]
    ) -> Optional[Step]:
        """The step for a comparison, skolem or negated atom once its
        variables are bound (an ``=`` once either side is), else None."""
        refs = [self.ref(term) for term in terms]
        if kind is Comparison:
            left, right = refs
            if left is not None and right is not None:
                return _Test(name, left, right, positive)
            if positive and name is ComparisonOp.EQ and (left, right) != (None, None):
                source = left if left is not None else right
                assert source is not None
                self.new(terms[0] if left is None else terms[1])
                return _Assign(source)
            return None
        if kind is Skolem:  # the sign of a skolem carries no meaning
            if any(ref is None for ref in refs[:-1]):
                return None
            args, result = tuple(refs[:-1]), refs[-1]
            if result is None:
                result = -1
                self.new(terms[-1])
            return _Skolem(name, args, result)  # type: ignore[arg-type]
        if not positive and all(ref is not None for ref in refs):
            return _Absent(name, tuple(refs))  # type: ignore[arg-type]
        return None

    def known(self, terms: Tuple[Any, ...]) -> int:
        return sum(self.ref(term) is not None for term in terms)

    def join(self, predicate: str, terms: Tuple[Any, ...], delta: bool) -> _Join:
        """The step for a positive atom: probe its bound argument (a
        variable's before a constant's, then the first), check the
        others, bind the rest."""
        bound = [
            (position, slot)
            for position, slot in enumerate(self.ref(term) for term in terms)
            if slot is not None
        ]
        probe, key = min(bound, key=lambda pair: (pair[1] < self.width, pair[0]), default=(-1, -1))
        checks = [(position, slot) for position, slot in bound if position != probe]
        bound_positions = {position for position, _ in bound}
        binds: List[int] = []
        for position, term in enumerate(terms):
            if position in bound_positions:
                continue
            if term in self.slots:  # repeated in this atom
                checks.append((position, self.slots[term]))
            else:
                self.new(term)
                binds.append(position)
        return _Join(predicate, len(terms), delta, probe, key, tuple(checks), tuple(binds))


@functools.lru_cache(maxsize=1024)
def _plan(shape: Tuple[ShapeEntry, ...], delta_index: Optional[int]) -> Optional[JoinPlan]:
    """Compile a body shape; None when the body is unsafe.

    Comparisons, skolems and negations run at the first step where
    their variables are bound.  Positive atoms go in greedy order: the
    delta literal first, then an atom with a bound argument before one
    without (no cross product while a join is possible), fewer unbound
    arguments first, then body order.  Plans are immutable and hold no
    data, so one cache serves every store and thread; its bound caps
    the distinct body shapes a long-running process keeps.
    """
    counter = itertools.count()
    pending = [
        (number, kind, positive, name, tuple(next(counter) if t is None else t for t in terms))
        for number, (kind, positive, name, terms) in enumerate(shape)
    ]
    compiler = _Compiler(next(counter))
    steps: List[Step] = []
    while True:
        placed = True
        while placed:
            placed = False
            for item in pending:
                number, kind, positive, name, terms = item
                step = None if kind is Atom and positive else compiler.builtin(
                    kind, positive, name, terms
                )
                if step is not None:
                    steps.append(step)
                    pending.remove(item)
                    placed = True
                    break
        atoms = [item for item in pending if item[1] is Atom and item[2]]
        if not atoms:
            break
        item = min(
            atoms,
            key=lambda item: (
                item[0] != delta_index,
                compiler.known(item[4]) == 0,
                len(item[4]) - compiler.known(item[4]),
                item[0],
            ),
        )
        pending.remove(item)
        steps.append(compiler.join(item[3], item[4], item[0] == delta_index))
    if pending:
        return None
    return JoinPlan(_fuse_stars(steps), compiler.slots)


def _fuse_stars(steps: Sequence[Step]) -> Tuple[Step, ...]:
    """*steps* with every atom that probes position 0 in a
    :class:`_Star`, each run of consecutive ones on one bound slot (and
    one store: the delta's or not) fused into one."""
    fused: List[Step] = []
    run: List[_Join] = []

    def close() -> None:
        if run:
            fused.append(_Star(run))
            run.clear()

    for step in steps:
        if isinstance(step, _Join) and step.probe == 0:
            if run and (step.key, step.delta) != (run[0].key, run[0].delta):
                close()
            run.append(step)
        else:
            close()
            fused.append(step)
    close()
    return tuple(fused)


def compile_body(
    body: Sequence[Literal], delta_index: Optional[int] = None
) -> Tuple[JoinPlan, Tuple[Any, ...]]:
    """*body*'s join plan and its parameters (the body's constants).

    The plan is cached by (body shape, *delta_index*): constants are not
    part of the key, so ``person(level=3)`` and ``person(level=4)``
    share one plan.  Run it with ``plan.run(store, params, delta)``.
    """
    shape, params = _shape(body)
    plan = _plan(shape, delta_index)
    if plan is None:
        raise EvaluationError(
            "body cannot be evaluated — unsafe rule slipped through: "
            + ", ".join(str(literal) for literal in body)
        )
    return plan, params


class Goal:
    """A conjunction of goal atoms compiled once: its join plan, its
    parameters (the atoms' constants, in body order) and the answer
    columns, one per distinct variable in order of first appearance.

    *columns* renames those variables in the answer dicts; a repeated
    column keeps its first position and its last value, as successive
    dict assignments would.  :meth:`bind` swaps the parameters and keeps
    the rest, so one compiled goal serves every constant of its shape.
    """

    __slots__ = ("predicates", "plan", "params", "columns", "_take")

    def __init__(self, atoms: Sequence[Atom], columns: Optional[Sequence[str]] = None) -> None:
        plan, params = compile_body([Literal(atom) for atom in atoms])
        names = tuple(
            dict.fromkeys(
                arg.name for atom in atoms for arg in atom.args if isinstance(arg, Variable)
            )
        )
        if columns is not None and len(columns) != len(names):
            raise EvaluationError(
                f"{len(columns)} answer columns for {len(names)} goal variables"
            )
        #: the predicates the goal reads, each once, in body order
        self.predicates = tuple(dict.fromkeys(atom.predicate for atom in atoms))
        self.plan = plan
        self.params = params
        self.columns = names if columns is None else tuple(columns)
        self._take = _take([plan.slots[name] for name in names])

    @classmethod
    def of(cls, goals: Sequence[Union[Atom, "Goal"]]) -> "Goal":
        """*goals* as one compiled goal: a lone :class:`Goal` as it is,
        atoms compiled with their variable names as the columns."""
        if len(goals) == 1 and isinstance(goals[0], Goal):
            return goals[0]
        return cls(goals)  # type: ignore[arg-type]

    def bind(self, params: Sequence[Any]) -> "Goal":
        """This goal with other constants in its constants' places."""
        for value in params:
            Constant(value)  # refuses an unhashable value, as compiling it would
        bound = Goal.__new__(Goal)
        bound.predicates, bound.plan, bound.columns, bound._take = (
            self.predicates,
            self.plan,
            self.columns,
            self._take,
        )
        bound.params = tuple(params)
        return bound

    def values(self, store: FactStore) -> List[Row]:
        """Each answer's column values, in column order."""
        take = self._take
        return [take(row) for row in self.plan.run(store, self.params)]

    def answers(self, store: FactStore) -> List[Dict[str, Any]]:
        """Each answer as a dict from column to value, built once."""
        columns, take = self.columns, self._take
        return [dict(zip(columns, take(row))) for row in self.plan.run(store, self.params)]


def _derive(
    rule: DatalogRule,
    store: FactStore,
    delta: Optional[FactStore] = None,
    delta_index: Optional[int] = None,
) -> List[FactTuple]:
    """The head values of every body solution of *rule* (the body literal
    at *delta_index* reads *delta*: semi-naive)."""
    plan, params = compile_body(rule.body, delta_index=delta_index)
    rows = plan.run(store, params, delta)
    if not rows:
        return []
    head: List[Tuple[Optional[int], Any]] = []
    for arg in rule.head.args:
        if isinstance(arg, Constant):
            head.append((None, arg.value))
        elif arg.name in plan.slots:
            head.append((plan.slots[arg.name], None))
        else:
            raise EvaluationError(f"derived non-ground head {rule.head} from {rule}")
    slots = [slot for slot, _ in head if slot is not None]
    if len(slots) == len(head):
        take = _take(slots)
        return [take(row) for row in rows]
    return [
        tuple(value if slot is None else row[slot] for slot, value in head)
        for row in rows
    ]


def evaluate(
    rules: Iterable[DatalogRule], base: FactStore, max_iterations: int = 100_000
) -> FactStore:
    """Materialize all consequences of *rules* over *base* facts.

    Semi-naive iteration within each stratum: after the first round only
    rule instantiations touching the previous round's new facts fire.
    Derived facts go into a writable layer over the read-only *base*
    (see :class:`FactStore`), which is returned; *base* itself is never
    written, and a program without rules returns it unchanged.
    """
    program = list(rules)
    if not program:
        return base
    store = FactStore(base)
    for layer in stratify(program):
        # Round 0: full evaluation of the layer.
        delta = FactStore()
        for rule in layer:
            predicate = rule.head.predicate
            for values in _derive(rule, store):
                if store.add(predicate, values):
                    delta.add(predicate, values)
        iterations = 0
        while len(delta):
            iterations += 1
            if iterations > max_iterations:
                raise EvaluationError("evaluation did not converge")
            new_delta = FactStore()
            delta_predicates = set(delta.predicates())
            for rule in layer:
                predicate = rule.head.predicate
                for index, literal in enumerate(rule.body):
                    if not (literal.positive and isinstance(literal.atom, Atom)):
                        continue
                    if literal.atom.predicate not in delta_predicates:
                        continue  # this literal cannot touch new facts
                    for values in _derive(rule, store, delta, index):
                        if store.add(predicate, values):
                            new_delta.add(predicate, values)
            delta = new_delta
    return store


class QueryEngine:
    """Conjunctive queries over a rule program and base facts.

    >>> engine = QueryEngine(rules, store)
    >>> engine.ask(Atom.of("uncle", "John", "?y"))
    [{'y': 'Bill'}]

    Materialization happens once, lazily, and is reused across queries.
    *rules* may be surface rules or already flat ones.
    """

    def __init__(self, rules: Iterable[Union[Rule, DatalogRule]], base: FactStore) -> None:
        self._rules = compile_rules(rules)
        self._base = base
        self._materialized: Optional[FactStore] = None

    @property
    def materialized(self) -> FactStore:
        if self._materialized is None:
            self._materialized = evaluate(self._rules, self._base)
        return self._materialized

    def invalidate(self) -> None:
        """Drop the materialization (call after base facts change)."""
        self._materialized = None

    def ask(self, *goals: Union[Atom, Goal]) -> List[Dict[str, Any]]:
        """Answers to the conjunction of *goals* as variable bindings, or
        to one compiled :class:`Goal` under its columns."""
        return Goal.of(goals).answers(self.materialized)

    def holds(self, goal: Atom) -> bool:
        """True when the ground *goal* is derivable."""
        if not goal.is_ground():
            raise EvaluationError(f"holds() needs a ground goal, got {goal}")
        values = tuple(c.value for c in goal.args)  # type: ignore[union-attr]
        return self.materialized.contains(goal.predicate, values)
