"""The engine's indexed, selectivity-ordered join machinery."""

from repro.logic import Atom, Comparison, FactStore, Literal, evaluate, negated
from repro.logic.rules import DatalogRule


def facts(**predicates) -> FactStore:
    store = FactStore()
    for predicate, tuples in predicates.items():
        for values in tuples:
            store.add(predicate, tuple(values))
    return store


def dl(head, *body) -> DatalogRule:
    return DatalogRule(head, tuple(body))


class TestJoinOrdering:
    def test_result_independent_of_body_order(self):
        store = facts(
            big=[(i, i % 3) for i in range(60)],
            small=[(0,), (1,)],
        )
        rule_a = dl(
            Atom.of("r", "?x", "?k"),
            Literal(Atom.of("big", "?x", "?k")),
            Literal(Atom.of("small", "?k")),
        )
        rule_b = dl(
            Atom.of("r", "?x", "?k"),
            Literal(Atom.of("small", "?k")),
            Literal(Atom.of("big", "?x", "?k")),
        )
        assert evaluate([rule_a], store).facts("r") == evaluate(
            [rule_b], store
        ).facts("r")

    def test_empty_candidate_short_circuits(self):
        store = facts(a=[(1,)], b=[])
        rule = dl(
            Atom.of("r", "?x"),
            Literal(Atom.of("a", "?x")),
            Literal(Atom.of("b", "?x")),
        )
        assert evaluate([rule], store).facts("r") == set()

    def test_comparisons_defer_until_bound(self):
        store = facts(num=[(5,), (1,)])
        rule = dl(
            Atom.of("r", "?x"),
            Literal(Comparison.of("?x", ">", 2)),  # unbound at first
            Literal(Atom.of("num", "?x")),
        )
        assert evaluate([rule], store).facts("r") == {(5,)}

    def test_negation_defers_until_bound(self):
        store = facts(num=[(1,), (2,)], bad=[(2,)])
        rule = dl(
            Atom.of("r", "?x"),
            negated(Atom.of("bad", "?x")),  # unbound at first
            Literal(Atom.of("num", "?x")),
        )
        assert evaluate([rule], store).facts("r") == {(1,)}

    def test_repeated_variable_join(self):
        store = facts(p=[(1, 1), (1, 2), (3, 3)])
        rule = dl(Atom.of("diag", "?x"), Literal(Atom.of("p", "?x", "?x")))
        assert evaluate([rule], store).facts("diag") == {(1,), (3,)}


class TestScale:
    def test_large_join_completes_quickly(self):
        import time

        n = 2000
        store = facts(
            parent=[(f"k{i}", f"p{i}") for i in range(n)],
            brother=[(f"p{i}", f"u{i}") for i in range(n)],
        )
        rule = dl(
            Atom.of("uncle", "?k", "?u"),
            Literal(Atom.of("parent", "?k", "?p")),
            Literal(Atom.of("brother", "?p", "?u")),
        )
        start = time.monotonic()
        result = evaluate([rule], store)
        elapsed = time.monotonic() - start
        assert len(result.facts("uncle")) == n
        assert elapsed < 2.0, f"join took {elapsed:.2f}s — index regression?"
