"""Safety / range-restriction / allowedness checks for generated rules.

§5 closes with: "As in a deductive database, the generated rules should
be checked to see whether they are *well-defined*, *safe*, or *domain
independent* and *allowed* in the presence of negated body predicates
[8]."  This module implements the standard syntactic conditions (Das,
*Deductive Databases and Logic Programming*):

* **range restriction (safety)** — every head variable occurs in a
  positive, non-comparison body literal, or is reachable from one through
  equality comparisons;
* **allowedness** — every variable of a negative literal also occurs in a
  positive literal (so negation-as-failure is evaluable);
* **comparison groundedness** — every variable of an inequality
  comparison is limited by a positive literal (equalities may *define* a
  variable from a limited one instead).

:func:`check_rule` raises :class:`~repro.errors.SafetyError` with the
offending variables; :func:`is_safe` is the boolean form.
"""

from __future__ import annotations

from typing import Iterable, List, Set

from ..errors import SafetyError
from .atoms import Comparison, ComparisonOp
from .rules import DatalogRule, Rule
from .terms import Variable


def _limited_variables(rule: DatalogRule) -> Set[Variable]:
    """Variables limited by positive literals, closed under equalities.

    A variable is *limited* when it appears in a positive non-comparison
    literal, or in an ``=`` comparison whose other side is a constant or
    an already-limited variable.  Closure iterates to a fixpoint because
    equality chains (``x = y, y = z``) propagate limits.
    """
    limited: Set[Variable] = set()
    for literal in rule.positive_body():
        limited |= literal.variables()
    skolems = [literal.atom for literal in rule.skolems()]
    equalities = [
        literal.atom
        for literal in rule.comparisons()
        if literal.positive and isinstance(literal.atom, Comparison)
        and literal.atom.op in (ComparisonOp.EQ, ComparisonOp.IN)
    ]
    changed = True
    while changed:
        changed = False
        for skolem in skolems:
            arg_variables = [a for a in skolem.args if isinstance(a, Variable)]
            if all(v in limited for v in arg_variables):
                if isinstance(skolem.result, Variable) and skolem.result not in limited:
                    limited.add(skolem.result)
                    changed = True
        for comparison in equalities:
            sides = [comparison.left, comparison.right]
            variables = [s for s in sides if isinstance(s, Variable)]
            grounded = [
                s for s in sides if not isinstance(s, Variable) or s in limited
            ]
            if len(grounded) >= 1 and len(variables) >= 1:
                for variable in variables:
                    if variable not in limited:
                        limited.add(variable)
                        changed = True
    return limited


def violations(rule: DatalogRule) -> List[str]:
    """Human-readable safety violations of *rule* (empty when safe)."""
    problems: List[str] = []
    limited = _limited_variables(rule)

    unlimited_head = sorted(
        v.name for v in rule.head.variables() if v not in limited
    )
    if unlimited_head:
        problems.append(
            f"head variables not range-restricted: {', '.join(unlimited_head)}"
        )

    for literal in rule.negative_body():
        unlimited = sorted(v.name for v in literal.variables() if v not in limited)
        if unlimited:
            problems.append(
                f"negative literal {literal} uses unlimited variables: "
                + ", ".join(unlimited)
            )

    for literal in rule.comparisons():
        atom = literal.atom
        assert isinstance(atom, Comparison)
        if atom.op in (ComparisonOp.EQ, ComparisonOp.IN) and literal.positive:
            # Equalities may define one side; _limited_variables handled them.
            remaining = sorted(
                v.name for v in atom.variables() if v not in limited
            )
            if remaining:
                problems.append(
                    f"comparison {atom} cannot ground variables: "
                    + ", ".join(remaining)
                )
        else:
            unlimited = sorted(v.name for v in atom.variables() if v not in limited)
            if unlimited:
                problems.append(
                    f"comparison {atom} tests unlimited variables: "
                    + ", ".join(unlimited)
                )
    return problems


def is_safe(rule: DatalogRule) -> bool:
    """True when *rule* is range-restricted and allowed."""
    return not violations(rule)


def check_rule(rule: DatalogRule) -> None:
    """Raise :class:`SafetyError` when *rule* is unsafe."""
    problems = violations(rule)
    if problems:
        raise SafetyError(f"rule {rule} is unsafe: " + "; ".join(problems))


def check_surface_rule(rule: Rule) -> None:
    """Check every datalog rule compiled from a surface rule."""
    for compiled in rule.compile():
        check_rule(compiled)


def check_all(rules: Iterable[Rule]) -> List[str]:
    """Collect violations across *rules*; empty list means all safe."""
    problems: List[str] = []
    for rule in rules:
        for compiled in rule.compile():
            for problem in violations(compiled):
                problems.append(f"{rule}: {problem}")
    return problems
