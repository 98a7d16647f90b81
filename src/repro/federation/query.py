"""Global queries against the integrated schema.

A federated query names an integrated class, filters on attribute
values and selects attribute outputs — the ``?- uncle(John, y)`` shape
of Appendix B in object-schema clothing::

    query = FederatedQuery("uncle", where={"niece_nephew": "John"},
                           select=["Ussn#"])
    rows = query.run(engine)

Queries compile to conjunctions of ``inst$C`` / ``att$C$a`` atoms that
either evaluation path answers through the same ``ask(*goals)`` call:
the bottom-up :class:`FederationEngine` or an Appendix B
:class:`~repro.logic.labelled.LabelledProgram`, which evaluates the whole
conjunction over one set of tables.  A small textual form is provided
for the examples::

    FederatedQuery.parse("uncle(niece_nephew='John') -> Ussn#")
"""

from __future__ import annotations

import ast
import dataclasses
import re
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import QueryError
from ..logic.atoms import Atom
from ..logic.engine import Goal
from ..logic.labelled import LabelledProgram
from ..logic.oterms import att_predicate, inst_predicate
from ..logic.terms import Constant, Variable
from .evaluation import FederationEngine

_HEAD_RE = re.compile(r"(?P<cls>[\w$#-]+)\s*\(\s*")
#: one condition and the ``,`` or ``)`` closing it: a quoted constant
#: (one string literal) may hold both, a bare one neither
_COND_RE = re.compile(
    r"""(?P<attr>[\w.$#-]+)\s*=\s*"""
    r"""(?:(?P<quoted>'[^'\\]*(?:\\.[^'\\]*)*'|"[^"\\]*(?:\\.[^"\\]*)*")"""
    r"""|(?P<bare>[^,)]*[^,)\s]|\s))"""
    r"""\s*(?P<end>[,)])\s*"""
)
_SELECT_RE = re.compile(r"\s*(?:->\s*(?P<select>.+))?$")


@dataclasses.dataclass(frozen=True)
class FederatedQuery:
    """A conjunctive query over one integrated class."""

    class_name: str
    where: Tuple[Tuple[str, Any], ...] = ()
    select: Tuple[str, ...] = ()

    @classmethod
    def of(
        cls,
        class_name: str,
        where: Optional[Mapping[str, Any]] = None,
        select: Sequence[str] = (),
    ) -> "FederatedQuery":
        return cls(class_name, tuple((where or {}).items()), tuple(select))

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "FederatedQuery":
        """Build a query from a JSON-shaped mapping (the service wire form).

        Two shapes are accepted: ``{"query": "uncle(...) -> Ussn#"}``
        (the textual DSL) or the structured
        ``{"class": "uncle", "where": {...}, "select": [...]}``.
        """
        if not isinstance(payload, Mapping):
            raise QueryError(
                f"query payload must be a JSON object, got {type(payload).__name__}"
            )
        text = payload.get("query")
        if text is not None:
            if not isinstance(text, str):
                raise QueryError("payload key 'query' must be a string")
            return cls.parse(text)
        class_name = payload.get("class") or payload.get("class_name")
        if not isinstance(class_name, str) or not class_name:
            raise QueryError(
                "query payload needs a 'query' string or a 'class' name"
            )
        where = payload.get("where") or {}
        if not isinstance(where, Mapping):
            raise QueryError("payload key 'where' must be an object")
        select = payload.get("select") or ()
        if isinstance(select, str):
            select = (select,)
        if not isinstance(select, Sequence) or not all(
            isinstance(s, str) for s in select
        ):
            raise QueryError("payload key 'select' must be a list of strings")
        return cls.of(class_name, dict(where), tuple(select))

    def to_payload(self) -> Dict[str, Any]:
        """The structured wire form :meth:`from_payload` round-trips."""
        return {
            "class": self.class_name,
            "where": dict(self.where),
            "select": list(self.select),
        }

    @classmethod
    def parse(cls, text: str) -> "FederatedQuery":
        """Parse ``cls(attr='v', ...) -> out1, out2`` (conditions optional).

        A quoted constant is read as a Python string literal, escapes
        included, so it may hold ``,`` and ``)`` and :meth:`__str__`
        writes one back; a quoted token that is no valid literal (say
        ``'O'Brien'``) keeps the text between its quotes."""
        body = text.strip().removeprefix("?-").strip()
        head = _HEAD_RE.match(body)
        if not head:
            raise QueryError(f"malformed query {text!r}")
        where: Dict[str, Any] = {}
        index = head.end()
        if body.startswith(")", index):
            index += 1
        else:
            while True:
                condition = _COND_RE.match(body, index)
                if not condition:
                    part = re.split(r"[,)]", body[index:], maxsplit=1)[0]
                    raise QueryError(f"malformed condition {part!r} in {text!r}")
                quoted = condition.group("quoted")
                where[condition.group("attr")] = (
                    _parse_value(condition.group("bare"))
                    if quoted is None
                    else _unquote(quoted)
                )
                index = condition.end()
                if condition.group("end") == ")":
                    break
        tail = _SELECT_RE.match(body, index)
        if not tail:
            raise QueryError(f"malformed query {text!r}")
        select_text = tail.group("select") or ""
        select = tuple(s.strip() for s in select_text.split(",") if s.strip())
        return cls(head.group("cls"), tuple(where.items()), select)

    # ------------------------------------------------------------------
    def atoms(self) -> List[Atom]:
        """Compile to a conjunction; object variable is ``?o``."""
        object_var = Variable("o")
        goals: List[Atom] = [Atom(inst_predicate(self.class_name), (object_var,))]
        for attribute, value in self.where:
            goals.append(
                Atom(
                    att_predicate(self.class_name, attribute),
                    (object_var, Constant(value)),
                )
            )
        for index, attribute in enumerate(self.select):
            goals.append(
                Atom(
                    att_predicate(self.class_name, attribute),
                    (object_var, Variable(f"out{index}")),
                )
            )
        return goals

    def goal(self) -> Goal:
        """:meth:`atoms` compiled, answering ``oid`` then the selected
        attributes.  Its parameters are the ``where`` constants in order,
        so it serves every query of this shape (:meth:`Goal.bind`)."""
        return Goal(self.atoms(), ("oid", *self.select))

    def run(
        self, engine: Union[FederationEngine, LabelledProgram]
    ) -> List[Dict[str, Any]]:
        """Execute; rows map selected attribute names (plus ``oid``)."""
        return engine.ask(self.goal())

    def __str__(self) -> str:
        conditions = ", ".join(f"{a}={v!r}" for a, v in self.where)
        outputs = ", ".join(self.select)
        text = f"{self.class_name}({conditions})"
        return f"{text} -> {outputs}" if outputs else text


def _unquote(token: str) -> str:
    if "\\" not in token:  # no escapes: the literal is its inner text
        return token[1:-1]
    try:
        return ast.literal_eval(token)
    except (SyntaxError, ValueError):  # a bad escape: keep the text as written
        return token[1:-1]


def _parse_value(token: str) -> Any:
    token = token.strip()
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "'\"":
        return token[1:-1]
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    if token.lower() in ("true", "false"):
        return token.lower() == "true"
    return token
