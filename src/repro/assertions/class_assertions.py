"""Class-level correspondence assertions (§4, Fig 3).

A :class:`ClassAssertion` is the full structured declaration of Fig 3::

    S1(A1, ..., An)  θ  S2.B                 (θ from Table 1)
    value correspondence of attributes in S1: ...
    value correspondence of attributes in S2: ...
    attribute correspondence: ...
    agg_function correspondence: ...

For the five set-relationship kinds the left side is a single class; the
derivation kind allows several source classes (``S1(parent, brother) →
S2.uncle``).  All four correspondence groups are optional — most of the
paper's examples fill only some.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence, Tuple

from ..errors import AssertionSpecError, PathError
from ..model.schema import Schema
from .aggregation_assertions import AggregationCorrespondence
from .attribute_assertions import AttributeCorrespondence
from .kinds import ClassKind, flipped as flip_kind
from .paths import Path
from .value_assertions import ValueCorrespondence


@dataclasses.dataclass
class ClassAssertion:
    """One correspondence assertion between classes of two schemas.

    Parameters
    ----------
    kind:
        A :class:`~repro.assertions.kinds.ClassKind`.
    sources:
        Class paths on the left side.  Exactly one for the set kinds; one
        or more for DERIVATION.  All must share one schema.
    target:
        The right-side class path.
    value_corrs_left / value_corrs_right:
        Intra-schema value correspondences of the left / right schema.
    attribute_corrs / aggregation_corrs:
        Cross-schema member correspondences (oriented left → right).
    """

    kind: ClassKind
    sources: Tuple[Path, ...]
    target: Path
    value_corrs_left: Tuple[ValueCorrespondence, ...] = ()
    value_corrs_right: Tuple[ValueCorrespondence, ...] = ()
    attribute_corrs: Tuple[AttributeCorrespondence, ...] = ()
    aggregation_corrs: Tuple[AggregationCorrespondence, ...] = ()

    def __post_init__(self) -> None:
        if not self.sources:
            raise AssertionSpecError("an assertion needs at least one source class")
        if self.kind is not ClassKind.DERIVATION and len(self.sources) != 1:
            raise AssertionSpecError(
                f"{self.kind} assertions relate exactly one class per side; "
                f"got {len(self.sources)} sources"
            )
        schemas = {path.schema for path in self.sources}
        if len(schemas) != 1:
            raise AssertionSpecError(
                f"all source classes must come from one schema, got {schemas}"
            )
        if self.target.schema in schemas:
            raise AssertionSpecError(
                "assertions relate classes of two different schemas; both "
                f"sides are in {self.target.schema!r}"
            )
        for path in self.sources + (self.target,):
            if not path.is_class_path:
                raise AssertionSpecError(
                    f"assertion sides must be class paths, got {path}"
                )
        for corr in self.value_corrs_left:
            if corr.schema != self.left_schema:
                raise AssertionSpecError(
                    f"left value correspondence {corr} is not in schema "
                    f"{self.left_schema!r}"
                )
        for corr in self.value_corrs_right:
            if corr.schema != self.right_schema:
                raise AssertionSpecError(
                    f"right value correspondence {corr} is not in schema "
                    f"{self.right_schema!r}"
                )
        for corr in self.attribute_corrs:
            self._check_orientation(corr.left, corr.right, str(corr))
        for corr in self.aggregation_corrs:
            self._check_orientation(corr.left, corr.right, str(corr))

    def _check_orientation(self, left: Path, right: Path, text: str) -> None:
        if left.schema != self.left_schema or right.schema != self.right_schema:
            raise AssertionSpecError(
                f"correspondence {text} is not oriented "
                f"{self.left_schema} → {self.right_schema}"
            )

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------
    @property
    def left_schema(self) -> str:
        return self.sources[0].schema

    @property
    def right_schema(self) -> str:
        return self.target.schema

    @property
    def source(self) -> Path:
        """The single source class (set-relationship kinds only)."""
        if len(self.sources) != 1:
            raise AssertionSpecError(
                f"derivation assertion {self} has {len(self.sources)} sources"
            )
        return self.sources[0]

    @property
    def source_classes(self) -> Tuple[str, ...]:
        return tuple(path.class_name for path in self.sources)

    @property
    def target_class(self) -> str:
        return self.target.class_name

    def classes_of(self, schema_name: str) -> Tuple[str, ...]:
        """The class names this assertion mentions in *schema_name*."""
        if schema_name == self.left_schema:
            return self.source_classes
        if schema_name == self.right_schema:
            return (self.target_class,)
        return ()

    # ------------------------------------------------------------------
    # orientation
    # ------------------------------------------------------------------
    def flipped(self) -> "ClassAssertion":
        """The same assertion with left and right exchanged.

        Derivation assertions are inherently directional; flipping one
        raises (declare the other direction separately, as Figs 6-7 do).
        """
        if self.kind is ClassKind.DERIVATION:
            raise AssertionSpecError(
                "derivation assertions are directional and cannot be flipped"
            )
        return ClassAssertion(
            kind=flip_kind(self.kind),  # type: ignore[arg-type]
            sources=(self.target,),
            target=self.source,
            value_corrs_left=self.value_corrs_right,
            value_corrs_right=self.value_corrs_left,
            attribute_corrs=tuple(c.flipped() for c in self.attribute_corrs),
            aggregation_corrs=tuple(c.flipped() for c in self.aggregation_corrs),
        )

    # ------------------------------------------------------------------
    # validation against actual schemas
    # ------------------------------------------------------------------
    def validate(self, left: Schema, right: Schema) -> None:
        """Resolve every path against the two schemas.

        *left* must be the schema of the source classes, *right* of the
        target.  Raises :class:`PathError` on any dangling path, and
        :class:`AssertionSpecError` when the schemas are passed in the
        wrong order.
        """
        if left.name != self.left_schema or right.name != self.right_schema:
            raise AssertionSpecError(
                f"assertion {self.head()} validates against "
                f"({self.left_schema}, {self.right_schema}); got "
                f"({left.name}, {right.name})"
            )
        for path in self.sources:
            path.resolve(left)
        self.target.resolve(right)
        for corr in self.value_corrs_left:
            corr.left.resolve(left)
            corr.right.resolve(left)
        for corr in self.value_corrs_right:
            corr.left.resolve(right)
            corr.right.resolve(right)
        for corr in self.attribute_corrs:
            corr.left.resolve(left)
            corr.right.resolve(right)
            if corr.condition is not None:
                condition_schema = (
                    left if corr.condition.attribute.schema == left.name else right
                )
                corr.condition.attribute.resolve(condition_schema)
        for corr in self.aggregation_corrs:
            corr.left.resolve(left)
            corr.right.resolve(right)
            left_class = left.effective_class(corr.left.class_name)
            right_class = right.effective_class(corr.right.class_name)
            if left_class.get_aggregation(corr.left_function) is None:
                raise PathError(
                    f"{corr}: {corr.left_function!r} is not an aggregation "
                    f"function of {corr.left.class_name!r}"
                )
            if right_class.get_aggregation(corr.right_function) is None:
                raise PathError(
                    f"{corr}: {corr.right_function!r} is not an aggregation "
                    f"function of {corr.right.class_name!r}"
                )

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------
    def head(self) -> str:
        """The one-line head, e.g. ``S1(parent, brother) → S2.uncle``."""
        if self.kind is ClassKind.DERIVATION and len(self.sources) > 1:
            inside = ", ".join(path.class_name for path in self.sources)
            left_text = f"{self.left_schema}({inside})"
        else:
            left_text = str(self.sources[0])
        return f"{left_text} {self.kind} {self.target}"

    def describe(self) -> str:
        """Multi-line rendering in the layout of Fig 3 / Fig 4."""
        lines = [self.head()]
        if self.value_corrs_left:
            lines.append(f"  value correspondence of attributes in {self.left_schema}:")
            lines.extend(f"    {corr}" for corr in self.value_corrs_left)
        if self.value_corrs_right:
            lines.append(f"  value correspondence of attributes in {self.right_schema}:")
            lines.extend(f"    {corr}" for corr in self.value_corrs_right)
        if self.attribute_corrs:
            lines.append("  attribute correspondence:")
            lines.extend(f"    {corr}" for corr in self.attribute_corrs)
        if self.aggregation_corrs:
            lines.append("  agg_function correspondence:")
            lines.extend(f"    {corr}" for corr in self.aggregation_corrs)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.head()


def equivalence(
    source: "Path | str",
    target: "Path | str",
    attribute_corrs: Sequence[AttributeCorrespondence] = (),
    aggregation_corrs: Sequence[AggregationCorrespondence] = (),
) -> ClassAssertion:
    """Shorthand constructor for ``A ≡ B`` assertions."""
    return _simple(
        ClassKind.EQUIVALENCE, source, target, attribute_corrs, aggregation_corrs
    )


def inclusion(
    source: "Path | str",
    target: "Path | str",
    attribute_corrs: Sequence[AttributeCorrespondence] = (),
    aggregation_corrs: Sequence[AggregationCorrespondence] = (),
) -> ClassAssertion:
    """Shorthand constructor for ``A ⊆ B`` assertions."""
    return _simple(ClassKind.SUBSET, source, target, attribute_corrs, aggregation_corrs)


def intersection(
    source: "Path | str",
    target: "Path | str",
    attribute_corrs: Sequence[AttributeCorrespondence] = (),
    aggregation_corrs: Sequence[AggregationCorrespondence] = (),
) -> ClassAssertion:
    """Shorthand constructor for ``A ∩ B`` assertions."""
    return _simple(
        ClassKind.INTERSECTION, source, target, attribute_corrs, aggregation_corrs
    )


def exclusion(
    source: "Path | str",
    target: "Path | str",
    attribute_corrs: Sequence[AttributeCorrespondence] = (),
    aggregation_corrs: Sequence[AggregationCorrespondence] = (),
) -> ClassAssertion:
    """Shorthand constructor for ``A ∅ B`` assertions."""
    return _simple(
        ClassKind.EXCLUSION, source, target, attribute_corrs, aggregation_corrs
    )


def derivation(
    sources: Sequence["Path | str"],
    target: "Path | str",
    value_corrs_left: Sequence[ValueCorrespondence] = (),
    value_corrs_right: Sequence[ValueCorrespondence] = (),
    attribute_corrs: Sequence[AttributeCorrespondence] = (),
    aggregation_corrs: Sequence[AggregationCorrespondence] = (),
) -> ClassAssertion:
    """Shorthand constructor for ``S1(A1, ..., An) → S2.B`` assertions."""
    return ClassAssertion(
        kind=ClassKind.DERIVATION,
        sources=tuple(_as_path(s) for s in sources),
        target=_as_path(target),
        value_corrs_left=tuple(value_corrs_left),
        value_corrs_right=tuple(value_corrs_right),
        attribute_corrs=tuple(attribute_corrs),
        aggregation_corrs=tuple(aggregation_corrs),
    )


def _as_path(value: "Path | str") -> Path:
    return value if isinstance(value, Path) else Path.parse(value)


def _simple(
    kind: ClassKind,
    source: "Path | str",
    target: "Path | str",
    attribute_corrs: Sequence[AttributeCorrespondence],
    aggregation_corrs: Sequence[AggregationCorrespondence],
) -> ClassAssertion:
    return ClassAssertion(
        kind=kind,
        sources=(_as_path(source),),
        target=_as_path(target),
        attribute_corrs=tuple(attribute_corrs),
        aggregation_corrs=tuple(aggregation_corrs),
    )
