"""Provenance polynomials as Python object trees: the seed's representation.

Test oracle only.  The library holds provenance as node arrays in a
:class:`~repro.relational.compile.NodePool`; these classes are the
row-at-a-time representation the arrays are pinned to.  Every existence
condition is a :class:`BoolExpr` over prediction atoms (:class:`PredIs`,
"the model predicts class ``label`` at inference site ``site_id``"), and
every aggregate cell a :class:`NumExpr` polynomial (COUNT/SUM/AVG,
following the aggregate provenance of [Amsterdamer et al. 2011]).

Both languages evaluate concretely under an assignment of classes to
inference sites, and expose their structure to the tree-walking
consumers in ``tests/oracles/`` (the tree executor, the tree ILP encoder
and the interpreted Holistic objective).  The constructor helpers
(:func:`and_`, :func:`or_`, :func:`not_`, :func:`add_`, :func:`mul_`)
fold constants eagerly, so deterministic sub-predicates disappear from
the polynomial.

Worked example: ``SELECT COUNT(*) FROM R WHERE predict(x) = 'match'``
over rows {0, 1, 2} yields the aggregate cell

    ``LinearSum([(1.0, PredIs(0, 'match')), (1.0, PredIs(1, 'match')),
    (1.0, PredIs(2, 'match'))])``

and ``cell.evaluate({0: 'match', 1: 'nonmatch', 2: 'match'})`` recurses
over the three terms and returns ``2.0``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Union

from repro.errors import ProvenanceError

ClassLabel = Union[int, str]
Assignment = Mapping[int, ClassLabel]


# ---------------------------------------------------------------------------
# Boolean provenance
# ---------------------------------------------------------------------------


class BoolExpr:
    """Base class of boolean provenance expressions."""

    __slots__ = ()

    def evaluate(self, assignment: Assignment) -> bool:
        """Evaluate under ``assignment`` mapping ``site_id -> predicted class``."""
        raise NotImplementedError

    def atoms(self) -> "set[PredIs]":
        """The set of :class:`PredIs` atoms mentioned by this expression."""
        collected: set[PredIs] = set()
        _collect_atoms(self, collected)
        return collected

    def is_true(self) -> bool:
        return isinstance(self, TrueExpr)

    def is_false(self) -> bool:
        return isinstance(self, FalseExpr)


class TrueExpr(BoolExpr):
    """The constant TRUE (deterministically satisfied predicate)."""

    __slots__ = ()

    def evaluate(self, assignment: Assignment) -> bool:
        return True

    def __repr__(self) -> str:
        return "⊤"


class FalseExpr(BoolExpr):
    """The constant FALSE (deterministically violated predicate)."""

    __slots__ = ()

    def evaluate(self, assignment: Assignment) -> bool:
        return False

    def __repr__(self) -> str:
        return "⊥"


TRUE = TrueExpr()
FALSE = FalseExpr()


class PredIs(BoolExpr):
    """Atom: the model at ``site_id`` predicts exactly ``label``."""

    __slots__ = ("site_id", "label")

    def __init__(self, site_id: int, label: ClassLabel) -> None:
        self.site_id = site_id
        self.label = label

    def evaluate(self, assignment: Assignment) -> bool:
        try:
            return assignment[self.site_id] == self.label
        except KeyError as exc:
            raise ProvenanceError(
                f"assignment is missing inference site {self.site_id}"
            ) from exc

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PredIs)
            and self.site_id == other.site_id
            and self.label == other.label
        )

    def __hash__(self) -> int:
        return hash((PredIs, self.site_id, self.label))

    def __repr__(self) -> str:
        return f"[site {self.site_id} = {self.label!r}]"


class AndExpr(BoolExpr):
    """Conjunction of two or more children."""

    __slots__ = ("children",)

    def __init__(self, children: Sequence[BoolExpr]) -> None:
        self.children = tuple(children)

    def evaluate(self, assignment: Assignment) -> bool:
        return all(child.evaluate(assignment) for child in self.children)

    def __repr__(self) -> str:
        return "(" + " ∧ ".join(map(repr, self.children)) + ")"


class OrExpr(BoolExpr):
    """Disjunction of two or more children."""

    __slots__ = ("children",)

    def __init__(self, children: Sequence[BoolExpr]) -> None:
        self.children = tuple(children)

    def evaluate(self, assignment: Assignment) -> bool:
        return any(child.evaluate(assignment) for child in self.children)

    def __repr__(self) -> str:
        return "(" + " ∨ ".join(map(repr, self.children)) + ")"


class NotExpr(BoolExpr):
    """Negation of one child."""

    __slots__ = ("child",)

    def __init__(self, child: BoolExpr) -> None:
        self.child = child

    def evaluate(self, assignment: Assignment) -> bool:
        return not self.child.evaluate(assignment)

    def __repr__(self) -> str:
        return f"¬{self.child!r}"


def and_(*children: BoolExpr) -> BoolExpr:
    """Conjunction with constant folding and flattening."""
    flat: list[BoolExpr] = []
    for child in children:
        if child.is_false():
            return FALSE
        if child.is_true():
            continue
        if isinstance(child, AndExpr):
            flat.extend(child.children)
        else:
            flat.append(child)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return AndExpr(flat)


def or_(*children: BoolExpr) -> BoolExpr:
    """Disjunction with constant folding and flattening."""
    flat: list[BoolExpr] = []
    for child in children:
        if child.is_true():
            return TRUE
        if child.is_false():
            continue
        if isinstance(child, OrExpr):
            flat.extend(child.children)
        else:
            flat.append(child)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return OrExpr(flat)


def not_(child: BoolExpr) -> BoolExpr:
    """Negation with constant folding and double-negation elimination."""
    if child.is_true():
        return FALSE
    if child.is_false():
        return TRUE
    if isinstance(child, NotExpr):
        return child.child
    return NotExpr(child)


def const(value: bool) -> BoolExpr:
    """TRUE/FALSE constant for a concrete boolean."""
    return TRUE if value else FALSE


def _collect_atoms(expr: "BoolExpr | NumExpr", out: set[PredIs]) -> None:
    stack: list[object] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, PredIs):
            out.add(node)
        elif isinstance(node, (AndExpr, OrExpr)):
            stack.extend(node.children)
        elif isinstance(node, NotExpr):
            stack.append(node.child)
        elif isinstance(node, BoolAsNum):
            stack.append(node.expr)
        elif isinstance(node, (AddExpr, MulExpr)):
            stack.extend(node.children)
        elif isinstance(node, DivExpr):
            stack.append(node.numerator)
            stack.append(node.denominator)
        elif isinstance(node, LinearSum):
            stack.extend(term for _, term in node.terms)
        # constants and ConstNum carry no atoms


# ---------------------------------------------------------------------------
# Numeric provenance (aggregate polynomials)
# ---------------------------------------------------------------------------


class NumExpr:
    """Base class of numeric provenance expressions (aggregate cells)."""

    __slots__ = ()

    def evaluate(self, assignment: Assignment) -> float:
        raise NotImplementedError

    def atoms(self) -> set[PredIs]:
        collected: set[PredIs] = set()
        _collect_atoms(self, collected)
        return collected


class ConstNum(NumExpr):
    """A numeric constant."""

    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def evaluate(self, assignment: Assignment) -> float:
        return self.value

    def __repr__(self) -> str:
        return repr(self.value)


class BoolAsNum(NumExpr):
    """Indicator of a boolean provenance expression (1.0 if true else 0.0)."""

    __slots__ = ("expr",)

    def __init__(self, expr: BoolExpr) -> None:
        self.expr = expr

    def evaluate(self, assignment: Assignment) -> float:
        return 1.0 if self.expr.evaluate(assignment) else 0.0

    def __repr__(self) -> str:
        return f"1[{self.expr!r}]"


class AddExpr(NumExpr):
    """Sum of children."""

    __slots__ = ("children",)

    def __init__(self, children: Sequence[NumExpr]) -> None:
        self.children = tuple(children)

    def evaluate(self, assignment: Assignment) -> float:
        return float(sum(child.evaluate(assignment) for child in self.children))

    def __repr__(self) -> str:
        return "(" + " + ".join(map(repr, self.children)) + ")"


class MulExpr(NumExpr):
    """Product of children."""

    __slots__ = ("children",)

    def __init__(self, children: Sequence[NumExpr]) -> None:
        self.children = tuple(children)

    def evaluate(self, assignment: Assignment) -> float:
        result = 1.0
        for child in self.children:
            result *= child.evaluate(assignment)
        return result

    def __repr__(self) -> str:
        return "(" + " · ".join(map(repr, self.children)) + ")"


class DivExpr(NumExpr):
    """Ratio of two numeric expressions (AVG = SUM / COUNT)."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: NumExpr, denominator: NumExpr) -> None:
        self.numerator = numerator
        self.denominator = denominator

    def evaluate(self, assignment: Assignment) -> float:
        den = self.denominator.evaluate(assignment)
        if den == 0.0:
            return float("nan")
        return self.numerator.evaluate(assignment) / den

    def __repr__(self) -> str:
        return f"({self.numerator!r} / {self.denominator!r})"


class LinearSum(NumExpr):
    """Weighted sum ``Σ coeff_i · 1[cond_i]`` — the workhorse for COUNT/SUM.

    COUNT(*) over tuples with existence conditions ``c_i`` is
    ``LinearSum([(1, c_1), ..., (1, c_n)])``; SUM of a deterministic value
    ``v_i`` weights each condition by ``v_i``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Sequence[tuple[float, BoolExpr]]) -> None:
        self.terms = tuple((float(coeff), cond) for coeff, cond in terms)

    def evaluate(self, assignment: Assignment) -> float:
        return float(
            sum(coeff for coeff, cond in self.terms if cond.evaluate(assignment))
        )

    def constant_part(self) -> float:
        """Sum of the coefficients of deterministically-true terms."""
        return float(sum(coeff for coeff, cond in self.terms if cond.is_true()))

    def __repr__(self) -> str:
        inner = " + ".join(f"{coeff}·1[{cond!r}]" for coeff, cond in self.terms)
        return f"Σ({inner})"


def add_(*children: NumExpr) -> NumExpr:
    """Sum with constant folding."""
    const_total = 0.0
    rest: list[NumExpr] = []
    for child in children:
        if isinstance(child, ConstNum):
            const_total += child.value
        elif isinstance(child, AddExpr):
            rest.extend(child.children)
        else:
            rest.append(child)
    if const_total != 0.0 or not rest:
        rest.append(ConstNum(const_total))
    if len(rest) == 1:
        return rest[0]
    return AddExpr(rest)


def mul_(*children: NumExpr) -> NumExpr:
    """Product with constant folding."""
    const_total = 1.0
    rest: list[NumExpr] = []
    for child in children:
        if isinstance(child, ConstNum):
            const_total *= child.value
        elif isinstance(child, MulExpr):
            rest.extend(child.children)
        else:
            rest.append(child)
    if const_total == 0.0:
        return ConstNum(0.0)
    if const_total != 1.0 or not rest:
        rest.insert(0, ConstNum(const_total))
    if len(rest) == 1:
        return rest[0]
    return MulExpr(rest)


def pred_value(site_id: int, class_values: Iterable[tuple[ClassLabel, float]]) -> NumExpr:
    """Numeric value of a prediction: ``Σ_c value(c) · 1[pred = c]``.

    Used when ``M.predict(...)`` appears inside an aggregate, e.g.
    ``AVG(predict(*))`` with classes {0, 1} or the appendix's OCR example
    ``SUM(POWER(10, position) * predict(image))``.
    """
    terms = [(float(value), PredIs(site_id, label)) for label, value in class_values]
    return LinearSum(terms)
