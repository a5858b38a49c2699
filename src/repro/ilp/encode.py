"""Complaints + provenance → 0-1 ILP (the TwoStep SQL step, Section 5.2).

Following Tiresias [Meliou & Suciu 2012], the *marked attribute* is the
model prediction: each inference site ``i`` gets one binary variable
``y[i, c]`` per class with ``Σ_c y[i, c] = 1``; the objective minimizes the
number of prediction changes ``Σ_i (1 - y[i, r_i])`` where ``r_i`` is the
current prediction.  Complaints become linear constraints over the boolean
provenance (compound conditions are linearized with auxiliary variables and
the standard AND/OR linking inequalities).

A satisfying assignment is read back as a per-site *target labelling*
``t_i``; sites with ``t_i ≠ r_i`` are the marked mispredictions handed to
the influence step.

:class:`TiresiasEncoder` builds the program straight from the result's
:class:`~repro.relational.compile.NodePool` arrays: aux variables are
allocated in bulk per complaint, the AND/OR linking inequalities land as
CSR constraint blocks, and a subtree shared by several complaints is
linearized once (aux variables are keyed on canonical pool node ids).
Every value complaint goes through one decomposition of its cell node
(:meth:`TiresiasEncoder._numeric`) that covers COUNT/SUM/AVG over
deterministic values and over ``predict()``, with or without a
prediction-dependent ``WHERE``.

Variable allocation order (DFS preorder), constraint order (postorder,
child rows then sum row, complaint row last), within-row coefficient
order and every floating-point accumulation replicate the seed's
recursive walk over provenance expression trees, so the programs — and
therefore the optimal solutions *and* the enumeration order of tied
optima — are byte-identical to it.  That walk is kept as the test oracle
``tests/oracles/tree_encoder.py``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from ..complaints.complaint import (
    PredictionComplaint,
    TupleComplaint,
    ValueComplaint,
    _complaint_node,
)
from ..errors import ILPError
from ..relational.compile import (
    FALSE_NODE,
    OP_ADD,
    OP_AND,
    OP_ATOM,
    OP_CONST,
    OP_DIV,
    OP_MUL,
    OP_NOT,
    OP_OR,
    TRUE_NODE,
    _flat_ranges,
)
from ..relational.executor import QueryResult
from .model import BinaryProgram
from .solver import ILPSolution

Affine = tuple[dict[int, float], float]

# A cell node as the seed's expression constructors would have built it
# (see TiresiasEncoder._numeric): ("const", value), ("bool", canonical
# node), ("lin", coeffs, canonical nodes), ("add", terms), ("mul",
# factors) or ("div", numerator, denominator).
Numeric = tuple

# Expression class names of the numeric shapes, for error messages that
# name the shape the way the seed's walk did.
_SHAPE_NAMES = {
    "const": "ConstNum",
    "bool": "BoolAsNum",
    "lin": "LinearSum",
    "add": "AddExpr",
    "wsum": "AddExpr",
    "mul": "MulExpr",
    "div": "DivExpr",
}

_RATIO_ERROR = (
    "ratio polynomials must be handled at the complaint level "
    "(AVG complaints are cross-multiplied)"
)


def make_encoder(result: QueryResult, complaints: Sequence) -> "TiresiasEncoder":
    """The TwoStep program for ``complaints`` over one debug-mode result."""
    encoder = TiresiasEncoder(result)
    encoder.add_complaints(complaints)
    return encoder


def _affine_add(a: Affine, b: Affine, scale: float = 1.0) -> Affine:
    coeffs = dict(a[0])
    for index, coeff in b[0].items():
        coeffs[index] = coeffs.get(index, 0.0) + scale * coeff
    return coeffs, a[1] + scale * b[1]


class TiresiasEncoder:
    """Builds the TwoStep ILP for one debug-mode query result."""

    def __init__(self, result: QueryResult) -> None:
        if not result.debug or result.pool is None:
            raise ILPError("TwoStep needs a debug-mode query result")
        self.result = result
        self.runtime = result.runtime
        self.program = BinaryProgram()

        self.site_ids = list(range(len(self.runtime.sites)))
        if not self.site_ids:
            raise ILPError("the query contains no model inference; nothing to fix")
        self.classes_by_site: dict[int, list] = {}
        self.current_labels: dict[int, object] = dict(
            enumerate(self.runtime.site_labels())
        )
        # (site_id, label) -> y variable index
        self.y_vars: dict[tuple[int, object], int] = {}

        # One run of the site registry shares a model, so variables and
        # one-hot constraints are laid out run by run in bulk.
        classes_of_model: dict[str, list] = {}
        for start, model_name, _relation, rows in self.runtime.sites.runs():
            classes = classes_of_model.get(model_name)
            if classes is None:
                classes = self.runtime.model_classes(model_name)
                classes_of_model[model_name] = classes
            run_sites = range(start, start + rows.shape[0])
            names = [
                f"y[{site_id},{label}]" for site_id in run_sites for label in classes
            ]
            first = self.program.add_vars(names).start
            k = len(classes)
            self.y_vars.update(
                {
                    (site_id, label): first + offset * k + column
                    for offset, site_id in enumerate(run_sites)
                    for column, label in enumerate(classes)
                }
            )
            self.classes_by_site.update(dict.fromkeys(run_sites, classes))
            for offset in range(rows.shape[0]):
                base = first + offset * k
                self.program.add_constraint(
                    {base + column: 1.0 for column in range(k)}, "=", 1.0
                )

        # Objective: number of changed predictions.
        objective: dict[int, float] = {}
        constant = 0.0
        for site_id in self.site_ids:
            current = self.current_labels[site_id]
            objective[self.y_vars[(site_id, current)]] = -1.0
            constant += 1.0
        self.program.set_objective(objective, constant)

        self.pool = result.pool
        f = self.pool.frozen()
        self._f = f
        self._n_nodes = int(f.op.shape[0])
        structure = f.bool_structure()
        self._rep = structure.rep
        self._eff_start = structure.eff_start
        self._eff_end = structure.eff_end
        self._eff_child = structure.eff_child
        # Plain-list mirrors for the DFS hot loops: python ints index lists
        # several times faster than numpy scalars.  The structure's lists
        # are cached per freeze, shared across encoders on this pool.
        self._rep_l, self._eff_start_l, self._eff_end_l, self._eff_child_l = (
            structure.lists()
        )
        self._op_l = f.op.tolist()
        self._child_l = f.child.tolist()
        self._child_start_l = f.child_start.tolist()
        # Further mirrors for _numeric, built by the first value complaint.
        self._child_end_l: list[int] | None = None
        self._value_l: list[float] = []
        # Canonical node id -> aux variable index (-1 = not yet created);
        # the list is the DFS-side mirror of the array, kept in sync.
        self._aux_var = np.full(self._n_nodes, -1, dtype=np.int64)
        self._aux_l = [-1] * self._n_nodes
        # Fresh conjunctions (see _conjoin) get ids past the pool's nodes;
        # entry i holds the canonical children of conjunction n_nodes + i.
        self._fresh_children: list[list[int]] = []
        # Cell node -> Numeric shape, shared by complaints on one cell.
        self._numeric_memo: dict[int, Numeric] = {}
        # Dense (site, label_id) -> y variable table (-1 = unknown class).
        ytab = np.full((len(self.runtime.sites), len(f.labels)), -1, dtype=np.int64)
        label_ids = self.pool._label_ids
        for (site, label), var in self.y_vars.items():
            label_id = label_ids.get(label)
            if label_id is not None:
                ytab[site, label_id] = var
        self._ytab = ytab
        self.aux_created = 0
        self.aux_reused = 0

    # -- complaints ---------------------------------------------------------------

    def add_complaints(self, complaints: Sequence) -> None:
        for complaint in complaints:
            self.add_complaint(complaint)

    def add_complaint(self, complaint) -> None:
        if isinstance(complaint, ValueComplaint):
            self._add_value_complaint(complaint)
            return
        if isinstance(complaint, TupleComplaint):
            self._add_tuple_complaint(complaint)
            return
        if isinstance(complaint, PredictionComplaint):
            site_id = complaint.site_id(self.result)
            key = (site_id, complaint.label)
            if key not in self.y_vars:
                raise ILPError(f"{complaint.label!r} is not a class of the model")
            self.program.add_constraint({self.y_vars[key]: 1.0}, "=", 1.0)
            return
        raise ILPError(f"unknown complaint type {type(complaint).__name__}")

    def _add_value_complaint(self, complaint: ValueComplaint) -> None:
        node = _complaint_node(complaint, self.result)
        if self._op_l[node] == OP_DIV:
            # AVG: num / den op X  →  num - X·den op 0 (den ≥ 0), with the
            # numerator linearized before the denominator.
            start = self._child_start_l[node]
            numerator = self._num_affine(self._child_l[start])
            denominator = self._num_affine(self._child_l[start + 1])
            affine = _affine_add(numerator, denominator, scale=-complaint.value)
            self.program.add_constraint(affine[0], complaint.op, -affine[1])
            return
        affine = self._num_affine(node)
        self.program.add_constraint(
            affine[0], complaint.op, complaint.value - affine[1]
        )

    def _add_tuple_complaint(self, complaint: TupleComplaint) -> None:
        node = _complaint_node(complaint, self.result)
        if node is None:
            # A lineage tuple that is not even a candidate can never exist:
            # its condition is FALSE, the vacuous row 0 = 0.
            self.program.add_constraint({}, "=", -0.0)
            return
        node = self._rep_l[node]
        post_nodes, post_z, _ = self._linearize_roots([node])
        self._emit_link_rows(post_nodes, post_z)
        var, sign, const = self._bool_affine_arrays(np.asarray([node], dtype=np.int64))
        affine = {int(var[0]): float(sign[0])} if var[0] >= 0 else {}
        self.program.add_constraint(affine, "=", -float(const[0]))

    # -- value complaints: cell shape and affine form ------------------------------

    def _num_affine(self, node: int) -> Affine:
        """Affine form of a numeric cell node, linearizing its conditions.

        Three passes over the node's :meth:`_numeric` shape: collect the
        boolean leaves in the order the seed's walk linearized them,
        linearize them in one bulk DFS (:meth:`_linearize_roots`), then
        accumulate the affine form with the walk's exact floating-point
        operation order.
        """
        if self._child_end_l is None:
            self._child_end_l = self._f.child_end.tolist()
            self._value_l = self._f.value.tolist()
        shape = self._numeric(node)
        leaves: list[int] = []
        self._collect_leaves(shape, leaves)
        post_nodes, post_z, leaf_z = self._linearize_roots(leaves)
        self._emit_link_rows(post_nodes, post_z)
        nodes = np.asarray(leaves, dtype=np.int64)
        fresh = nodes >= self._n_nodes
        var, sign, const = self._bool_affine_arrays(np.where(fresh, FALSE_NODE, nodes))
        if fresh.any():
            var[fresh] = np.asarray(leaf_z, dtype=np.int64)[fresh]
            sign[fresh] = 1.0
        return self._affine(
            shape, iter(zip(var.tolist(), sign.tolist(), const.tolist()))
        )

    def _numeric(self, node: int) -> Numeric:
        """The shape of a numeric node after the seed's constant folds.

        Boolean nodes become ``("bool", rep)``; an ADD whose children are
        all boolean becomes ``("lin", coeffs, reps)`` (COUNT cells, SUM
        over deterministic values whose member values folded away, and
        ``predict()`` values ``Σ_c value(c)·[pred = c]``); other ADDs,
        MULs and DIVs go through :func:`_add_shape` / :func:`_mul_shape`,
        which fold constants and flatten nested sums and products.  A
        weighted ADD child ``coeff ≠ 1`` is the product ``coeff × child``.
        """
        memo = self._numeric_memo
        shape = memo.get(node)
        if shape is not None:
            return shape
        op_l = self._op_l
        op = op_l[node]
        if node <= TRUE_NODE or OP_ATOM <= op <= OP_OR:
            shape = ("bool", self._rep_l[node])
        elif op == OP_CONST:
            shape = ("const", self._value_l[node])
        else:
            start, end = self._child_start_l[node], self._child_end_l[node]
            if op == OP_ADD:
                # COUNT cells have thousands of children: classify in numpy.
                f = self._f
                kids = f.child[start:end]
                kid_ops = f.op[kids]
                coeffs = f.coeff[start:end].tolist()
                if np.all((kids <= TRUE_NODE) | ((kid_ops >= OP_ATOM) & (kid_ops <= OP_OR))):
                    shape = ("lin", coeffs, self._rep[kids].tolist())
                else:
                    children = kids.tolist()
                    shape = self._weighted_sum_shape(coeffs, children)
                if shape is None:
                    terms = []
                    for coeff, child in zip(coeffs, children):
                        term = self._numeric(child)
                        if coeff != 1.0:
                            term = _mul_shape([("const", coeff), term])
                        terms.append(term)
                    shape = _add_shape(terms)
            elif op == OP_MUL:
                factors = []
                for child in self._child_l[start:end]:
                    child_op = op_l[child]
                    if child <= TRUE_NODE or OP_ATOM <= child_op <= OP_OR:
                        factors.append(("bool", self._rep_l[child]))
                    elif child_op == OP_CONST:
                        factors.append(("const", self._value_l[child]))
                    else:
                        factors.append(self._numeric(child))
                shape = _mul_shape(factors)
            else:  # OP_DIV
                numerator, denominator = self._child_l[start:end]
                shape = ("div", self._numeric(numerator), self._numeric(denominator))
        memo[node] = shape
        return shape

    def _weighted_sum_shape(
        self, coeffs: list[float], children: list[int]
    ) -> Numeric | None:
        """A SUM cell over deterministic values as one flat ``"wsum"`` shape.

        Handles unit-weight ADDs whose children are booleans ``b``,
        products ``MUL(b, w)`` of a boolean and a constant, and constants —
        the ``cond × value`` members the executor emits for ``SUM(column)``.
        The shape ``("wsum", nodes, scales, products, tail)`` is the
        ``"add"`` shape the general path builds, one entry per term instead
        of one tuple: term ``i`` is ``scales[i] × nodes[i]``, a product
        (``products[i]``) unless both its constants were exactly 1, and
        ``tail`` is the trailing folded constant (``None`` when the fold
        drops it).  The constant folds replicate :func:`_mul_shape` and
        :func:`_add_shape` for these terms.  Returns ``None`` for any other
        child, or when the sum folds to a single term.
        """
        op_l, rep_l, child_l, value_l = self._op_l, self._rep_l, self._child_l, self._value_l
        start_l, end_l = self._child_start_l, self._child_end_l
        nodes: list[int] = []
        scales: list[float] = []
        products: list[bool] = []
        const_total = 0.0
        for coeff, child in zip(coeffs, children):
            if coeff != 1.0:
                return None  # weighted members: the general path folds them
            op = op_l[child]
            constant = None
            if child <= TRUE_NODE or OP_ATOM <= op <= OP_OR:
                node, scale, product = rep_l[child], 1.0, False
            elif op == OP_CONST:
                constant = value_l[child]
            elif op == OP_MUL and end_l[child] - start_l[child] == 2:
                first = child_l[start_l[child]]
                second = child_l[start_l[child] + 1]
                if first > TRUE_NODE and op_l[first] == OP_CONST:
                    first, second = second, first
                if second <= TRUE_NODE or op_l[second] != OP_CONST:
                    return None
                if not (first <= TRUE_NODE or OP_ATOM <= op_l[first] <= OP_OR):
                    return None
                weight = value_l[second]
                if weight == 0.0:
                    constant = 0.0
                else:
                    node, scale, product = rep_l[first], weight, weight != 1.0
            else:
                return None
            if constant is not None:
                const_total += constant
                continue
            nodes.append(node)
            scales.append(scale)
            products.append(product)
        tail = const_total if const_total != 0.0 or not nodes else None
        if len(nodes) + (tail is not None) < 2:
            return None
        return ("wsum", nodes, scales, products, tail)

    def _collect_leaves(self, shape: Numeric, leaves: list[int]) -> None:
        """Append the boolean terms of ``shape`` in linearization order.

        Each leaf is a canonical pool node (its affine form is shared) or a
        fresh conjunction from :meth:`_conjoin`.  Shapes that have no
        linear form raise :class:`ILPError`.
        """
        kind = shape[0]
        if kind == "bool":
            leaves.append(shape[1])
        elif kind == "lin":
            leaves.extend(shape[2])
        elif kind == "wsum":
            op_l = self._op_l
            for node, product in zip(shape[1], shape[3]):
                if product and op_l[node] == OP_AND:
                    leaves.append(self._conjoin([node]))
                else:
                    leaves.append(node)
        elif kind == "add":
            for term in shape[1]:
                if term[0] == "bool":
                    leaves.append(term[1])
                else:
                    self._collect_leaves(term, leaves)
        elif kind == "mul":
            parts = shape[2]
            if isinstance(parts, str):
                raise ILPError(parts)
            _constant, bools, linear = parts
            if linear is None:
                if bools:
                    leaves.append(self._conjoin(bools))
            else:
                leaves.extend(self._conjoin(bools + [cond]) for cond in linear[2])
        elif kind == "div":
            raise ILPError(_RATIO_ERROR)

    def _conjoin(self, nodes: list[int]) -> int:
        """``and_(*nodes)`` over canonical nodes; new conjunctions are fresh.

        Constants fold and AND operands splice into their effective
        children.  One surviving operand is returned as is (its aux
        variable is shared); two or more make a *fresh* conjunction with
        its own, never-shared aux variable — the seed's walk built a new
        expression object for each such product term.
        """
        flat: list[int] = []
        for node in nodes:
            if node == FALSE_NODE:
                return FALSE_NODE
            if node == TRUE_NODE:
                continue
            if self._op_l[node] == OP_AND:
                flat.extend(self._eff_child_l[self._eff_start_l[node] : self._eff_end_l[node]])
            else:
                flat.append(node)
        if not flat:
            return TRUE_NODE
        if len(flat) == 1:
            return flat[0]
        self._fresh_children.append(flat)
        return self._n_nodes + len(self._fresh_children) - 1

    def _affine(self, shape: Numeric, leaves: Iterator[tuple[int, float, float]]) -> Affine:
        """Affine form of ``shape``, consuming one ``(var, sign, const)`` per leaf.

        Sums accumulate term by term and products scale their accumulated
        sum, in the order the seed's walk did, so every coefficient and
        right-hand side is bit-identical to it.
        """
        kind = shape[0]
        if kind == "const":
            return {}, shape[1]
        if kind == "bool":
            var, sign, const = next(leaves)
            return ({var: sign} if var >= 0 else {}), const
        if kind == "lin":
            return _weighted_sum(shape[1], leaves)
        if kind == "wsum":
            # The "add" accumulation below, one boolean leaf per term.
            coeffs, total = _weighted_sum(shape[2], leaves)
            if shape[4] is not None:
                total = total + shape[4]
            return coeffs, total
        if kind == "add":
            # _affine_add at scale 1.0, accumulated in place.  Terms with a
            # single boolean leaf — ``b`` or ``constant × b`` — merge inline.
            coeffs: dict[int, float] = {}
            total = 0.0
            for term in shape[1]:
                if term[0] == "bool":
                    scale = 1.0
                elif term[0] == "mul" and term[2][2] is None and term[2][1]:
                    scale = term[2][0]
                else:
                    term_coeffs, term_const = self._affine(term, leaves)
                    for index, coeff in term_coeffs.items():
                        coeffs[index] = coeffs.get(index, 0.0) + coeff
                    total = total + term_const
                    continue
                var, sign, const = next(leaves)
                if var >= 0:
                    coeffs[var] = coeffs.get(var, 0.0) + sign * scale
                total = total + const * scale
            return coeffs, total
        # "mul": bool(s) × at most one LinearSum, scaled by the constants.
        constant, bools, linear = shape[2]
        if linear is not None:
            coeffs, constant_part = _weighted_sum(linear[1], leaves)
        elif bools:
            var, sign, constant_part = next(leaves)
            coeffs = {var: sign} if var >= 0 else {}
        else:
            return {}, constant
        return (
            {index: coeff * constant for index, coeff in coeffs.items()},
            constant_part * constant,
        )

    # -- bulk AND/OR linearization ---------------------------------------------

    def _linearize_roots(
        self, roots: Sequence[int]
    ) -> tuple[list[int], list[int], list[int]]:
        """DFS over canonical structure; allocates fresh aux vars in preorder.

        ``roots`` are canonical pool nodes or fresh conjunctions (ids past
        the pool, see :meth:`_conjoin`).  A fresh conjunction always gets a
        brand-new aux variable while its operands still share the cache.
        Returns ``(post_nodes, post_z, root_z)``: the postorder list of
        nodes whose linking rows still need emitting with their aux
        variables, plus each root's fresh variable (-1 for pool nodes).
        Nodes an earlier complaint already linearized are reused.
        """
        aux = self._aux_l
        op_l = self._op_l
        rep_l = self._rep_l
        eff_start = self._eff_start_l
        eff_end = self._eff_end_l
        eff_child = self._eff_child_l
        n_nodes = self._n_nodes
        base = self.program.n_vars
        n_alloc = 0
        reused = 0
        fresh_cached: list[int] = []
        post_nodes: list[int] = []
        post_z: list[int] = []
        root_z: list[int] = [-1] * len(roots)
        # Roots drain one at a time (their subtrees never interleave on
        # the recursive walk either); within a drain the int stack holds
        # canonical AND/OR/NOT nodes to visit, or ``~node`` to emit node's
        # linking rows postorder.  Atom/constant children never allocate
        # or emit, so they are filtered at push time — the traversal order
        # over NOT/AND/OR nodes, and hence the aux variable numbering,
        # matches the recursive walk exactly.
        stack: list[int] = []
        for pos, root in enumerate(roots):
            root = int(root)
            root_emit = -1
            if root >= n_nodes:
                root_emit = base + n_alloc
                n_alloc += 1
                root_z[pos] = root_emit
                r = root
                children = self._fresh_children[root - n_nodes]
            else:
                r = rep_l[root]
                op = op_l[r]
                if op == OP_NOT:
                    inner = rep_l[self._child_l[self._child_start_l[r]]]
                    if op_l[inner] >= OP_NOT:
                        stack.append(inner)
                elif op != OP_AND and op != OP_OR:
                    continue
                elif aux[r] >= 0:
                    reused += 1
                    continue
                else:
                    root_emit = base + n_alloc
                    aux[r] = root_emit
                    n_alloc += 1
                    fresh_cached.append(r)
                    children = eff_child[eff_start[r] : eff_end[r]]
            if root_emit >= 0:
                for child in reversed(children):
                    if op_l[child] >= OP_NOT:
                        stack.append(child)
            while stack:
                node = stack.pop()
                if node < 0:
                    node = ~node
                    post_nodes.append(node)
                    post_z.append(aux[node])
                    continue
                op = op_l[node]
                if op == OP_NOT:
                    inner = rep_l[self._child_l[self._child_start_l[node]]]
                    if op_l[inner] >= OP_NOT:
                        stack.append(inner)
                    continue
                if aux[node] >= 0:
                    reused += 1
                    continue
                z = base + n_alloc
                aux[node] = z
                n_alloc += 1
                fresh_cached.append(node)
                stack.append(~node)
                for child in reversed(eff_child[eff_start[node] : eff_end[node]]):
                    if op_l[child] >= OP_NOT:
                        stack.append(child)
            if root_emit >= 0:
                # The root's own linking rows come last in its postorder.
                post_nodes.append(r)
                post_z.append(root_emit)
        self.aux_reused += reused
        if n_alloc:
            self.program.add_var_block(n_alloc, prefix="aux")
            self.aux_created += n_alloc
            if fresh_cached:
                self._aux_var[np.asarray(fresh_cached, dtype=np.int64)] = [
                    aux[r] for r in fresh_cached
                ]
        return post_nodes, post_z, root_z

    def _emit_link_rows(self, post: list[int], post_z: list[int]) -> None:
        """One CSR block of AND/OR linking rows, in tree postorder.

        Per node: k child rows (``z ≤/≥ child_i``) then the sum row
        (``z ≥/≤ Σ child_i …``), coefficients laid out z-first then
        children in child order — exactly the rows and dict orders the
        recursive walk emits one at a time.  Fresh conjunctions are ANDs
        over their recorded operands.
        """
        if not post:
            return
        f = self._f
        nodes = np.asarray(post, dtype=np.int64)
        z = np.asarray(post_z, dtype=np.int64)
        fresh = nodes >= self._n_nodes
        if fresh.any():
            operands = [
                self._fresh_children[node - self._n_nodes]
                if node >= self._n_nodes
                else self._eff_child_l[self._eff_start_l[node] : self._eff_end_l[node]]
                for node in post
            ]
            k = np.asarray([len(ops) for ops in operands], dtype=np.int64)
            flat_children = np.asarray(
                [child for ops in operands for child in ops], dtype=np.int64
            )
            is_and = fresh | (f.op[np.where(fresh, FALSE_NODE, nodes)] == OP_AND)
        else:
            k = self._eff_end[nodes] - self._eff_start[nodes]
            flat_children = self._eff_child[
                _flat_ranges(self._eff_start[nodes], self._eff_end[nodes])
            ]
            is_and = f.op[nodes] == OP_AND
        n_nodes = nodes.shape[0]
        seg_id = np.repeat(np.arange(n_nodes, dtype=np.int64), k)
        cvar, csign, cconst = self._bool_affine_arrays(flat_children)
        # A variable repeated among one node's children gets its own child
        # row per occurrence, but accumulates into ONE sum-row coefficient
        # at its first occurrence (the tree's dict insertion order).
        pair_key = seg_id * self.program.n_vars + cvar
        n_flat = pair_key.shape[0]
        sum_coeff = -csign
        keep = np.ones(n_flat, dtype=bool)
        if np.unique(pair_key).shape[0] != n_flat:
            order = np.argsort(pair_key, kind="stable")
            sorted_key = pair_key[order]
            first = np.ones(n_flat, dtype=bool)
            first[1:] = sorted_key[1:] != sorted_key[:-1]
            group = np.cumsum(first) - 1
            acc = np.bincount(group, weights=sum_coeff[order])
            first_pos = order[first]
            keep = np.zeros(n_flat, dtype=bool)
            keep[first_pos] = True
            sum_coeff = sum_coeff.copy()
            sum_coeff[first_pos] = acc
            # A literal and its negation cancel (x ∧ ¬x); like any row
            # built by add_constraint, the sum row drops the zero.
            keep &= sum_coeff != 0.0
        k_sum = np.bincount(seg_id[keep], minlength=n_nodes).astype(np.int64)
        rows_per_node = k + 1
        row_end = np.cumsum(rows_per_node)
        row_base = row_end - rows_per_node
        n_rows = int(row_end[-1])
        seg_offsets = np.concatenate([[0], np.cumsum(k)]).astype(np.int64)
        within = np.arange(n_flat, dtype=np.int64) - np.repeat(
            seg_offsets[:-1], k
        )
        child_row = row_base[seg_id] + within
        sum_row = row_end - 1
        nnz = np.empty(n_rows, dtype=np.int64)
        nnz[child_row] = 2
        nnz[sum_row] = 1 + k_sum
        starts = np.concatenate([[0], np.cumsum(nnz)]).astype(np.int64)
        indices = np.empty(int(starts[-1]), dtype=np.int64)
        values = np.empty(int(starts[-1]), dtype=np.float64)
        cpos = starts[child_row]
        indices[cpos] = z[seg_id]
        values[cpos] = 1.0
        indices[cpos + 1] = cvar
        values[cpos + 1] = -csign
        spos = starts[sum_row]
        indices[spos] = z
        values[spos] = 1.0
        within_kept = np.cumsum(keep) - 1
        kept_offsets = np.concatenate([[0], np.cumsum(k_sum)]).astype(np.int64)
        svpos = (
            spos[seg_id[keep]]
            + 1
            + within_kept[keep]
            - np.repeat(kept_offsets[:-1], k_sum)
        )
        indices[svpos] = cvar[keep]
        values[svpos] = sum_coeff[keep]
        rhs = np.empty(n_rows, dtype=np.float64)
        rhs[child_row] = cconst
        seg_const = np.bincount(seg_id, weights=cconst, minlength=n_nodes)
        rhs[sum_row] = np.where(is_and, seg_const - (k - 1), seg_const)
        senses = np.empty(n_rows, dtype=np.int8)
        senses[child_row] = np.where(is_and[seg_id], 0, 1)
        senses[sum_row] = np.where(is_and, 1, 0)
        self.program.add_constraint_block(starts, indices, values, senses, rhs)

    # -- canonical-node affine forms ---------------------------------------------

    def _bool_affine_arrays(
        self, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per canonical boolean node: value = sign·x_var + const (var -1 = none)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        f = self._f
        var = np.full(nodes.shape[0], -1, dtype=np.int64)
        sign = np.zeros(nodes.shape[0], dtype=np.float64)
        const = np.zeros(nodes.shape[0], dtype=np.float64)
        if nodes.size == 0:
            return var, sign, const
        op = f.op[nodes]
        const[nodes == TRUE_NODE] = 1.0
        is_atom = op == OP_ATOM
        if np.any(is_atom):
            var[is_atom] = self._atom_vars(nodes[is_atom])
            sign[is_atom] = 1.0
        is_aux = (op == OP_AND) | (op == OP_OR)
        if np.any(is_aux):
            var[is_aux] = self._aux_var[nodes[is_aux]]
            sign[is_aux] = 1.0
        is_not = op == OP_NOT
        if np.any(is_not):
            inner = self._rep[f.child[f.child_start[nodes[is_not]]]]
            inner_op = f.op[inner]
            ivar = np.empty(inner.shape[0], dtype=np.int64)
            atom_mask = inner_op == OP_ATOM
            if np.any(atom_mask):
                ivar[atom_mask] = self._atom_vars(inner[atom_mask])
            if np.any(~atom_mask):
                ivar[~atom_mask] = self._aux_var[inner[~atom_mask]]
            var[is_not] = ivar
            sign[is_not] = -1.0
            const[is_not] = 1.0
        return var, sign, const

    def _atom_vars(self, nodes: np.ndarray) -> np.ndarray:
        f = self._f
        sites = f.site[nodes]
        label_ids = f.label[nodes]
        var = self._ytab[sites, label_ids]
        bad = np.flatnonzero(var < 0)
        if bad.size:
            first = int(bad[0])
            label = f.labels[int(label_ids[first])]
            raise ILPError(
                f"atom [site {int(sites[first])} = {label!r}] refers to an "
                "unknown site/class"
            )
        return var

    # -- reading back solutions -------------------------------------------------------------

    def solution_targets(self, solution: ILPSolution) -> dict[int, object]:
        """``site_id -> target label`` from an integral solution."""
        targets: dict[int, object] = {}
        for site_id in self.site_ids:
            chosen = [
                label
                for label in self.classes_by_site[site_id]
                if solution.values[self.y_vars[(site_id, label)]] > 0.5
            ]
            if len(chosen) != 1:
                raise ILPError(
                    f"site {site_id} has {len(chosen)} selected classes; "
                    "the solution is not a valid labelling"
                )
            targets[site_id] = chosen[0]
        return targets

    def marked_mispredictions(
        self, solution: ILPSolution
    ) -> list[tuple[int, object]]:
        """Sites whose target label differs from the current prediction."""
        targets = self.solution_targets(solution)
        return [
            (site_id, label)
            for site_id, label in targets.items()
            if label != self.current_labels[site_id]
        ]

    def changed_count(self, solution: ILPSolution) -> int:
        return len(self.marked_mispredictions(solution))


# -- numeric shapes -----------------------------------------------------------------


def _add_shape(terms: list[Numeric]) -> Numeric:
    """A sum with constants folded into one trailing constant, sums flattened."""
    const_total = 0.0
    rest: list[Numeric] = []
    for term in terms:
        if term[0] == "const":
            const_total += term[1]
        elif term[0] == "add":
            rest.extend(term[1])
        elif term[0] == "wsum":
            rest.extend(_wsum_terms(term))
        else:
            rest.append(term)
    if const_total != 0.0 or not rest:
        rest.append(("const", const_total))
    if len(rest) == 1:
        return rest[0]
    return ("add", rest)


def _wsum_terms(shape: Numeric) -> list[Numeric]:
    """The ``"add"`` terms a ``"wsum"`` shape stands for."""
    _kind, nodes, scales, products, tail = shape
    terms: list[Numeric] = [
        ("mul", [("const", scale), ("bool", node)], (scale, [node], None))
        if product
        else ("bool", node)
        for node, scale, product in zip(nodes, scales, products)
    ]
    if tail is not None:
        terms.append(("const", tail))
    return terms


def _mul_shape(factors: list[Numeric]) -> Numeric:
    """A product with constants folded into one leading constant, products flattened.

    The shape carries its :func:`_product_parts` as a third element.
    """
    const_total = 1.0
    rest: list[Numeric] = []
    for factor in factors:
        if factor[0] == "const":
            const_total *= factor[1]
        elif factor[0] == "mul":
            rest.extend(factor[1])
        else:
            rest.append(factor)
    if const_total == 0.0:
        return ("const", 0.0)
    if const_total != 1.0 or not rest:
        rest.insert(0, ("const", const_total))
    if len(rest) == 1:
        return rest[0]
    return ("mul", rest, _product_parts(rest))


def _product_parts(factors: list[Numeric]) -> tuple | str:
    """``(constant, bool nodes, LinearSum or None)`` of a product, or why not.

    Only ``bool(s) × at most one LinearSum`` is linear in the 0-1
    variables (the sum distributes over the conjunction); any other
    product is described by the error message the linearization raises.
    """
    constant = 1.0
    bools: list[int] = []
    sums: list[Numeric] = []
    for factor in factors:
        kind = factor[0]
        if kind == "const":
            constant *= factor[1]
        elif kind == "bool":
            bools.append(factor[1])
        elif kind == "lin":
            sums.append(factor)
        else:
            return f"product over {_SHAPE_NAMES[kind]} is not linearizable"
    if len(sums) > 1:
        return "products of two non-boolean sums are not linearizable"
    return constant, bools, (sums[0] if sums else None)


def _weighted_sum(
    coeffs: Sequence[float], leaves: Iterator[tuple[int, float, float]]
) -> Affine:
    """``Σ coeff·leaf`` accumulated term by term (variables keep first-seen order)."""
    affine: dict[int, float] = {}
    total = 0.0
    for coeff, (var, sign, const) in zip(coeffs, leaves):
        if var >= 0:
            affine[var] = affine.get(var, 0.0) + coeff * sign
        total = total + coeff * const
    return affine, total
