"""Exact truncated power series and the fixed-point solver for algebraic systems.

Coefficients are arbitrary-precision integers throughout; nothing here ever
touches floating point.  The solver fills coefficients order by order, so
iteration n pins every coefficient of degree at most n; properness of the
system (checked up front) guarantees the recurrence never reads a
coefficient that has not been computed yet.

Two implementation notes that matter for whole-sweep classification:

* products of unknowns are regrouped distributively: within one equation,
  quadratic bodies sharing a left factor class are summed first and
  multiplied once.  This is exact (plain distributivity) and collapses the
  number of series convolutions from the number of bodies to the number of
  factor classes.
* bivariate solves store each x-degree's y-polynomial packed into a single
  big integer (fixed bit width per y-coefficient), so polynomial arithmetic
  rides on CPython's big-integer multiply.  The solver picks the width
  itself from a one-unknown majorant system (see _majorant), solved first as
  a univariate series, and re-checks every coefficient against it when the
  result is unpacked.
"""

from __future__ import annotations

import json

try:
    from gmpy2 import mpz as _bigint
except ImportError:  # pragma: no cover - gmpy2 is a fast-multiplication accelerator only
    _bigint = int

from .systems import AlgebraicSystem, Monomial, enumeration_system
from .trees import Tree


class TruncatedSeries:
    """Formal power series in one or two variables, exact modulo primary_var^(order+1).

    Univariate coefficients are stored densely, bivariate ones sparsely.
    Truncation is by the degree of the primary (first) variable only; for the
    occurrence-marked series this bounds the mark degree as well, since a
    tree never holds more pattern occurrences than internal nodes.
    """

    __slots__ = ("variables", "order", "_dense", "_sparse")

    def __init__(self, variables: tuple[str, ...], order: int,
                 dense: tuple[int, ...] | None = None,
                 sparse: dict[tuple[int, int], int] | None = None):
        if order < 0:
            raise ValueError("order must be >= 0")
        if len(variables) not in (1, 2):
            raise ValueError("series support 1 or 2 variables")
        self.variables = tuple(variables)
        self.order = order
        if len(variables) == 1:
            coeffs = list(dense or ())[: order + 1]
            coeffs += [0] * (order + 1 - len(coeffs))
            self._dense: tuple[int, ...] | None = tuple(coeffs)
            self._sparse: dict[tuple[int, int], int] | None = None
        else:
            self._dense = None
            self._sparse = {
                k: v for k, v in (sparse or {}).items() if v != 0 and k[0] <= order
            }

    # -- construction helpers -------------------------------------------------

    @classmethod
    def univariate(cls, var: str, order: int, coeffs) -> "TruncatedSeries":
        return cls((var,), order, dense=tuple(coeffs))

    @classmethod
    def bivariate(cls, variables: tuple[str, str], order: int,
                  coeffs: dict[tuple[int, int], int]) -> "TruncatedSeries":
        return cls(variables, order, sparse=dict(coeffs))

    @classmethod
    def zero(cls, variables: tuple[str, ...], order: int) -> "TruncatedSeries":
        return cls(variables, order) if len(variables) == 2 else cls(variables, order, dense=())

    @property
    def is_univariate(self) -> bool:
        return self._dense is not None

    def coefficient(self, *exps: int) -> int:
        if self.is_univariate:
            (n,) = exps
            return self._dense[n] if 0 <= n <= self.order else 0
        if len(exps) == 1:
            exps = (exps[0], 0)
        return self._sparse.get(tuple(exps), 0)

    def nonzero_items(self) -> list[tuple[tuple[int, ...], int]]:
        if self.is_univariate:
            return [((n,), c) for n, c in enumerate(self._dense) if c != 0]
        return sorted(self._sparse.items())

    def dense_coefficients(self) -> tuple[int, ...]:
        if not self.is_univariate:
            raise ValueError("dense coefficient list is univariate-only")
        return self._dense

    # -- arithmetic ------------------------------------------------------------

    def _require_compatible(self, other: "TruncatedSeries") -> int:
        if self.variables != other.variables:
            raise ValueError(f"variable mismatch {self.variables} vs {other.variables}")
        return min(self.order, other.order)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = self._require_compatible(other)
        if self.is_univariate:
            return TruncatedSeries(self.variables, order, dense=tuple(
                a + b for a, b in zip(self._dense, other._dense)
            ))
        out = dict(self._sparse)
        for k, v in other._sparse.items():
            out[k] = out.get(k, 0) + v
        return TruncatedSeries(self.variables, order, sparse=out)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + other.scale(-1)

    def scale(self, c: int) -> "TruncatedSeries":
        if self.is_univariate:
            return TruncatedSeries(self.variables, self.order,
                                   dense=tuple(c * a for a in self._dense))
        return TruncatedSeries(self.variables, self.order,
                               sparse={k: c * v for k, v in self._sparse.items()})

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = self._require_compatible(other)
        if self.is_univariate:
            out = [0] * (order + 1)
            for i, a in enumerate(self._dense[: order + 1]):
                if a == 0:
                    continue
                for j in range(0, order + 1 - i):
                    b = other._dense[j]
                    if b:
                        out[i + j] += a * b
            return TruncatedSeries(self.variables, order, dense=tuple(out))
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), a in self._sparse.items():
            for (i2, j2), b in other._sparse.items():
                if i1 + i2 <= order:
                    key = (i1 + i2, j1 + j2)
                    out[key] = out.get(key, 0) + a * b
        return TruncatedSeries(self.variables, order, sparse=out)

    def pow_int(self, e: int) -> "TruncatedSeries":
        if e < 0:
            raise ValueError("negative powers are not defined here")
        result = self.one_like()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def one_like(self) -> "TruncatedSeries":
        if self.is_univariate:
            return TruncatedSeries(self.variables, self.order, dense=(1,))
        return TruncatedSeries(self.variables, self.order, sparse={(0, 0): 1})

    def is_zero(self) -> bool:
        if self.is_univariate:
            return all(c == 0 for c in self._dense)
        return not self._sparse

    def is_nonnegative(self) -> bool:
        if self.is_univariate:
            return all(c >= 0 for c in self._dense)
        return all(c >= 0 for c in self._sparse.values())

    def restrict(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError(f"cannot extend a truncated series from {self.order} to {order}")
        if self.is_univariate:
            return TruncatedSeries(self.variables, order, dense=self._dense[: order + 1])
        return TruncatedSeries(self.variables, order, sparse=self._sparse)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.variables == other.variables and self.order == other.order
                and self.nonzero_items() == other.nonzero_items())

    def __repr__(self) -> str:
        items = self.nonzero_items()[:6]
        body = ", ".join(f"{e}:{c}" for e, c in items)
        more = " ..." if len(self.nonzero_items()) > 6 else ""
        return f"TruncatedSeries({'/'.join(self.variables)}, K={self.order}, {body}{more})"

    # -- canonical serialization (classification key) ---------------------------

    def serialize(self) -> str:
        """Byte-stable canonical text: variables, order, sorted nonzero entries."""
        head = f"v={','.join(self.variables)};K={self.order}"
        entries = ";".join(
            f"{','.join(map(str, exps))}:{c}" for exps, c in self.nonzero_items()
        )
        return f"{head};{entries}" if entries else head

    def to_json_dict(self) -> dict:
        return {
            "variables": list(self.variables),
            "order": self.order,
            "coefficients": [[list(e), c] for e, c in self.nonzero_items()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "TruncatedSeries":
        variables = tuple(data["variables"])
        order = data["order"]
        if len(variables) == 1:
            dense = [0] * (order + 1)
            for exps, c in data["coefficients"]:
                dense[exps[0]] = c
            return cls(variables, order, dense=tuple(dense))
        return cls(variables, order,
                   sparse={tuple(e): c for e, c in data["coefficients"]})


# -- the solver ------------------------------------------------------------------


def _compile_plan(system: AlgebraicSystem):
    """Turn equations into evaluation instructions with shared sum/chain nodes.

    Series ids 0..U-1 are the unknowns; higher ids are auxiliary nodes in
    creation order: sum nodes (linear combinations, updated after the
    unknowns each degree) and chain nodes (partial products for monomials
    with three or more factors, updated before the unknowns each degree).
    """
    n_unknowns = system.n_unknowns
    nodes: list[tuple[str, tuple]] = []
    sum_ids: dict[tuple[int, ...], int] = {}
    chain_ids: dict[tuple[int, int], int] = {}

    def sum_node(members: tuple[int, ...]) -> int:
        if len(members) == 1:
            return members[0]
        if members not in sum_ids:
            sum_ids[members] = n_unknowns + len(nodes)
            nodes.append(("sum", members))
        return sum_ids[members]

    def chain_node(left: int, right: int) -> int:
        key = (left, right)
        if key not in chain_ids:
            chain_ids[key] = n_unknowns + len(nodes)
            nodes.append(("chain", key))
        return chain_ids[key]

    # instruction tuples, per equation:
    #   ("const", a, b, coeff)
    #   ("lin",   a, b, coeff, src)
    #   ("prod",  a, b, coeff, left, right)   -- convolution slice of two series
    #   ("node",  a, b, coeff, src)           -- read a chain node's slice
    plans: list[list[tuple]] = []
    for eq in system.equations:
        instrs: list[tuple] = []
        quads: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for m in eq:
            a = m.wexp[0]
            b = m.wexp[1] if len(m.wexp) > 1 else 0
            k = len(m.factors)
            if k == 0:
                instrs.append(("const", a, b, m.coeff))
            elif k == 1:
                instrs.append(("lin", a, b, m.coeff, m.factors[0]))
            elif k == 2 and m.coeff == 1:
                quads.setdefault((a, b), []).append((m.factors[0], m.factors[1]))
            elif k == 2:
                instrs.append(("prod", a, b, m.coeff, m.factors[0], m.factors[1]))
            else:
                node = m.factors[0]
                for f in m.factors[1:-1]:
                    node = chain_node(node, f)
                node = chain_node(node, m.factors[-1])
                instrs.append(("node", a, b, m.coeff, node))
        for (a, b), pairs in sorted(quads.items()):
            rows: dict[int, list[int]] = {}
            for f0, f1 in pairs:
                rows.setdefault(f0, []).append(f1)
            by_cols: dict[tuple[int, ...], list[int]] = {}
            for f0, cols in rows.items():
                by_cols.setdefault(tuple(sorted(cols)), []).append(f0)
            for cols, row_members in sorted(by_cols.items()):
                left = sum_node(tuple(sorted(row_members)))
                right = sum_node(cols)
                instrs.append(("prod", a, b, 1, left, right))
        plans.append(instrs)
    return plans, nodes


def _majorant(system: AlgebraicSystem) -> AlgebraicSystem:
    """One-unknown system S = sum M[a,k] * x^a * S^k whose x^n coefficient
    bounds every mark coefficient at x^n of every unknown of the system.

    M[a,k] is the largest total coefficient any single factor tuple carries
    among the monomials of primary degree a with k factors, summed over the
    equations and the mark exponents.  Coefficients are positive (checked by
    validate_proper), so at mark = 1 each unknown is at most the sum of all
    unknowns, and that sum satisfies the majorant's recurrence with <= since
    the products over all k-tuples of unknowns add up to its k-th power.
    """
    totals: dict[tuple[int, tuple[int, ...]], int] = {}
    for eq in system.equations:
        for m in eq:
            key = (m.wexp[0], m.factors)
            totals[key] = totals.get(key, 0) + m.coeff
    bounds: dict[tuple[int, int], int] = {}
    for (a, factors), total in totals.items():
        key = (a, len(factors))
        bounds[key] = max(bounds.get(key, 0), total)
    return AlgebraicSystem(
        weight_vars=system.weight_vars[:1],
        unknowns=("S",),
        equations=(tuple(Monomial(c, (a,), (0,) * k) for (a, k), c in sorted(bounds.items())),),
        target=((1, 0),),
    )


def solve_truncated(system: AlgebraicSystem, order: int, *,
                    include_unknowns: bool = True):
    """Solve the system as truncated series up to the given order.

    Returns (solutions, target): a name -> TruncatedSeries mapping (None when
    include_unknowns is false) and the target series.  Bivariate systems run
    on packed integers whose slot width comes from the majorant system's
    largest coefficient; every unpacked coefficient is checked against the
    majorant at its own degree, and ArithmeticError is raised on a breach.
    """
    if order < 1:
        raise ValueError("truncation order must be >= 1")
    system.validate_proper()
    nvars = len(system.weight_vars)
    if nvars == 1:
        width = 0
    else:
        _, majorant = solve_truncated(_majorant(system), order, include_unknowns=False)
        ceiling = majorant.dense_coefficients()
        # spare bits keep a coefficient that breaks the bound in its own slot,
        # where the unpack check sees it, instead of carrying into the next
        width = max(ceiling).bit_length() + 4

    plans, nodes = _compile_plan(system)
    n_unknowns = system.n_unknowns
    n_series = n_unknowns + len(nodes)

    zero = _bigint(0)
    store = [[zero] * (order + 1) for _ in range(n_series)]

    chain_nodes = [(n_unknowns + i, spec) for i, (kind, spec) in enumerate(nodes) if kind == "chain"]
    sum_nodes = [(n_unknowns + i, spec) for i, (kind, spec) in enumerate(nodes) if kind == "sum"]

    def conv_slice(L, R, m):
        if m < 2:
            return 0
        s = 0
        for a, b in zip(L[1:m], R[m - 1:0:-1]):
            s += a * b
        return s

    for n in range(1, order + 1):
        for cid, (left, right) in chain_nodes:
            store[cid][n] = conv_slice(store[left], store[right], n)
        for ui in range(n_unknowns):
            acc = zero
            for instr in plans[ui]:
                kind = instr[0]
                if kind == "const":
                    _, a, b, coeff = instr
                    if a == n:
                        acc += _bigint(coeff) << (b * width)
                elif kind == "lin":
                    _, a, b, coeff, src = instr
                    if 1 <= n - a:
                        acc += (coeff * store[src][n - a]) << (b * width)
                elif kind == "prod":
                    _, a, b, coeff, left, right = instr
                    if n - a >= 2:
                        acc += (coeff * conv_slice(store[left], store[right], n - a)) << (b * width)
                else:  # node
                    _, a, b, coeff, src = instr
                    if 0 <= n - a:
                        acc += (coeff * store[src][n - a]) << (b * width)
            store[ui][n] = acc
        for sid, members in sum_nodes:
            store[sid][n] = sum(store[mdx][n] for mdx in members)

    def unpack(idx: int) -> TruncatedSeries:
        if nvars == 1:
            return TruncatedSeries((system.weight_vars[0],), order,
                                   dense=tuple(int(v) for v in store[idx]))
        coeffs: dict[tuple[int, int], int] = {}
        mask = (1 << width) - 1
        for n in range(order + 1):
            v = store[idx][n]
            yk = 0
            while v:
                c = v & mask
                if c:
                    if c > ceiling[n]:
                        raise ArithmeticError(
                            f"packed coefficient at degree {n} exceeds the majorant "
                            f"bound {ceiling[n]}"
                        )
                    coeffs[(n, yk)] = int(c)
                v >>= width
                yk += 1
        return TruncatedSeries(tuple(system.weight_vars), order, sparse=coeffs)

    target_acc = None
    for coeff, ui in system.target:
        s = unpack(ui).scale(coeff)
        target_acc = s if target_acc is None else target_acc + s
    if target_acc is None:
        target_acc = TruncatedSeries.zero(tuple(system.weight_vars), order)

    solutions = None
    if include_unknowns:
        solutions = {name: unpack(i) for i, name in enumerate(system.unknowns)}
    return solutions, target_acc


def verify_solution(system: AlgebraicSystem, solutions: dict[str, TruncatedSeries],
                    order: int) -> bool:
    """Plug the solved series back into every equation; true iff all match
    modulo primary^(order+1).  Uses TruncatedSeries arithmetic, a separate
    code path from the solver's convolution loops."""
    variables = tuple(system.weight_vars)
    nvars = len(variables)

    def monomial_series(m: Monomial) -> TruncatedSeries:
        if nvars == 1:
            base = TruncatedSeries(variables, order,
                                   dense=tuple(0 if i != m.wexp[0] else m.coeff
                                               for i in range(order + 1)))
        else:
            base = TruncatedSeries(variables, order, sparse={tuple(m.wexp): m.coeff})
        for f in m.factors:
            base = base * solutions[system.unknowns[f]].restrict(order)
        return base

    for ui, eq in enumerate(system.equations):
        rhs = TruncatedSeries.zero(variables, order)
        for m in eq:
            rhs = rhs + monomial_series(m)
        if rhs != solutions[system.unknowns[ui]].restrict(order):
            return False
    return True


# -- pattern series pipeline ------------------------------------------------------


def _leaf_order(order: int) -> int:
    return (order + 1) // 2


def av_series(pattern: Tree, order: int) -> TruncatedSeries:
    """Avoidance series of a binary pattern: coefficient of x^n is the number
    of binary trees with n vertices containing no occurrence of the pattern."""
    if order < 1:
        raise ValueError("order must be >= 1")
    system = enumeration_system(pattern, reduced=True, marked=False, leaf_weights=True)
    leaves = _leaf_order(order)
    _, tz = solve_truncated(system, leaves, include_unknowns=False)
    dense = [0] * (order + 1)
    for n in range(1, leaves + 1):
        dense[2 * n - 1] = tz.coefficient(n)
    return TruncatedSeries.univariate("x", order, dense)


def en_series(pattern: Tree, order: int) -> TruncatedSeries:
    """Occurrence-marked series: coefficient of x^n y^k counts binary trees
    with n vertices containing exactly k occurrences of the pattern.
    Its y=0 slice equals av_series."""
    if order < 1:
        raise ValueError("order must be >= 1")
    system = enumeration_system(pattern, reduced=True, marked=True, leaf_weights=True)
    leaves = _leaf_order(order)
    _, tz = solve_truncated(system, leaves, include_unknowns=False)
    coeffs = {(2 * n - 1, k): c for (n, k), c in tz.nonzero_items()}
    return TruncatedSeries.bivariate(("x", "y"), order, coeffs)


def en_slice_y0(en: TruncatedSeries) -> TruncatedSeries:
    """The y = 0 slice of an occurrence-marked series, as a univariate series."""
    dense = [0] * (en.order + 1)
    for (n, k), c in en.nonzero_items():
        if k == 0:
            dense[n] = c
    return TruncatedSeries.univariate(en.variables[0], en.order, dense)


def to_operad_series(av: TruncatedSeries) -> TruncatedSeries:
    """Reindex a vertex-graded binary series to the arity variable:
    coefficient of z^k is the coefficient of x^(2k-1).  Purely positional;
    no numeric square root is ever taken."""
    if not av.is_univariate:
        raise ValueError("operad reindexing applies to univariate series")
    coeffs = av.dense_coefficients()
    for n in range(0, av.order + 1, 2):
        if coeffs[n] != 0:
            raise ValueError(
                f"nonzero coefficient at even degree {n}; "
                "binary-tree series must be supported on odd degrees"
            )
    z_order = (av.order + 1) // 2
    dense = [0] * (z_order + 1)
    for k in range(1, z_order + 1):
        if 2 * k - 1 <= av.order:
            dense[k] = coeffs[2 * k - 1]
    return TruncatedSeries.univariate("z", z_order, dense)
