"""Exact truncated power series and the fixed-point solver for algebraic systems.

Coefficients are arbitrary-precision integers throughout; nothing here ever
touches floating point.  The solver fills coefficients order by order, so
iteration n pins every coefficient of degree at most n; properness of the
system (checked up front) guarantees the recurrence never reads a
coefficient that has not been computed yet.

Two implementation notes that matter for whole-sweep classification:

* products of unknowns are regrouped distributively: within one equation,
  quadratic bodies with the same coefficient sharing a left factor class are
  summed first and multiplied once.  This is exact (plain distributivity)
  and collapses the number of series convolutions from the number of bodies
  to the number of factor classes.
* coefficients are packed into big integers at a fixed slot width, so
  one CPython big-integer multiply does the work of many.  The solver
  picks the width itself from a one-unknown majorant system (see
  _majorant), solved once per distinct majorant and order, and re-checks
  every coefficient of the result against it.  A bivariate solve stores each
  x-degree's y-polynomial as one integer; the target, a sum of distinct
  unknowns, is added up on the packed rows and unpacked once.  A
  univariate solve groups its degree-2 products by a shared operand and
  packs the partners' rows side by side, so one convolution of the packed
  row with the shared operand yields every product of the group, one per
  slot.  The slots cannot carry: each product enters, with a positive
  coefficient, an equation whose other terms are nonnegative, so it is at
  most that unknown's coefficient, which the majorant bounds.  Bivariate
  products stay one per group, since a slot would have to hold a whole
  y-polynomial of unknown degree, and so do the chain nodes (partial
  products of three or more factors), which the majorant does not bound:
  for S = x + x*S^3, (S^2)[2] = 1 > S[2] = 0.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from operator import mul

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


# -- the solver ------------------------------------------------------------------


def _compile_plan(system: AlgebraicSystem):
    """Turn equations into one schedule with shared sum/chain nodes.

    Series ids 0..U-1 are the unknowns; higher ids are auxiliary nodes in
    creation order: sum nodes (linear combinations, updated after the
    unknowns each degree) and chain nodes (partial products for monomials
    with three or more factors, updated before the unknowns each degree).
    Products are numbered once across all equations by (shift, operands),
    so a product two equations share is convolved once.  The schedule is
    (constants, terms, feeds), with a and b the exponents of x and y:
      constants  (unknown, a, b, coeff)
      terms      (unknown, a, b, coeff, src)  -- src an unknown or a chain node
      feeds[p]   [(unknown, b, coeff), ...]   -- the rows product p adds into
    """
    n_unknowns = system.n_unknowns
    nodes: list[tuple[str, tuple]] = []
    sum_ids: dict[tuple[int, ...], int] = {}
    chain_ids: dict[tuple[int, int], int] = {}
    products: dict[tuple[int, int, int], int] = {}
    constants: list[tuple[int, int, int, int]] = []
    terms: list[tuple[int, int, int, int, int]] = []
    feeds: list[list[tuple[int, int, int]]] = []

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

    def product(a: int, left: int, right: int) -> list[tuple[int, int, int]]:
        # the convolution slice is symmetric in its operands
        key = (a, min(left, right), max(left, right))
        if key not in products:
            products[key] = len(feeds)
            feeds.append([])
        return feeds[products[key]]

    for ui, eq in enumerate(system.equations):
        quads: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
        for m in eq:
            a = m.wexp[0]
            b = m.wexp[1] if len(m.wexp) > 1 else 0
            k = len(m.factors)
            if k == 0:
                constants.append((ui, a, b, m.coeff))
            elif k == 1:
                terms.append((ui, a, b, m.coeff, m.factors[0]))
            elif k == 2:
                quads.setdefault((a, b, m.coeff), []).append((m.factors[0], m.factors[1]))
            else:
                node = m.factors[0]
                for f in m.factors[1:]:
                    node = chain_node(node, f)
                terms.append((ui, a, b, m.coeff, node))
        for (a, b, coeff), pairs in sorted(quads.items()):
            rows: dict[int, list[int]] = {}
            for f0, f1 in pairs:
                rows.setdefault(f0, []).append(f1)
            by_cols: dict[tuple[int, ...], list[int]] = {}
            for f0, cols in rows.items():
                by_cols.setdefault(tuple(sorted(cols)), []).append(f0)
            for cols, row_members in sorted(by_cols.items()):
                left = sum_node(tuple(sorted(row_members)))
                product(a, left, sum_node(cols)).append((ui, b, coeff))
    return (constants, terms, feeds), nodes, list(products)


def _group_products(products: list[tuple[int, int, int]], shared: bool):
    """Cover the products (a, left, right) by groups (a, operand, members)
    whose members [(partner, product index), ...] all convolve one operand
    at one shift a.

    With shared off every product is a group of its own.  With shared on,
    the (operand, a) that occurs in the most remaining products takes them
    all, until none remain: a greedy vertex cover of the product graph,
    deterministic for a given plan.
    """
    if not shared:
        return [(a, right, [(left, p)]) for p, (a, left, right) in enumerate(products)]
    incident: dict[tuple[int, int], list[int]] = {}
    for p, (a, left, right) in enumerate(products):
        incident.setdefault((left, a), []).append(p)
        if right != left:
            incident.setdefault((right, a), []).append(p)
    heap = [(-len(ps), vertex) for vertex, ps in incident.items()]
    heapq.heapify(heap)
    taken = [False] * len(products)
    groups = []
    while heap:
        count, vertex = heapq.heappop(heap)
        live = [p for p in incident[vertex] if not taken[p]]
        if len(live) < -count:  # stale entry: requeue at its current count
            if live:
                heapq.heappush(heap, (-len(live), vertex))
            continue
        operand, a = vertex
        members = []
        for p in live:
            taken[p] = True
            _, left, right = products[p]
            members.append((right if left == operand else left, p))
        groups.append((a, operand, members))
    return groups


def _majorant(system: AlgebraicSystem) -> tuple[Monomial, ...]:
    """The monomials of the one-unknown equation S = sum M[a,k] * x^a * S^k,
    whose solution's x^n coefficient bounds every mark coefficient at x^n of
    every unknown of the system.

    M[a,k] is the largest total coefficient any single factor tuple carries
    among the monomials of primary degree a with k factors, summed over the
    equations and the mark exponents.  Coefficients are positive (checked by
    validate_proper), so at mark = 1 each unknown is at most the sum of all
    unknowns, and that sum satisfies the majorant's recurrence with <= since
    the products over all k-tuples of unknowns add up to its k-th power.
    Any sum of distinct unknowns (such as a system's target) is bounded by
    that same total, so it fits the same slot width and ceiling; a repeated
    or scaled unknown would not, which is why targets are plain index sets.
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
    return tuple(Monomial(c, (a,), (0,) * k) for (a, k), c in sorted(bounds.items()))


@lru_cache(maxsize=64)
def _ceiling(monomials: tuple[Monomial, ...], order: int) -> tuple[int, ...]:
    """Coefficients to the given order of the one-unknown majorant whose
    equation is S = sum of the monomials.  Every binary pattern system has
    the same majorant, so a sweep solves it once per order."""
    majorant = AlgebraicSystem(weight_vars=("x",), unknowns=("S",),
                               equations=(monomials,), target=(0,))
    majorant.validate_proper()
    return tuple(int(c) for c in _solve(majorant, order, 0)[1])


def solve_truncated(system: AlgebraicSystem, order: int, *,
                    include_unknowns: bool = True):
    """Solve the system as truncated series up to the given order.

    Returns (solutions, target): a name -> TruncatedSeries mapping (None when
    include_unknowns is false) and the target series, the sum of the target
    unknowns.  The solver packs several coefficients into one integer (the
    partners of a shared operand in a univariate system, the y-polynomial
    of each x-degree in a bivariate one) at a slot width taken from the
    majorant system's largest coefficient.  Every coefficient of the
    result, univariate or bivariate, is checked against the majorant at its
    own degree, and ArithmeticError is raised on a breach.
    """
    if order < 1:
        raise ValueError("truncation order must be >= 1")
    system.validate_proper()
    ceiling = _ceiling(_majorant(system), order)
    # spare bits keep a coefficient that breaks the bound in its own slot,
    # where a check sees it, instead of carrying into the next
    width = max(ceiling).bit_length() + 4
    rows, target = _solve(system, order, width)
    variables = tuple(system.weight_vars)
    mask = (1 << width) - 1

    def checked(n: int, c) -> int:
        if c > ceiling[n]:
            raise ArithmeticError(
                f"coefficient at degree {n} exceeds the majorant bound {ceiling[n]}"
            )
        return int(c)

    def unpack(row: list) -> TruncatedSeries:
        if len(variables) == 1:
            return TruncatedSeries(variables, order,
                                   dense=tuple(checked(n, v) for n, v in enumerate(row)))
        coeffs: dict[tuple[int, int], int] = {}
        for n, v in enumerate(row):
            yk = 0
            while v:
                c = v & mask
                if c:
                    coeffs[(n, yk)] = checked(n, c)
                v >>= width
                yk += 1
        return TruncatedSeries(variables, order, sparse=coeffs)

    solutions = None
    if include_unknowns:
        solutions = {name: unpack(rows[i]) for i, name in enumerate(system.unknowns)}
    return solutions, unpack(target)


def _solve(system: AlgebraicSystem, order: int, width: int):
    """The coefficient rows of the unknowns and of the target, degree by degree.

    Slots are width bits wide.  A bivariate system packs each y-polynomial
    into one integer.  A univariate system groups its products by a shared
    operand, packs the partners' rows side by side, and reads every
    product of a group off the slots of one convolution; width 0 (the
    majorant itself) keeps every product on its own.  Constants go into
    their rows before the first degree; each degree then adds every
    product and term straight into the rows it feeds.
    """
    (constants, terms, feeds), nodes, products = _compile_plan(system)
    groups = _group_products(products, shared=len(system.weight_vars) == 1 and width > 0)
    n_unknowns = system.n_unknowns
    n_series = n_unknowns + len(nodes)

    zero = _bigint(0)
    store = [[zero] * (order + 1) for _ in range(n_series)]
    for ui, a, b, coeff in constants:
        if a <= order:  # a constant past the order is truncated away
            store[ui][a] += _bigint(coeff) << (b * width)
    terms = [(store[ui], a, b * width, coeff, store[src]) for ui, a, b, coeff, src in terms]

    chain_nodes = [(n_unknowns + i, spec) for i, (kind, spec) in enumerate(nodes) if kind == "chain"]
    sum_rows = [(store[n_unknowns + i], [store[m] for m in spec])
                for i, (kind, spec) in enumerate(nodes) if kind == "sum"]
    # a group of one convolves its partner's own row; a larger one a packed row
    # holding its partners' coefficients side by side, width bits apart, and
    # each slot of its convolution feeds the rows of that slot's product
    convolutions, packed = [], []
    for a, operand, members in groups:
        slots = [[(store[ui], b * width, coeff) for ui, b, coeff in feeds[p]] for _, p in members]
        if len(members) == 1:
            row = store[members[0][0]]
        else:
            row = [zero] * (order + 1)
            packed.append((row, [store[partner] for partner, _ in members]))
        convolutions.append((a, row, store[operand], slots))
    mask = (1 << width) - 1

    def conv_slice(L, R, m):
        return sum(map(mul, L[1:m], R[m - 1:0:-1]))

    for n in range(1, order + 1):
        for cid, (left, right) in chain_nodes:
            store[cid][n] = conv_slice(store[left], store[right], n)
        for a, row, other, slots in convolutions:
            if n - a < 2:  # a product's slice is zero until n - a >= 2
                continue
            c = conv_slice(row, other, n - a)
            if len(slots) == 1:
                for dest, shift, coeff in slots[0]:
                    dest[n] += (coeff * c) << shift
                continue
            for slot in slots:
                v = c & mask
                c >>= width
                for dest, shift, coeff in slot:
                    dest[n] += (coeff * v) << shift
            if c:
                raise ArithmeticError(f"a shared-factor convolution at degree {n} "
                                      f"overflows its {width}-bit slots")
        for dest, a, shift, coeff, src in terms:
            if n >= a:
                dest[n] += (coeff * src[n - a]) << shift
        for row, member_rows in sum_rows:
            row[n] = sum([r[n] for r in member_rows])
        for row, partner_rows in packed:
            v = zero
            for j, prow in enumerate(partner_rows):
                v += prow[n] << (j * width)
            row[n] = v

    rows = store[:n_unknowns]
    return rows, [sum(column, zero) for column in zip(*(rows[ui] for ui in system.target))]


# -- pattern series pipeline ------------------------------------------------------


def _vertex_series(pattern: Tree, order: int, marked: bool) -> TruncatedSeries:
    """Solve the pattern's leaf-weighted occurrence system for its target to
    the leaf order (order + 1) // 2, and re-index leaf n to vertex 2n - 1."""
    if order < 1:
        raise ValueError("order must be >= 1")
    system = enumeration_system(pattern, marked=marked, leaf_weights=True)
    _, tz = solve_truncated(system, (order + 1) // 2, include_unknowns=False)
    if marked:
        return TruncatedSeries.bivariate(("x", "y"), order,
                                         {(2 * n - 1, k): c for (n, k), c in tz.nonzero_items()})
    dense = [0] * (order + 1)
    dense[1::2] = tz.dense_coefficients()[1:]
    return TruncatedSeries.univariate("x", order, dense)


def av_series(pattern: Tree, order: int) -> TruncatedSeries:
    """Avoidance series of a binary pattern: coefficient of x^n is the number
    of binary trees with n vertices containing no occurrence of the pattern."""
    return _vertex_series(pattern, order, marked=False)


def en_series(pattern: Tree, order: int) -> TruncatedSeries:
    """Occurrence-marked series: coefficient of x^n y^k counts binary trees
    with n vertices containing exactly k occurrences of the pattern.
    Its y=0 slice equals av_series."""
    return _vertex_series(pattern, order, marked=True)


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
