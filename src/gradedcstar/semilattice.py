"""Finite meet-semilattices as validated meet tables.

Elements are dense indices 0..n-1 with optional display names. The n x n meet
table, a read-only np.intp array, is the single source of truth; the partial
order is derived from it once, as the read-only boolean matrix le (le[i, j]
iff meet[i, j] == i), and the order queries read that matrix.
"""

import numpy as np

from .errors import InputError, ValidationFailure


class IdempotencyViolation(ValidationFailure):
    def __init__(self, i, got):
        self.i, self.got = i, got
        super().__init__(f"meet[{i}][{i}] = {got}, expected {i}")


class CommutativityViolation(ValidationFailure):
    def __init__(self, i, j, ij, ji):
        self.pair = (i, j)
        super().__init__(f"meet[{i}][{j}] = {ij} but meet[{j}][{i}] = {ji}")


class AssociativityViolation(ValidationFailure):
    def __init__(self, i, j, k, left, right):
        self.triple = (i, j, k)
        super().__init__(
            f"(({i} ^ {j}) ^ {k}) = {left} but ({i} ^ ({j} ^ {k})) = {right}"
        )


class EmptySet(InputError):
    pass


class NoBottom(InputError):
    pass


class Semilattice:
    """A validated finite meet-semilattice.

    Construction runs the full exhaustive check (idempotency, commutativity,
    associativity; the glb property of the derived order follows), so an
    instance in hand is always valid. Immutable by convention. The meet
    table is the read-only np.intp array meet, and the order the
    read-only boolean matrix le: le[i, j] iff i <= j.
    """

    def __init__(self, meet, names=None):
        self.meet = table = _int_table(meet, "meet table", "meet table entry", InputError)
        self.n = n = len(table)
        if names is None:
            names = tuple(str(i) for i in range(n))
        else:
            names = tuple(str(s) for s in names)
            if len(names) != n:
                raise InputError("names length does not match table size")
            if len(set(names)) != n:
                raise InputError("element names are not distinct")
        self.names = names
        self._check(table)
        self.le = table == np.arange(n)[:, None]
        self.le.flags.writeable = False

    @classmethod
    def _of_table(cls, table, names, le):
        """The semilattice over a square integer array that the caller
        knows is a meet table, with its order matrix le and distinct
        names: the unchecked store for a product or a meet-closed subset
        of checked semilattices."""
        L = cls.__new__(cls)
        L.meet, L.n, L.names, L.le = table, len(table), tuple(names), le
        table.flags.writeable = le.flags.writeable = False
        return L

    def _check(self, table):
        # the first offender of each law, in row-major order
        for i in np.flatnonzero(table.diagonal() != np.arange(self.n))[:1].tolist():
            raise IdempotencyViolation(i, int(table[i, i]))
        for i, j in np.argwhere(np.triu(table != table.T))[:1].tolist():
            raise CommutativityViolation(i, j, int(table[i, j]), int(table[j, i]))
        bad = _first_nonassociative(table)
        if bad is not None:
            raise AssociativityViolation(*bad)

    def __repr__(self):
        return f"Semilattice({self.n} elements: {', '.join(self.names)})"

    def index_of(self, name):
        try:
            return self.names.index(str(name))
        except ValueError:
            raise InputError(f"no element named {name!r}") from None

    def leq(self, i, j):
        """Derived order: i <= j iff i ^ j = i."""
        return bool(self.le[i, j])

    def meet_of_set(self, S):
        """Greatest lower bound of a nonempty index set; order-independent."""
        S = sorted(S)
        if not S:
            raise EmptySet("meet of the empty set is undefined")
        acc = S[0]
        for x in S[1:]:
            acc = self.meet[acc, x]
        return int(acc)

    def bottom(self):
        """Index of the least element, or None."""
        found = np.flatnonzero(self.le.all(axis=1))
        return int(found[0]) if found.size else None

    def top(self):
        found = np.flatnonzero(self.le.all(axis=0))
        return int(found[0]) if found.size else None

    def comparable_pairs(self):
        """All (i, j) with i <= j, in lexicographic order. Includes i == j."""
        return list(zip(*(a.tolist() for a in np.nonzero(self.le))))

    def finishing_set(self, k):
        """{j : k <= j}, the upward closure of k. Upward- and meet-closed."""
        return frozenset(np.flatnonzero(self.le[k]).tolist())

    def indices(self, M):
        """The distinct members of M as ints, ascending. InputError names
        the first member that is not an integer, else the least one outside
        0..n-1: a negative index would otherwise read the table from its
        end."""
        M = list(M)
        for a in M:
            if not _is_int(a):
                raise InputError(f"index {a!r} is not an integer")
        M = sorted({int(a) for a in M})
        for a in M:
            if not 0 <= a < self.n:
                raise InputError(f"index {a} is out of range for {self.n} indices")
        return M

    def is_subsemilattice(self, S):
        """Closed under meet; S is read through indices."""
        S = self.indices(S)
        m = np.asarray(S, dtype=np.intp)
        return set(S).issuperset(self.meet[m[:, None], m].ravel().tolist())

    def is_finishing_subsemilattice(self, S):
        """Upward-closed and closed under meet. The empty set passes vacuously."""
        S = self.indices(S)
        inside = np.zeros(self.n, dtype=bool)
        inside[S] = True
        if (self.le[inside] & ~inside).any():
            return False
        return self.is_subsemilattice(S)

    def generated_subsemilattice(self, M):
        """Smallest meet-closed superset of M (closure under pairwise meet)."""
        S = frozenset(self.indices(M))
        while True:
            m = np.fromiter(S, np.intp)
            closed = S.union(self.meet[m[:, None], m].ravel().tolist())
            if closed == S:
                return S
            S = closed

    def enumerate_finishing_subsemilattices(self):
        """All nonempty finishing sub-semilattices, in sorted-bitset order.

        These are exactly the upsets of single elements: a nonempty
        finishing set S holds its own meet m, being meet-closed, and being
        upward closed it is then the upset of m; every upset of an element
        is a finishing set.
        """
        sets = {self.finishing_set(k) for k in range(self.n)}
        return sorted(sets, key=lambda S: sum(1 << i for i in S))

    def atoms(self):
        """Minimal non-bottom elements. Requires a bottom."""
        b = self.bottom()
        if b is None:
            raise NoBottom("semilattice has no least element")
        # every i != b lies above b and itself; it is an atom when nothing else
        below = self.le.sum(axis=0)
        below[b] = 0
        return frozenset(np.flatnonzero(below == 2).tolist())


def _is_int(a):
    """An integer that is not a bool: what an index of a semilattice is."""
    return isinstance(a, (int, np.integer)) and not isinstance(a, bool)


def _first_nonassociative(table):
    """(i, j, k, (i . j) . k, i . (j . k)) at the first triple, in
    lexicographic order, where the square integer array table is not
    associative, or None; Semilattice and FiniteGroup both check here."""
    n = len(table)
    # one i at a time: left[j, k] = (i . j) . k, right[j, k] = i . (j . k)
    for i in range(n):
        left, right = table[table[i]], table[i][table]
        bad = np.flatnonzero(left != right)
        if bad.size:
            j, k = divmod(int(bad[0]), n)
            return i, j, k, int(left[j, k]), int(right[j, k])
    return None


def _int_table(rows, name, entry, error):
    """rows, a square table of integers 0..n-1, as a new read-only np.intp
    array. error names the first offender in row-major order: a row that
    is not n long, an entry that is not an integer (a float, a string) or
    one out of range; Semilattice and FiniteGroup both read their tables
    here."""
    n = len(rows)
    try:
        table = np.array(rows)
    except (TypeError, ValueError):  # ragged below the rows
        table = None
    if table is None or table.shape != (n, n) or table.dtype.kind not in "iu":
        for row in rows.tolist() if isinstance(rows, np.ndarray) else rows:
            if len(row) != n:
                raise error(f"{name} is not square")
            for x in row:
                if not isinstance(x, (int, np.integer)):
                    raise error(f"{entry} {x!r} is not an integer")
                if not 0 <= x < n:
                    raise error(f"{entry} {x} out of range 0..{n - 1}")
        table = np.array(rows, dtype=np.intp).reshape(n, n)
    bad = np.flatnonzero((table < 0) | (table >= n))
    if bad.size:
        raise error(f"{entry} {table.flat[bad[0]]} out of range 0..{n - 1}")
    table = table.astype(np.intp, copy=False)
    table.flags.writeable = False
    return table


def _componentwise_table(t1, t2):
    """The componentwise operation of two square integer arrays on pairs,
    row-major: (i, j) -> i * len(t2) + j."""
    n1, n2 = len(t1), len(t2)
    # axes (i1, i2, j1, j2), flattened to rows i1 * n2 + i2, columns j1 * n2 + j2
    return (t1[:, None, :, None] * n2 + t2[None, :, None, :]).reshape(n1 * n2, n1 * n2)


def product_semilattice(L1, L2):
    """Componentwise meet on L1 x L2, row-major: (i, j) -> i * L2.n + j.

    The componentwise meet of two semilattices is idempotent, commutative
    and associative because each component is, and (i1, i2) <= (j1, j2)
    iff both components are, so the table goes unchecked and the order is
    the Kronecker product of the factors' orders."""
    names = [f"({a},{b})" for a in L1.names for b in L2.names]
    return Semilattice._of_table(
        _componentwise_table(L1.meet, L2.meet), names, np.kron(L1.le, L2.le)
    )


def product_index(L2, i1, i2):
    """Index of (i1, i2) in product_semilattice(L1, L2)."""
    return i1 * L2.n + i2


def chain(n, names=None):
    """The chain 0 < 1 < ... < n-1 with meet = min."""
    table = [[min(i, j) for j in range(n)] for i in range(n)]
    return Semilattice(table, names)


def diamond():
    """Four elements 0 < a, b < 1 with a ^ b = 0."""
    # order: 0, a, b, 1
    table = [
        [0, 0, 0, 0],
        [0, 1, 0, 1],
        [0, 0, 2, 2],
        [0, 1, 2, 3],
    ]
    return Semilattice(table, names=["0", "a", "b", "1"])


def antichain_with_bottom(k):
    """A bottom below k pairwise-incomparable elements."""
    n = k + 1
    table = [[0] * n for _ in range(n)]
    for i in range(1, n):
        table[i][i] = i
    return Semilattice(table)
