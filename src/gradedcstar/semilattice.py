"""Finite meet-semilattices as validated meet tables.

Elements are dense indices 0..n-1 with optional display names. The n x n meet
table is the single source of truth; the partial order is derived from it
once, as the read-only boolean matrix le (le[i, j] iff meet[i][j] == i), and
the order queries read that matrix.
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
    instance in hand is always valid. Immutable by convention. The order
    is the read-only boolean matrix le: le[i, j] iff i <= j.
    """

    def __init__(self, meet, names=None):
        table = tuple(tuple(int(x) for x in row) for row in meet)
        n = len(table)
        for row in table:
            if len(row) != n:
                raise InputError("meet table is not square")
            for x in row:
                if not 0 <= x < n:
                    raise InputError(f"meet table entry {x} out of range 0..{n - 1}")
        self.meet = table
        self.n = n
        if names is None:
            names = tuple(str(i) for i in range(n))
        else:
            names = tuple(str(s) for s in names)
            if len(names) != n:
                raise InputError("names length does not match table size")
            if len(set(names)) != n:
                raise InputError("element names are not distinct")
        self.names = names
        table = np.asarray(table, dtype=np.intp).reshape(n, n)
        self._check(table)
        self.le = table == np.arange(n)[:, None]
        self.le.flags.writeable = False

    def _check(self, table):
        meet, n = self.meet, self.n
        for i in range(n):
            if meet[i][i] != i:
                raise IdempotencyViolation(i, meet[i][i])
        for i in range(n):
            for j in range(i + 1, n):
                if meet[i][j] != meet[j][i]:
                    raise CommutativityViolation(i, j, meet[i][j], meet[j][i])
        # one i at a time, first violation in (i, j, k) order:
        # left[j, k] = (i ^ j) ^ k, right[j, k] = i ^ (j ^ k)
        for i in range(n):
            left, right = table[table[i]], table[i][table]
            bad = np.flatnonzero(left != right)
            if bad.size:
                j, k = divmod(int(bad[0]), n)
                raise AssociativityViolation(i, j, k, left[j, k], right[j, k])

    def __repr__(self):
        return f"Semilattice({self.n} elements: {', '.join(self.names)})"

    def index_of(self, name):
        try:
            return self.names.index(str(name))
        except ValueError:
            raise InputError(f"no element named {name!r}") from None

    def leq(self, i, j):
        """Derived order: i <= j iff i ^ j = i."""
        return self.meet[i][j] == i

    def meet_of(self, i, j):
        return self.meet[i][j]

    def meet_of_set(self, S):
        """Greatest lower bound of a nonempty index set; order-independent."""
        it = iter(sorted(S))
        try:
            acc = next(it)
        except StopIteration:
            raise EmptySet("meet of the empty set is undefined") from None
        for x in it:
            acc = self.meet[acc][x]
        return acc

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

    def is_subsemilattice(self, S):
        S = frozenset(S)
        return all(self.meet[i][j] in S for i in S for j in S)

    def is_finishing_subsemilattice(self, S):
        """Upward-closed and closed under meet. The empty set passes vacuously."""
        S = frozenset(S)
        inside = np.zeros(self.n, dtype=bool)
        inside[list(S)] = True
        if (self.le[inside] & ~inside).any():
            return False
        return self.is_subsemilattice(S)

    def generated_subsemilattice(self, M):
        """Smallest meet-closed superset of M (closure under pairwise meet)."""
        S = set(M)
        while True:
            new = {self.meet[i][j] for i in S for j in S} - S
            if not new:
                return frozenset(S)
            S |= new

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


def product_semilattice(L1, L2):
    """Componentwise meet on L1 x L2, row-major: (i, j) -> i * L2.n + j."""
    n1, n2 = L1.n, L2.n
    meet = [[0] * (n1 * n2) for _ in range(n1 * n2)]
    for i1 in range(n1):
        for i2 in range(n2):
            for j1 in range(n1):
                for j2 in range(n2):
                    a = i1 * n2 + i2
                    b = j1 * n2 + j2
                    meet[a][b] = L1.meet[i1][j1] * n2 + L2.meet[i2][j2]
    names = [
        f"({L1.names[i1]},{L2.names[i2]})" for i1 in range(n1) for i2 in range(n2)
    ]
    return Semilattice(meet, names)


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
