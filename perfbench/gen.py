"""Seeded input documents and the answers the program must give for them.

Everything here comes from the benchmark's own constructions: semilattice
tables, block shapes, structure maps, group actions and elements are built
with numpy from a workload seed, and the expected outputs are derived from
those same objects. Nothing is read back from the program under test.

Vectors over a component use the matrix-unit basis, blocks in order, each
block flattened row-major; a structure map A_j -> A_i is the matrix of
size dim(A_i) x dim(A_j) in those coordinates.
"""

import itertools
import string

import numpy as np


# ------------------------------------------------------------ semilattices

def chain_meet(n):
    return [[min(i, j) for j in range(n)] for i in range(n)]


def diamond_meet():
    # 0 < a, b < 1 with a ^ b = 0
    return [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]


def antichain_meet(k):
    """A bottom (index 0) below k pairwise incomparable indices."""
    n = k + 1
    return [[i if i == j else 0 for j in range(n)] for i in range(n)]


def product_meet(ma, mb):
    """Componentwise meet on L1 x L2, row-major: (i, j) -> i * |L2| + j."""
    nb = len(mb)
    n = len(ma) * nb
    return [
        [ma[x // nb][y // nb] * nb + mb[x % nb][y % nb] for y in range(n)]
        for x in range(n)
    ]


def grid_meet(a, b):
    return product_meet(chain_meet(a), chain_meet(b))


def up_set_count(meet):
    """Number of nonempty finishing sub-semilattices.

    Each is the up-set of its least element, and every up-set is upward-
    and meet-closed, so they are counted as the distinct up-sets.
    """
    n = len(meet)
    return len({frozenset(j for j in range(n) if meet[k][j] == k) for k in range(n)})


# ------------------------------------------------------------- components

def block_offsets(blocks):
    out, off = [], 0
    for d in blocks:
        out.append(off)
        off += d * d
    return out


def dim(blocks):
    return sum(d * d for d in blocks)


def to_blocks(blocks, v):
    return [
        v[o : o + d * d].reshape(d, d) for d, o in zip(blocks, block_offsets(blocks))
    ]


def to_vec(mats):
    if not mats:
        return np.zeros(0, dtype=complex)
    return np.concatenate([np.asarray(m, dtype=complex).reshape(-1) for m in mats])


def hom_matrix(src, tgt, f):
    """Matrix of the linear map f: block list of src -> block list of tgt."""
    cols = []
    for a in range(dim(src)):
        e = np.zeros(dim(src), dtype=complex)
        e[a] = 1.0
        cols.append(to_vec(f(to_blocks(src, e))))
    return np.stack(cols, axis=1) if cols else np.zeros((dim(tgt), 0), complex)


def random_unitary(rng, d):
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_names(rng, n, prefix):
    """n distinct seeded index names."""
    letters = string.ascii_lowercase
    names = set()
    while len(names) < n:
        names.add(prefix + "".join(rng.choice(list(letters), 4)))
    names = sorted(names)
    rng.shuffle(names)
    return names


# ------------------------------------------------------------------ specs

class Spec:
    """A graded spec as the benchmark builds it.

    phi[(i, j)] is given for every comparable pair i < j; the identity maps
    on the diagonal are implicit, as in the document format.
    """

    def __init__(self, names, meet, blocks, phi):
        self.names = list(names)
        self.meet = [list(row) for row in meet]
        self.blocks = [list(b) for b in blocks]
        self.phi = phi
        self.n = len(self.meet)

    def leq(self, i, j):
        return self.meet[i][j] == i

    def dims(self):
        return [dim(b) for b in self.blocks]

    def total_dim(self):
        return sum(self.dims())

    def block_count(self):
        return sum(len(b) for b in self.blocks)

    def structure(self, i, j):
        if i == j:
            return np.eye(dim(self.blocks[i]), dtype=complex)
        return self.phi[(i, j)]

    def document(self):
        return {
            "format": "gradedcstar-spec",
            "semilattice": {"names": self.names, "meet": self.meet},
            "components": {
                self.names[i]: self.blocks[i] for i in range(self.n)
            },
            "phi": [
                {
                    "from": self.names[j],
                    "to": self.names[i],
                    "matrix": matrix_doc(m),
                }
                for (i, j), m in sorted(self.phi.items())
            ],
        }

    def pi(self, i, comps):
        """pi_i(x) = sum over j >= i of phi_{i,j}(x_j), as a vector."""
        out = np.zeros(dim(self.blocks[i]), dtype=complex)
        for j in range(self.n):
            if self.leq(i, j):
                out += self.structure(i, j) @ comps[j]
        return out

    def gnorm(self, comps):
        best = 0.0
        for i in range(self.n):
            for m in to_blocks(self.blocks[i], self.pi(i, comps)):
                best = max(best, float(np.linalg.norm(m, 2)))
        return best

    def rank_rows(self):
        """The K0 generator matrix, rows in generator order.

        Row (i, b) is the top-left matrix unit of block b at index i;
        column (t, c) is block c at index t, entry the trace of block c of
        phi_{t,i} applied to that unit (zero unless t <= i). These are the
        multiplicities of a Bratteli-diagram inclusion.
        """
        cols = [(t, c) for t in range(self.n) for c in range(len(self.blocks[t]))]
        rows = []
        for i in range(self.n):
            for b, off in enumerate(block_offsets(self.blocks[i])):
                row = []
                for t, c in cols:
                    if not self.leq(t, i):
                        row.append(0)
                        continue
                    img = to_blocks(self.blocks[t], self.structure(t, i)[:, off])
                    row.append(int(round(float(np.trace(img[c]).real))))
                rows.append(row)
        return rows


def matrix_doc(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def element_document(spec, comps):
    return {
        "format": "gradedcstar-element",
        "components": {
            spec.names[i]: [[float(z.real), float(z.imag)] for z in comps[i]]
            for i in range(spec.n)
        },
    }


def random_element(rng, spec):
    return [
        rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in spec.dims()
    ]


def structured_spec(names, meet, blocks, base, unitaries=None):
    """Spec whose maps are the base maps conjugated index by index.

    base(i, j, x) maps a block list of A_j to one of A_i and must compose
    along chains. With per-index blockwise unitaries U_i the maps become
    Ad(U_i) o base o Ad(U_j)^-1, which compose just as well.
    """
    n = len(meet)
    phi = {}
    for i in range(n):
        for j in range(n):
            if i == j or meet[i][j] != i:
                continue
            if unitaries is None:
                f = lambda x, i=i, j=j: base(i, j, x)
            else:
                def f(x, i=i, j=j):
                    y = base(i, j, [u.conj().T @ m @ u for u, m in zip(unitaries[j], x)])
                    return [u @ m @ u.conj().T for u, m in zip(unitaries[i], y)]
            phi[(i, j)] = hom_matrix(blocks[j], blocks[i], f)
    return Spec(names, meet, blocks, phi)


def all_scalar(rng, meet):
    n = len(meet)
    return structured_spec(
        random_names(rng, n, "s"), meet, [[1]] * n, lambda i, j, x: x
    )


def matrix_chain(rng, d, n=3):
    """chain(n) of M_d with identity maps, conjugated by seeded unitaries."""
    us = [[random_unitary(rng, d)] for _ in range(n)]
    return structured_spec(
        random_names(rng, n, "m"), chain_meet(n), [[d]] * n, lambda i, j, x: x, us
    )


def doubling_chain(rng, levels=4):
    """M_{2^(levels-1)} > ... > M_2 > C (index 0 largest), x -> diag(x, x)."""
    sides = [2 ** (levels - 1 - i) for i in range(levels)]
    us = [[random_unitary(rng, s)] for s in sides]
    return structured_spec(
        random_names(rng, levels, "d"),
        chain_meet(levels),
        [[s] for s in sides],
        lambda i, j, x: [np.kron(np.eye(2 ** (j - i)), x[0])],
        us,
    )


def multi_block_chain(rng):
    """[2, 2, 1] > [2, 1] > [1]: (a, b) -> (a, a, b) and c -> (c I, c)."""
    blocks = [[2, 2, 1], [2, 1], [1]]

    def base(i, j, x):
        if (i, j) == (1, 2):
            return [x[0][0, 0] * np.eye(2), x[0]]
        if (i, j) == (0, 1):
            return [x[0], x[0], x[1]]
        return [x[0][0, 0] * np.eye(2), x[0][0, 0] * np.eye(2), x[0]]

    us = [[random_unitary(rng, d) for d in b] for b in blocks]
    return structured_spec(random_names(rng, 3, "b"), chain_meet(3), blocks, base, us)


def split_pair(rng):
    """Commutative [1, 1] > [1] with c -> (c, c)."""
    return structured_spec(
        random_names(rng, 2, "p"), chain_meet(2), [[1, 1], [1]],
        lambda i, j, x: [x[0], x[0]],
    )


def m2_chain(rng):
    """M_2 > C with the unital embedding."""
    us = [[random_unitary(rng, 2)], [np.eye(1)]]
    return structured_spec(
        random_names(rng, 2, "u"), chain_meet(2), [[2], [1]],
        lambda i, j, x: [x[0][0, 0] * np.eye(2)], us,
    )


# ----------------------------------------------------------------- groups

class Group:
    def __init__(self, mul):
        self.mul = [list(row) for row in mul]
        self.order = len(mul)
        self.names = [f"g{s}" for s in range(self.order)]
        self.identity = next(
            e for e in range(self.order)
            if all(self.mul[e][x] == x for x in range(self.order))
        )

    def document(self):
        return {"format": "gradedcstar-group", "names": self.names, "mul": self.mul}

    def is_abelian(self, members):
        return all(self.mul[a][b] == self.mul[b][a] for a in members for b in members)

    def irrep_dims(self, members):
        """Degrees of the irreducible representations of a subgroup.

        The benchmark only uses abelian subgroups and S3, whose degrees
        are 1, 1, 2.
        """
        if self.is_abelian(members):
            return [1] * len(members)
        if len(members) == 6:
            return [1, 1, 2]
        raise ValueError(f"no irrep table for subgroup {sorted(members)}")


def cyclic_group(n):
    return Group([[(a + b) % n for b in range(n)] for a in range(n)])


def symmetric3():
    """Permutations of 3 points in sorted order; p q applies q first."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: k for k, p in enumerate(perms)}
    return Group([[index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms])


Z4_FAMILY = [{0}, {0, 2}, {0, 1, 2, 3}]
S3_FAMILY = [{0}, {0, 2}, {0, 3, 4}, set(range(6))]


class Action:
    """A group acting on a spec; maps[(s, i)] is a matrix on A_i."""

    def __init__(self, group, spec, maps, crossed_blocks):
        self.group = group
        self.spec = spec
        self.maps = maps
        # expected block sides of each crossed-product component
        self.crossed_blocks = crossed_blocks

    def document(self):
        return {
            "format": "gradedcstar-action",
            "maps": [
                {
                    "element": self.group.names[s],
                    "index": self.spec.names[i],
                    "matrix": matrix_doc(self.maps[(s, i)]),
                }
                for s in range(self.group.order)
                for i in range(self.spec.n)
                if s != self.group.identity
            ],
        }


def coset_spec(rng, group, family, prefix):
    """Functions on G/H for each subgroup H, with pullbacks and translation.

    Cosets are listed in a seeded order. C(G/H) crossed by G is
    C*(H) tensor M_[G:H], so its blocks are [G:H] times the irrep degrees
    of H.
    """
    subs = [frozenset(s) for s in family]
    n = len(subs)
    meet = [[subs.index(subs[a] & subs[b]) for b in range(n)] for a in range(n)]
    cosets = []
    for h in subs:
        seen, cs = set(), []
        for g in range(group.order):
            if g not in seen:
                c = frozenset(group.mul[g][x] for x in h)
                seen |= c
                cs.append(c)
        rng.shuffle(cs)
        cosets.append(cs)
    phi = {}
    for i in range(n):
        for j in range(n):
            if i != j and meet[i][j] == i:
                m = np.zeros((len(cosets[i]), len(cosets[j])), dtype=complex)
                for col, big in enumerate(cosets[j]):
                    for row, small in enumerate(cosets[i]):
                        m[row, col] = 1.0 if small <= big else 0.0
                phi[(i, j)] = m
    spec = Spec(
        random_names(rng, n, prefix), meet, [[1] * len(c) for c in cosets], phi
    )
    maps = {}
    for s in range(group.order):
        for i in range(n):
            idx = {c: k for k, c in enumerate(cosets[i])}
            m = np.zeros((len(cosets[i]), len(cosets[i])), dtype=complex)
            for k, c in enumerate(cosets[i]):
                m[idx[frozenset(group.mul[s][x] for x in c)], k] = 1.0
            maps[(s, i)] = m
    crossed = [
        [len(cosets[i]) * d for d in group.irrep_dims(subs[i])] for i in range(n)
    ]
    return Action(group, spec, maps, crossed)


def trivial_action(spec, group):
    """The trivial action on an all-scalar spec; C crossed by G is C*(G)."""
    maps = {
        (s, i): np.eye(1, dtype=complex)
        for s in range(group.order)
        for i in range(spec.n)
    }
    crossed = [group.irrep_dims(range(group.order)) for _ in range(spec.n)]
    return Action(group, spec, maps, crossed)


def inner_z2_action(rng, spec):
    """Z2 acting on an M_2 > C chain by Ad of a self-adjoint unitary on M_2.

    The action is implemented by a unitary representation, so M_2 crossed
    by Z2 is M_2 tensor C*(Z2), two blocks of side 2, and C gives C*(Z2).
    """
    u = random_unitary(rng, 2)
    s = u @ np.diag([1.0, -1.0]) @ u.conj().T
    group = cyclic_group(2)
    maps = {}
    for i in range(spec.n):
        if spec.blocks[i] == [2]:
            flip = hom_matrix([2], [2], lambda x: [s @ x[0] @ s])
        else:
            flip = np.eye(dim(spec.blocks[i]), dtype=complex)
        maps[(0, i)] = np.eye(dim(spec.blocks[i]), dtype=complex)
        maps[(1, i)] = flip
    crossed = [[d, d] for d in (b[0] for b in spec.blocks)]
    return Action(group, spec, maps, crossed)


# ---------------------------------------------------------------- tensors

def tensor(a, b):
    """Expected tensor product: index (i1, i2) -> i1 * b.n + i2, blocks
    left-major, and the generator matrix as products of factor ranks."""
    nb = b.n
    blocks = [
        [da * db for da in a.blocks[x // nb] for db in b.blocks[x % nb]]
        for x in range(a.n * nb)
    ]
    ra, rb = a.rank_rows(), b.rank_rows()
    row_a = [(i, k) for i in range(a.n) for k in range(len(a.blocks[i]))]
    row_b = [(i, k) for i in range(b.n) for k in range(len(b.blocks[i]))]
    pos_a = {key: r for r, key in enumerate(row_a)}
    pos_b = {key: r for r, key in enumerate(row_b)}
    rows = []
    for x in range(a.n * nb):
        i1, i2 = divmod(x, nb)
        for b1 in range(len(a.blocks[i1])):
            for b2 in range(len(b.blocks[i2])):
                ya, yb = ra[pos_a[(i1, b1)]], rb[pos_b[(i2, b2)]]
                rows.append([p * q for p in ya for q in yb])
    return {
        "n": a.n * nb,
        "meet": product_meet(a.meet, b.meet),
        "blocks": blocks,
        "total_dim": a.total_dim() * b.total_dim(),
        "rank_rows": rows,
    }


# --------------------------------------------------------------- rejects

def perturbed(rng, spec, pair, kind):
    """A copy of spec whose map at pair breaks the compatibility axiom.

    The replacement is still a *-homomorphism on its own, so the failure
    is axiom (b) and not the homomorphism check. kind selects how:
    "zero" (the zero map), "rotate" (compose with Ad of a random
    unitary) or "shrink" (pull back onto half of the target coordinates).
    """
    i, j = pair
    m = spec.phi[pair].copy()
    if kind == "zero":
        m[:] = 0.0
    elif kind == "rotate":
        (d,) = spec.blocks[i]
        u = random_unitary(rng, d)
        m = np.kron(u, u.conj()) @ m
    elif kind == "shrink":
        m[: m.shape[0] // 2] = 0.0
    phi = dict(spec.phi)
    phi[pair] = m
    out = Spec(spec.names, spec.meet, spec.blocks, phi)
    if compatibility_residual(out) < 0.1:
        raise ValueError(f"perturbation at {pair} left the spec compatible")
    return out


def compatibility_residual(spec):
    """Largest |phi_{m,k} phi_{k,j} - phi_{m,j}| over chains m <= k <= j."""
    worst = 0.0
    for m, k, j in itertools.product(range(spec.n), repeat=3):
        if spec.leq(m, k) and spec.leq(k, j):
            d = spec.structure(m, k) @ spec.structure(k, j) - spec.structure(m, j)
            worst = max(worst, float(np.abs(d).max()) if d.size else 0.0)
    return worst
