"""Tensor products of graded specs and crossed products by finite groups.

tensor_spec combines two specs over the product semilattice, with
componentwise Kronecker blocks and Kronecker structure maps. Minimal and
maximal tensor norms agree for finite-dimensional algebras, so a single
construction covers both readings.

crossed_product turns a validated group action into a new graded spec
over the same semilattice. Each component is the convolution *-algebra
of functions from the group into that component, realized concretely
through the left regular representation and re-expressed in block
coordinates via wedderburn; the change of basis is kept so the structure
maps transport correctly. wedderburn draws no random numbers, so the
output is a function of the action alone. Counting measure, trivial modular function,
and full = reduced are all silently in force: the group is finite.

Besides validating the output spec, crossed_product checks one thing:
that the realizations carry convolution products, the mixed ones across
indices included, and adjoints to the output's products and adjoints.
build_crossed_product says why nothing else needs checking.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import findim as fd
from . import graded as gr
from . import ktheory as kt
from . import semilattice as sl
from .errors import InputError, NumericFailure, ValidationFailure

ACTION_TOL = 1e-9
TRANSPORT_TOL = 1e-7


class NotAGroup(InputError):
    pass


class ActionInvalid(ValidationFailure):
    pass


class RealizationFault(NumericFailure):
    """The concrete realization lost dimensions it cannot lose."""


class TransportMismatch(ValidationFailure):
    """Transported structure maps disagree with pointwise convolution."""


# ------------------------------------------------------------------ groups

class FiniteGroup:
    """A finite group as an exhaustively validated multiplication table.

    Construction checks associativity, a two-sided identity, and
    two-sided inverses over the whole table, so an instance in hand obeys
    the axioms. The inverse table is derived and stored.
    """

    __slots__ = ("order", "mul", "identity", "inverse", "names")

    def __init__(self, mul, names=None):
        table = tuple(tuple(int(x) for x in row) for row in mul)
        n = len(table)
        if n == 0:
            raise NotAGroup("empty multiplication table")
        for row in table:
            if len(row) != n:
                raise NotAGroup("multiplication table is not square")
            for x in row:
                if not 0 <= x < n:
                    raise NotAGroup(f"table entry {x} out of range 0..{n - 1}")
        self.mul = table
        self.order = n
        identity = None
        for e in range(n):
            if all(table[e][x] == x and table[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise NotAGroup("no two-sided identity element")
        self.identity = identity
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if table[table[a][b]][c] != table[a][table[b][c]]:
                        raise NotAGroup(
                            f"associativity fails at ({a}, {b}, {c})"
                        )
        inverse = []
        for a in range(n):
            found = None
            for b in range(n):
                if table[a][b] == identity and table[b][a] == identity:
                    found = b
                    break
            if found is None:
                raise NotAGroup(f"element {a} has no two-sided inverse")
            inverse.append(found)
        self.inverse = tuple(inverse)
        if names is None:
            names = tuple(str(i) for i in range(n))
        else:
            names = tuple(str(s) for s in names)
            if len(names) != n or len(set(names)) != n:
                raise NotAGroup("names must be distinct, one per element")
        self.names = names

    def op(self, a, b):
        return self.mul[a][b]

    def inv(self, a):
        return self.inverse[a]

    def __repr__(self):
        return f"FiniteGroup(order {self.order})"


def cyclic_group(n):
    if n < 1:
        raise InputError("cyclic group order must be >= 1")
    return FiniteGroup([[(a + b) % n for b in range(n)] for a in range(n)])


def product_group(g, h):
    """Direct product; index (a, b) -> a * |h| + b."""
    n = g.order * h.order
    mul = [[0] * n for _ in range(n)]
    for a1 in range(g.order):
        for a2 in range(h.order):
            for b1 in range(g.order):
                for b2 in range(h.order):
                    mul[a1 * h.order + a2][b1 * h.order + b2] = (
                        g.mul[a1][b1] * h.order + h.mul[a2][b2]
                    )
    names = [
        f"({g.names[a1]},{h.names[a2]})"
        for a1 in range(g.order)
        for a2 in range(h.order)
    ]
    return FiniteGroup(mul, names)


def symmetric_group(n):
    """All permutations of n points; product = left one applied last."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}
    mul = [
        [index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms
    ]
    names = ["".join(str(x) for x in p) for p in perms]
    return FiniteGroup(mul, names)


# ----------------------------------------------------------------- actions

class GradedAction:
    """A finite group acting on every component of a graded spec.

    maps[(g, i)] is the automorphism the group element g induces on
    component i. Built through build_action, which checks the action
    laws and equivariance with the structure maps; equivariance is what
    lets a single group element act on the whole graded algebra at once.
    """

    __slots__ = ("group", "spec", "maps")

    def __init__(self, group, spec, maps):
        self.group = group
        self.spec = spec
        self.maps = maps

    def component_map(self, g, i):
        return self.maps[(g, i)]

    def apply(self, g, x):
        """Act on a graded element, componentwise."""
        return gr.GradedElement(
            self.spec,
            [
                self.maps[(g, i)].apply(x.comps[i])
                for i in range(self.spec.L.n)
            ],
        )


def trivial_action(group, spec):
    maps = {
        (g, i): fd.identity_hom(spec.components[i])
        for g in range(group.order)
        for i in range(spec.L.n)
    }
    return GradedAction(group, spec, maps)


def build_action(group, spec, maps, tol=ACTION_TOL):
    """Validate and assemble a graded action.

    Checks per component: each map is an invertible *-homomorphism of
    that component, the identity element acts as the identity, and the
    maps compose along the group law. Across components: every map
    commutes with every structure morphism. Maps for the identity
    element may be omitted and default to the identity.
    """
    n = spec.L.n
    g_ord = group.order
    full = dict(maps)
    for i in range(n):
        full.setdefault((group.identity, i), fd.identity_hom(spec.components[i]))
    for key in full:
        if not (
            isinstance(key, tuple)
            and len(key) == 2
            and 0 <= key[0] < g_ord
            and 0 <= key[1] < n
        ):
            raise ActionInvalid(f"unrecognized action key {key!r}")
    # the first (g, i), row-major, whose map is missing or not an
    # endomorphism; the numeric checks below run on the maps before it
    broken = None
    for g, i in itertools.product(range(g_ord), range(n)):
        h = full.get((g, i))
        if h is None:
            broken = (g, i), f"no map for group element {group.names[g]} on index {i}"
        elif h.source != spec.components[i] or h.target != spec.components[i]:
            broken = (g, i), (
                f"map for ({group.names[g]}, {i}) is not an endomorphism "
                f"of {spec.components[i]}"
            )
        if broken is not None:
            break
    failures = []  # ((g, i), message) of every map that fails a check
    stacks = []  # per index, the stack of its maps over the group
    for i in range(n):
        gs = [g for g in range(g_ord) if broken is None or (g, i) < broken[0]]
        if not gs:
            continue
        shape = spec.components[i]
        mats = np.stack([full[(g, i)].matrix for g in gs])
        stacks.append(mats)
        not_star = fd.check_starhoms(shape, shape, mats, tol)[3]
        for p, exc in not_star.items():
            failures.append(((gs[p], i), (
                f"map for ({group.names[gs[p]]}, {i}) is not a "
                f"*-homomorphism: {exc}"
            )))
        passed = [p for p in range(len(gs)) if p not in not_star]
        for p in np.asarray(passed, dtype=int)[fd.rank(mats[passed]) != shape.dim]:
            failures.append(((gs[p], i), (
                f"map for ({group.names[gs[p]]}, {i}) is not invertible"
            )))
    if broken is not None:
        failures.append(broken)
    if failures:
        raise ActionInvalid(min(failures)[1])
    for i in range(n):
        e_resid = fd.maxabs(stacks[i][group.identity] - np.eye(spec.components[i].dim))
        if not e_resid <= tol:
            raise ActionInvalid(
                f"identity element acts nontrivially on index {i} "
                f"(residual {e_resid:.3e})"
            )
    # composition: resid[g, h, i] for g after h on index i
    mul = np.asarray(group.mul)
    resid = np.stack(
        [
            np.abs(m[:, None] @ m[None] - m[mul]).max(axis=(-2, -1), initial=0.0)
            for m in stacks
        ],
        axis=-1,
    )
    bad = np.flatnonzero(~(resid <= tol))
    if bad.size:
        g, h, i = np.unravel_index(bad[0], resid.shape)
        raise ActionInvalid(
            f"composition fails on index {i}: "
            f"{group.names[g]} after {group.names[h]} is not "
            f"{group.names[mul[g, h]]} (residual {resid[g, h, i]:.3e})"
        )
    for (i, j) in spec.L.comparable_pairs():
        if i == j:
            continue
        phi = spec.phi[(i, j)].matrix
        resid = np.abs(stacks[i] @ phi - phi @ stacks[j]).max(axis=(-2, -1), initial=0.0)
        bad = np.flatnonzero(~(resid <= tol))
        if bad.size:
            g = bad[0]
            raise ActionInvalid(
                f"map for {group.names[g]} does not commute with the "
                f"structure morphism ({i}, {j}) (residual {resid[g]:.3e})"
            )
    return GradedAction(group, spec, full)


# ------------------------------------------------------------------ tensor

def tensor_shape(sa, sb):
    """Blockwise Kronecker shape: all products of block sides, left-major."""
    return fd.AlgebraShape([da * db for da in sa.blocks for db in sb.blocks])


def _tensor_basis_permutation(sa, sb):
    """perm[a * dim(sb) + b] = basis index of E_a (x) F_b in tensor_shape.

    Kronecker products of matrix units are matrix units, so the tensor
    basis is a relabeling of the product shape's canonical basis.
    """
    shape = tensor_shape(sa, sb)
    index = {t: x for x, t in enumerate(shape.basis_triples())}
    perm = np.empty(sa.dim * sb.dim, dtype=int)
    x = 0
    for (i, p, q) in sa.basis_triples():
        for (j, u, v) in sb.basis_triples():
            d = sb.blocks[j]
            perm[x] = index[(i * sb.nblocks + j, p * d + u, q * d + v)]
            x += 1
    return perm


def tensor_hom(ha, hb):
    """The map between tensor shapes acting factorwise."""
    src = tensor_shape(ha.source, hb.source)
    tgt = tensor_shape(ha.target, hb.target)
    ps = _tensor_basis_permutation(ha.source, hb.source)
    pt = _tensor_basis_permutation(ha.target, hb.target)
    m = np.zeros((tgt.dim, src.dim), dtype=complex)
    m[np.ix_(pt, ps)] = np.kron(ha.matrix, hb.matrix)
    return fd.StarHom(src, tgt, m)


def tensor_spec(a, b, tol=gr.AXIOM_TOL):
    """The graded tensor product over the product semilattice.

    Components multiply blockwise, structure maps act factorwise, and
    the result is validated in full before being returned.
    """
    L = sl.product_semilattice(a.L, b.L)
    nb = b.L.n
    comps = [
        tensor_shape(a.components[k // nb], b.components[k % nb])
        for k in range(L.n)
    ]
    phi = {}
    for (x, y) in L.comparable_pairs():
        if x == y:
            continue
        i1, i2 = divmod(x, nb)
        j1, j2 = divmod(y, nb)
        phi[(x, y)] = tensor_hom(a.phi[(i1, j1)], b.phi[(i2, j2)])
    out = gr.GradedSpec(L, comps, phi)
    gr.validate_spec(out, tol)
    return out


# ------------------------------------------------------- crossed products

@dataclass
class ComponentRealization:
    """Coordinates for one component's convolution algebra.

    matrix maps convolution coordinates (group-element major, then the
    component basis) to the realized component's canonical coordinates;
    inverse goes back. shape is the realized block structure.
    """

    conv_dim: int
    shape: fd.AlgebraShape
    matrix: np.ndarray
    inverse: np.ndarray
    wedderburn: object


@dataclass
class CrossedProduct:
    action: GradedAction
    spec: gr.GradedSpec
    realizations: list


def _left_translation_matrix(group, s):
    g = group.order
    u = np.zeros((g, g))
    u[[group.mul[s][rp] for rp in range(g)], np.arange(g)] = 1.0
    return u


def _regular_span(act, i):
    """The left-regular images of d_s (x) E_b, group-element major.

    The carrier is group-many copies of component i's ambient space; a
    coefficient acts in copy r through the inverse group element's
    automorphism, and a group element permutes the copies.
    """
    group = act.group
    g = group.order
    shape = act.spec.components[i]
    d, side = shape.dim, shape.side
    rows, cols = fd.ambient_index_maps(shape)
    big = g * side
    rho = np.zeros((d, big, big), dtype=complex)
    for r in range(g):
        # rho[b] in copy r is the ambient matrix of alpha_{r^-1}(E_b)
        copy = rho[:, r * side : (r + 1) * side, r * side : (r + 1) * side]
        copy[:, rows, cols] = act.maps[(group.inverse[r], i)].matrix.T
    ambient = fd.AlgebraShape([big])
    elems = []
    for s in range(g):
        ubig = np.kron(_left_translation_matrix(group, s), np.eye(side))
        for b in range(d):
            elems.append(fd.AlgElement(ambient, [rho[b] @ ubig]))
    return elems


def _realize_component(act, i):
    """Block shape and coordinate change of one convolution algebra."""
    d = act.spec.components[i].dim
    if d == 0:
        empty = fd.AlgebraShape(())
        return ComponentRealization(
            0, empty, np.zeros((0, 0)), np.zeros((0, 0)), None
        )
    g = act.group.order
    elems = _regular_span(act, i)
    data = kt.wedderburn(elems)
    if data.span_dim != g * d:
        raise RealizationFault(
            f"regular representation of index {i} spans {data.span_dim} "
            f"dimensions, expected {g * d}"
        )
    mat = np.stack(
        [fd.to_vector(data.coordinates(x)) for x in elems], axis=1
    )
    return ComponentRealization(
        conv_dim=g * d,
        shape=data.shape,
        matrix=mat,
        inverse=np.linalg.inv(mat),
        wedderburn=data,
    )


def _check_transport(act, out, reals, tol=TRANSPORT_TOL):
    """The realizations must carry convolution to the output's products
    and adjoints.

    R_i is reals[i].matrix, with columns d_s (x) E_a in group-element-major
    order. Product identity, once per ordered pair (i, j) with
    k = i ^ j, over every (s, a, t, b) at once:
    phi_ki(R_i(d_s (x) E_a)) phi_kj(R_j(d_t (x) E_b))
    = R_k(d_st (x) q_ij(E_a, alpha_s(E_b))), with q_ij the input's
    bilinear family. Star identity, once per component:
    R_i(d_{s^-1} (x) alpha_{s^-1}(E_a*)) = R_i(d_s (x) E_a)*.
    """
    spec = act.spec
    group = act.group
    g = group.order
    L = spec.L
    mul = np.asarray(group.mul)
    inv = np.asarray(group.inverse)
    alpha = [
        np.stack([act.maps[(s, i)].matrix for s in range(g)])
        for i in range(L.n)
    ]
    # blocks[i][p, s, a] is entry p of R_i(d_s (x) E_a)
    blocks = [
        re.matrix.reshape(re.matrix.shape[0], g, c.dim)
        for re, c in zip(reals, spec.components)
    ]
    q = gr.q_family_from_spec(spec).tensors
    resids = []
    for i in range(L.n):
        if spec.components[i].dim == 0:
            continue
        star = np.einsum(
            "psn,sna->psa",
            blocks[i][:, inv],
            alpha[i][inv][:, :, fd.adjoint_permutation(spec.components[i])],
        )
        adj = np.conj(reals[i].matrix)[fd.adjoint_permutation(out.components[i])]
        resids.append(fd.maxabs(star.reshape(adj.shape) - adj))
        for j in range(L.n):
            k = L.meet_of(i, j)
            if 0 in (spec.components[j].dim, spec.components[k].dim):
                continue
            got = fd.pair_products(
                out.components[k],
                out.phi[(k, i)].matrix @ reals[i].matrix,
                out.phi[(k, j)].matrix @ reals[j].matrix,
            )
            want = np.einsum(
                "nam,smb,pstn->satbp", q[(i, j)], alpha[j], blocks[k][:, mul],
                optimize=True,
            )
            resids.append(fd.maxabs(got - want.reshape(got.shape)))
    worst = fd.maxabs(resids)
    if not worst <= tol:
        raise TransportMismatch(
            f"output products deviate from convolution by {worst:.3e}"
        )
    return worst


def build_crossed_product(act, tol=gr.AXIOM_TOL):
    """Full crossed-product construction with its coordinate data.

    Realizes each component, transports the structure maps, validates the
    resulting spec and checks the transport. Nothing else needs checking:
    each R_i is bijective, multiplicative (the i = j case of the transport
    check) and *-preserving, so the convolution laws are pulled back from
    the block algebra; and the components stay independent because Pi is
    unitriangular and the action maps are invertible, which build_action
    checks.
    """
    spec = act.spec
    g = act.group.order
    reals = [_realize_component(act, i) for i in range(spec.L.n)]
    phi = {}
    for (i, j) in spec.L.comparable_pairs():
        if i == j:
            continue
        m = (
            reals[i].matrix
            @ np.kron(np.eye(g), spec.phi[(i, j)].matrix)
            @ reals[j].inverse
        )
        phi[(i, j)] = fd.StarHom(reals[j].shape, reals[i].shape, m)
    out = gr.GradedSpec(spec.L, [re.shape for re in reals], phi)
    gr.validate_spec(out, tol)
    _check_transport(act, out, reals)
    return CrossedProduct(action=act, spec=out, realizations=reals)


def crossed_product(act):
    """The crossed-product graded spec over the action's semilattice."""
    return build_crossed_product(act).spec
