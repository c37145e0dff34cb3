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
maps transport correctly. Counting measure, trivial modular function,
and full = reduced are all silently in force: the group is finite.
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
CONV_TOL = 1e-9
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
    for g in range(g_ord):
        for i in range(n):
            h = full.get((g, i))
            if h is None:
                raise ActionInvalid(
                    f"no map for group element {group.names[g]} on index {i}"
                )
            if h.source != spec.components[i] or h.target != spec.components[i]:
                raise ActionInvalid(
                    f"map for ({group.names[g]}, {i}) is not an endomorphism "
                    f"of {spec.components[i]}"
                )
            try:
                fd.validate_starhom(h, tol)
            except ValidationFailure as exc:
                raise ActionInvalid(
                    f"map for ({group.names[g]}, {i}) is not a "
                    f"*-homomorphism: {exc}"
                ) from exc
            if fd.rank(h.matrix) != spec.components[i].dim:
                raise ActionInvalid(
                    f"map for ({group.names[g]}, {i}) is not invertible"
                )
    for i in range(n):
        e_resid = fd.maxabs(
            full[(group.identity, i)].matrix
            - np.eye(spec.components[i].dim)
        )
        if not e_resid <= tol:
            raise ActionInvalid(
                f"identity element acts nontrivially on index {i} "
                f"(residual {e_resid:.3e})"
            )
    for g in range(g_ord):
        for h in range(g_ord):
            gh = group.mul[g][h]
            for i in range(n):
                resid = fd.maxabs(
                    full[(g, i)].matrix @ full[(h, i)].matrix
                    - full[(gh, i)].matrix
                )
                if not resid <= tol:
                    raise ActionInvalid(
                        f"composition fails on index {i}: "
                        f"{group.names[g]} after {group.names[h]} is not "
                        f"{group.names[gh]} (residual {resid:.3e})"
                    )
    for (i, j) in spec.L.comparable_pairs():
        if i == j:
            continue
        phi = spec.phi[(i, j)].matrix
        for g in range(g_ord):
            resid = fd.maxabs(
                full[(g, i)].matrix @ phi - phi @ full[(g, j)].matrix
            )
            if not resid <= tol:
                raise ActionInvalid(
                    f"map for {group.names[g]} does not commute with the "
                    f"structure morphism ({i}, {j}) (residual {resid:.3e})"
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


def tensor_intersection_dims(a, b, tensor, l, m):
    """Dimension data for the slice overlap at (l, m) in a tensor spec.

    Returns (dim of left-slice span, dim of right-slice span, dim of
    their intersection, dim of the (l, m) component), computed from
    ranks of faithful images, the columns of tensor.pi: left slice = every
    component with first coordinate l, right slice = every component with
    second coordinate m. The intersection dimension uses
    dim(U) + dim(V) - dim(U + V).
    """
    nb = b.L.n

    def slice_vectors(indices):
        return np.concatenate([tensor.pi[:, tensor.span(k)] for k in indices], axis=1)

    left = slice_vectors([sl.product_index(b.L, l, m2) for m2 in range(nb)])
    right = slice_vectors(
        [sl.product_index(b.L, l1, m) for l1 in range(a.L.n)]
    )

    du, dv = fd.rank(left), fd.rank(right)
    dsum = fd.rank(np.concatenate([left, right], axis=1))
    inter = du + dv - dsum
    both = tensor.components[sl.product_index(b.L, l, m)].dim
    return du, dv, inter, both


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


def _component_arrays(act, i):
    shape = act.spec.components[i]
    d, side = shape.dim, shape.side
    rows, cols = fd.ambient_index_maps(shape)
    g = act.group.order
    alpha = [act.maps[(s, i)].matrix for s in range(g)]
    amb_basis = np.zeros((d, side, side), dtype=complex)
    amb_basis[np.arange(d), rows, cols] = 1.0
    amb_alpha = np.zeros((g, d, side, side), dtype=complex)
    for s in range(g):
        amb_alpha[s][:, rows, cols] = alpha[s].T
    return shape, d, side, rows, cols, alpha, amb_basis, amb_alpha


def _check_convolution_axioms(act, i, tol=CONV_TOL):
    """Verify the convolution *-algebra laws on basis functions.

    Basis functions are delta masses with a basis coefficient; the
    product of two is another delta mass, so associativity and the
    involution laws reduce to coefficient identities checked here. The
    common left basis factor of the associativity law multiplies
    through unchanged and is dropped.
    """
    group = act.group
    g = group.order
    shape, d, side, rows, cols, alpha, amb_basis, amb_alpha = (
        _component_arrays(act, i)
    )
    if d == 0:
        return 0.0
    P = fd.adjoint_permutation(shape)
    resids = []

    for s1 in range(g):
        for s2 in range(g):
            s12 = group.mul[s1][s2]
            lhs = np.einsum(
                "buv,cvw->bcuw", amb_alpha[s1], amb_alpha[s12]
            )
            inner = np.einsum("buv,cvw->bcuw", amb_basis, amb_alpha[s2])
            pushed = np.einsum("nm,bcm->bcn", alpha[s1], inner[..., rows, cols])
            rhs = np.zeros_like(lhs)
            rhs[..., rows, cols] = pushed
            resids.append(fd.maxabs(lhs - rhs))

    for s in range(g):
        v1 = alpha[group.inverse[s]][:, P]
        v2 = alpha[s] @ np.conj(v1)[P, :]
        resids.append(fd.maxabs(v2 - np.eye(d)))

    struct = np.einsum("auv,bvw->abuw", amb_basis, amb_basis)[..., rows, cols]
    for s1 in range(g):
        for s2 in range(g):
            s12 = group.mul[s1][s2]
            s12inv = group.inverse[s12]
            prodvec = np.einsum(
                "auv,bvw->abuw", amb_basis, amb_alpha[s1]
            )[..., rows, cols]
            left = np.einsum(
                "nm,abm->abn", alpha[s12inv], np.conj(prodvec)[..., P]
            )
            v_y = alpha[group.inverse[s2]][:, P]
            w_x = alpha[group.inverse[s2]] @ alpha[group.inverse[s1]][:, P]
            right = np.einsum("ub,va,uvn->abn", v_y, w_x, struct)
            resids.append(fd.maxabs(left - right))

    worst = fd.maxabs(resids)
    if not worst <= tol:
        raise ActionInvalid(
            f"convolution algebra laws fail on index {i} "
            f"(residual {worst:.3e})"
        )
    return worst


def _left_translation_matrix(group, s):
    g = group.order
    u = np.zeros((g, g))
    u[[group.mul[s][rp] for rp in range(g)], np.arange(g)] = 1.0
    return u


def _realize_component(act, i, seed):
    """Left-regular realization of one convolution algebra.

    The carrier is group-many copies of the component's ambient space;
    a coefficient acts in copy r through the inverse group element's
    automorphism, and a group element permutes the copies. Wedderburn
    then yields the block shape and the coordinate change.
    """
    group = act.group
    g = group.order
    shape, d, side, rows, cols, alpha, amb_basis, amb_alpha = (
        _component_arrays(act, i)
    )
    if d == 0:
        empty = fd.AlgebraShape(())
        return ComponentRealization(
            0, empty, np.zeros((0, 0)), np.zeros((0, 0)), None
        )
    big = g * side
    rho = np.zeros((d, big, big), dtype=complex)
    for r in range(g):
        rinv = group.inverse[r]
        rho[:, r * side : (r + 1) * side, r * side : (r + 1) * side] = (
            amb_alpha[rinv]
        )
    ambient = fd.AlgebraShape([big])
    elems = []
    for s in range(g):
        ubig = np.kron(_left_translation_matrix(group, s), np.eye(side))
        for b in range(d):
            elems.append(fd.AlgElement(ambient, [rho[b] @ ubig]))
    data = kt.wedderburn(elems, seed=seed)
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
    """Products in the output spec must match mixed convolution.

    For basis functions f at index i and h at index j, the convolution
    of their images lands at the meet and equals the output's bilinear
    product of the realized elements. This pins the transported
    structure maps to pointwise application of the originals.
    """
    spec = act.spec
    group = act.group
    g = group.order
    L = spec.L
    q_in = gr.q_family_from_spec(spec)
    q_out = gr.q_family_from_spec(out)
    resids = []
    for i in range(L.n):
        for j in range(L.n):
            k = L.meet_of(i, j)
            d_i = spec.components[i].dim
            d_j = spec.components[j].dim
            d_k = spec.components[k].dim
            if 0 in (d_i, d_j):
                continue
            t_in = q_in.tensors[(i, j)]
            t_out = q_out.tensors[(i, j)]
            r_i, r_j, r_k = reals[i].matrix, reals[j].matrix, reals[k].matrix
            for s in range(g):
                mixed = np.einsum(
                    "kab,bm->kam", t_in, act.maps[(s, j)].matrix
                )
                for t in range(g):
                    u0 = group.mul[s][t]
                    got = np.einsum(
                        "upq,pa,qb->uab",
                        t_out,
                        r_i[:, s * d_i : (s + 1) * d_i],
                        r_j[:, t * d_j : (t + 1) * d_j],
                    )
                    want = np.einsum(
                        "nk,kab->nab",
                        r_k[:, u0 * d_k : (u0 + 1) * d_k],
                        mixed,
                    )
                    resids.append(fd.maxabs(got - want))
    worst = fd.maxabs(resids)
    if not worst <= tol:
        raise TransportMismatch(
            f"output products deviate from convolution by {worst:.3e}"
        )
    return worst


def _check_total_independence(act, rtol=fd.RANK_RTOL):
    """Rank test: the component convolution algebras stay independent
    inside the realized crossed product of the whole graded algebra.

    The realized covariance relation reduces to the action composition
    law checked at build time, so rank is the remaining content.
    """
    spec = act.spec
    group = act.group
    g = group.order
    n_tot = spec.total_dim
    if n_tot == 0:
        return
    ambient = spec.ambient_shape()
    side_h = ambient.side
    # column t: the faithful image of basis element t as a side_h x side_h
    # block-diagonal matrix, flattened
    rows, cols = fd.ambient_index_maps(ambient)
    f_cols = np.zeros((side_h * side_h, n_tot), dtype=complex)
    f_cols[rows * side_h + cols] = spec.pi
    m_s = []
    for s in range(g):
        m = np.zeros((n_tot, n_tot), dtype=complex)
        for i in range(spec.L.n):
            o = spec.offsets[i]
            d = spec.components[i].dim
            m[o : o + d, o : o + d] = act.maps[(s, i)].matrix
        m_s.append(m)
    big = g * side_h
    rep_r = []
    for r in range(g):
        w = f_cols @ m_s[group.inverse[r]]
        rep_r.append(w.T.reshape(n_tot, side_h, side_h))
    vecs = []
    for s in range(g):
        ubig = np.kron(_left_translation_matrix(group, s), np.eye(side_h))
        for t in range(n_tot):
            rho = np.zeros((big, big), dtype=complex)
            for r in range(g):
                rho[
                    r * side_h : (r + 1) * side_h,
                    r * side_h : (r + 1) * side_h,
                ] = rep_r[r][t]
            vecs.append((rho @ ubig).reshape(-1))
    stacked = np.asarray(vecs)
    rank = fd.rank(stacked, rtol)
    if rank != g * n_tot:
        raise RealizationFault(
            f"component convolution algebras span rank {rank} in the total "
            f"crossed product, expected {g * n_tot}"
        )


def build_crossed_product(act, seed=None, tol=gr.AXIOM_TOL):
    """Full crossed-product construction with its coordinate data.

    Validates the convolution laws per component, realizes each
    component, transports the structure maps, validates the resulting
    spec, and checks the transported products against convolution and
    the components' joint independence.
    """
    spec = act.spec
    group = act.group
    g = group.order
    for i in range(spec.L.n):
        _check_convolution_axioms(act, i)
    reals = [
        _realize_component(act, i, seed) for i in range(spec.L.n)
    ]
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
    _check_total_independence(act)
    return CrossedProduct(action=act, spec=out, realizations=reals)


def crossed_product(act, seed=None):
    """The crossed-product graded spec over the action's semilattice."""
    return build_crossed_product(act, seed=seed).spec
