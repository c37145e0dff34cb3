"""Tensor products of graded specs and crossed products by finite groups.

tensor_spec combines two specs over the product semilattice, with
componentwise Kronecker blocks and Kronecker structure maps: the product's
Pi is one gather of Pi_a (x) Pi_b, which relabels its graded basis, and
the output spec is built over it and certified from the factors'
validation bounds when both carry them. Minimal and maximal tensor norms
agree for finite-dimensional algebras, so a single construction covers
both readings.

crossed_product turns a validated group action into a new graded spec
over the same semilattice. Each component is the convolution *-algebra
of functions from the group into that component, realized exactly in
block coordinates, one block orbit at a time, by Green's imprimitivity
theorem for finite groups: over an orbit O of blocks of side n with
stabilizer H it is M_|O| (x) M_n (x) C_omega(H), where omega is the
2-cocycle of the unitaries that implement H on a block. Only the
|H|-dimensional twisted group algebra needs its irreps: when it is
commutative, as for every cyclic H, they are its twisted characters,
written down in closed form, and otherwise wedderburn decomposes it. The
block permutation, the cosets and the unitaries are read off the action
maps. The change of basis is kept so the structure maps transport
correctly. Nothing draws random numbers, so the output is a function of
the action alone. Counting measure, trivial modular function, and
full = reduced are all silently in force: the group is finite.

Besides validating the output spec, crossed_product checks one thing per
index: that its realization is a *-isomorphism onto the block algebra.
build_crossed_product proves that the products across indices follow and
says why nothing else needs checking.
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
    the axioms. The table mul and the derived inverse table are stored
    as read-only np.intp arrays.
    """

    __slots__ = ("order", "mul", "identity", "inverse", "names")

    def __init__(self, mul, names=None):
        if len(mul) == 0:
            raise NotAGroup("empty multiplication table")
        self.mul = table = sl._int_table(mul, "multiplication table", "table entry", NotAGroup)
        self.order = n = len(table)
        # the first e with e x = x e = x for every x
        units = np.flatnonzero(((table == np.arange(n)) & (table.T == np.arange(n))).all(1))
        if not units.size:
            raise NotAGroup("no two-sided identity element")
        self.identity = identity = int(units[0])
        bad = sl._first_nonassociative(table)
        if bad is not None:
            raise NotAGroup(f"associativity fails at {bad[:3]}")
        # inverse[a]: the first b with a b = b a = identity
        both = (table == identity) & (table.T == identity)
        lacking = np.flatnonzero(~both.any(axis=1))
        if lacking.size:
            raise NotAGroup(f"element {lacking[0]} has no two-sided inverse")
        self.inverse = both.argmax(axis=1)
        self.inverse.flags.writeable = False
        if names is None:
            names = tuple(str(i) for i in range(n))
        else:
            names = tuple(str(s) for s in names)
            if len(names) != n or len(set(names)) != n:
                raise NotAGroup("names must be distinct, one per element")
        self.names = names

    def __repr__(self):
        return f"FiniteGroup(order {self.order})"


def cyclic_group(n):
    if n < 1:
        raise InputError("cyclic group order must be >= 1")
    return FiniteGroup([[(a + b) % n for b in range(n)] for a in range(n)])


def product_group(g, h):
    """Direct product; index (a, b) -> a * |h| + b."""
    names = [f"({a},{b})" for a in g.names for b in h.names]
    return FiniteGroup(sl._componentwise_table(g.mul, h.mul), names)


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
    laws and equivariance with the structure maps, or by a construction
    that proves them (workbench.build_coset_spec); equivariance is what
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


def build_action(group, spec, maps):
    """Validate and assemble a graded action.

    Checks per component: each map is an invertible *-homomorphism of
    that component, the identity element acts as the identity, and the
    maps compose along the group law. Across components: every map
    commutes with every structure morphism, all within ACTION_TOL. Maps
    for the identity element may be omitted and default to the identity.
    """
    n = spec.L.n
    g_ord = group.order
    full = dict(maps)
    for i in range(n):
        if (group.identity, i) not in full:
            full[(group.identity, i)] = fd.identity_hom(spec.components[i])
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
        not_star = fd.check_starhoms(shape, shape, mats, ACTION_TOL)[3]
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
        if not e_resid <= ACTION_TOL:
            raise ActionInvalid(
                f"identity element acts nontrivially on index {i} "
                f"(residual {e_resid:.3e})"
            )
    # composition: resid[g, h, i] for g after h on index i
    resid = np.stack(
        [
            np.abs(m[:, None] @ m[None] - m[group.mul]).max(axis=(-2, -1), initial=0.0)
            for m in stacks
        ],
        axis=-1,
    )
    bad = np.flatnonzero(~(resid <= ACTION_TOL))
    if bad.size:
        g, h, i = np.unravel_index(bad[0], resid.shape)
        raise ActionInvalid(
            f"composition fails on index {i}: "
            f"{group.names[g]} after {group.names[h]} is not "
            f"{group.names[group.mul[g, h]]} (residual {resid[g, h, i]:.3e})"
        )
    for (i, j) in spec.L.comparable_pairs():
        if i == j:
            continue
        phi = spec.pi_block(i, j)
        resid = np.abs(stacks[i] @ phi - phi @ stacks[j]).max(axis=(-2, -1), initial=0.0)
        bad = np.flatnonzero(~(resid <= ACTION_TOL))
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


def tensor_spec(a, b):
    """The graded tensor product over the product semilattice.

    Components multiply blockwise and structure maps act factorwise, so
    the product's Pi is Pi_a (x) Pi_b with its graded basis relabeled.

    When both factors carry validated_bounds, the product is certified
    from them instead of validated. The relabeling sends E (x) F, for
    matrix units E and F, to a matrix unit, and entrywise and Frobenius
    norms are multiplicative under (x). Write nu for a factor's largest
    column 2-norm of Pi, which bounds the Frobenius norm of the image of a
    matrix unit under every map, and expand
        (X + D1) (x) (Y + D2) - X (x) Y = D1 (x) Y + X (x) D2 + D1 (x) D2.
      - Identity: phi_{i,i} = I + D1 and psi_{i',i'} = I + D2 give
        zeta_T <= zeta_a + zeta_b + zeta_a zeta_b.
      - Star: at E (x) F take X = phi(E)*, D1 = phi(E*) - phi(E)* and
        likewise Y, D2; ||X||, ||Y|| <= nu, so
        sigma_T <= sigma_a nu_b + nu_a sigma_b + sigma_a sigma_b.
      - Multiplicativity: at the basis pair (E (x) F, E' (x) F') take
        X = phi(E E'), D1 = phi(E) phi(E') - X and likewise Y, D2; E E' is a
        matrix unit or 0, so the same form bounds delta_T.
      - Axiom (b): at indices (i, i'), (j, j') with meet (k, k') and
        (m, m') < (k, k'), and matrix units x = E (x) F, y = E' (x) F', let
        v = phi_{m,i}(E) phi_{m,j}(E') and r = phi_{m,k}(phi_{k,i}(E)
        phi_{k,j}(E')) - v, and w, s likewise in the second factor. The
        product's residual is r (x) w + v (x) s + r (x) s, with
        |v|, |w| <= ||v||_F <= nu^2 entrywise. For m < k, |r| <= beta, the
        factor's own axiom (b) bound. For m = k, a triple its own check
        never visits, r = (phi_{k,k} - I) u for u = phi_{k,i}(E)
        phi_{k,j}(E'), so |r| <= zeta ||u||_1 <= zeta sqrt(dim) nu^2 with
        dim the largest component dimension. With
        beta' = max(beta, zeta sqrt(dim) nu^2),
        beta_T <= beta'_a nu_b^2 + nu_a^2 beta'_b + beta'_a beta'_b.
    These bound every quantity validate_spec(product, AXIOM_TOL) compares
    with AXIOM_TOL, so when all four are within it, it would pass: they
    are recorded on the product, which can then be a certified factor in
    turn. Otherwise, a factor without bounds included, the product is
    validated in full and raises what validate_spec raises.
    """
    L = sl.product_semilattice(a.L, b.L)
    nb = b.L.n
    comps, perm = [], []
    for k in range(L.n):
        i, j = divmod(k, nb)
        ca, cb = a.components[i], b.components[j]
        comps.append(tensor_shape(ca, cb))
        # the row of kron(a.pi, b.pi) for E_a (x) F_b, at that element's
        # position in the product's graded basis
        rows = np.empty(ca.dim * cb.dim, dtype=int)
        rows[_tensor_basis_permutation(ca, cb)] = np.add.outer(
            (a.offsets[i] + np.arange(ca.dim)) * b.total_dim,
            b.offsets[j] + np.arange(cb.dim),
        ).reshape(-1)
        perm.append(rows)
    perm = np.concatenate(perm)
    pi = np.kron(a.pi, b.pi)[np.ix_(perm, perm)]
    # a zero block of one factor times a NaN of the other is NaN: keep the
    # blocks off the product order exactly 0, which is all from_pi checks
    owner = gr._owners(comps)
    pi[~L.le[np.ix_(owner, owner)]] = 0
    out = gr.GradedSpec._of_pi(L, comps, pi)
    bounds = _tensor_bounds(a, b)
    if bounds is not None and all(x <= gr.AXIOM_TOL for x in bounds):
        out._set_verdict(gr.AXIOM_TOL, bounds)
    else:
        gr.validate_spec(out, gr.AXIOM_TOL)
    return out


def _tensor_bounds(a, b):
    """The SpecBounds tensor_spec derives for a (x) b from the factors'
    validated_bounds, or None when a factor has none."""
    if a.validated_bounds is None or b.validated_bounds is None:
        return None
    (za, sa, da, ba, na), (zb, sb, db, bb, nb) = map(_factor_terms, (a, b))

    def cross(x, y, nx, ny):
        return x * ny + nx * y + x * y

    return gr.SpecBounds(
        cross(za, zb, 1.0, 1.0),
        cross(sa, sb, na, nb),
        cross(da, db, na, nb),
        cross(ba, bb, na**2, nb**2),
    )


def _factor_terms(spec):
    """(zeta, sigma, delta, beta', nu) of a factor with validated_bounds,
    as in tensor_spec."""
    zeta, sigma, delta, beta = spec.validated_bounds
    nu = float(np.linalg.norm(spec.pi, axis=0).max(initial=0.0))
    dim = max((c.dim for c in spec.components), default=0)
    return zeta, sigma, delta, float(max(beta, zeta * np.sqrt(dim) * nu**2)), nu


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


@dataclass
class CrossedProduct:
    action: GradedAction
    spec: gr.GradedSpec
    realizations: list


def _block_permutations(alpha, shape, group, i):
    """sigma[s, b]: the block of component i that alpha_s carries block b
    onto.

    alpha_s(P_b), for the block unit P_b, is the unit of one block of the
    same side, so the trace of its part in block c is an integer: the side
    of b at c = sigma[s, b] and 0 elsewhere. Each sigma[s] must be a
    permutation and s -> sigma[s] a group action.
    """
    g, sides = group.order, np.asarray(shape.blocks)
    diag = np.concatenate([
        off + np.arange(d) * (d + 1) for d, off in zip(shape.blocks, shape.block_offsets())
    ])
    starts = np.concatenate([[0], np.cumsum(sides[:-1])])
    # traces[s, c, b]: the trace of block c of alpha_s(P_b)
    traces = np.add.reduceat(
        np.add.reduceat(alpha[:, diag][:, :, diag], starts, axis=1), starts, axis=2
    )
    ints = np.round(traces.real)
    sigma = np.abs(ints).argmax(axis=1)
    want = np.zeros_like(ints)
    want[np.arange(g)[:, None], sigma, np.arange(len(sides))] = sides
    ok = (
        (np.abs(traces - ints) <= kt.RANK_ROUND_TOL).all(axis=(1, 2))
        & (ints == want).all(axis=(1, 2))
        & (sides[sigma] == sides).all(axis=1)
        & (np.sort(sigma, axis=1) == np.arange(len(sides))).all(axis=1)
    )
    if not ok.all():
        s = int(np.argmin(ok))
        raise RealizationFault(
            f"the map for {group.names[s]} on index {i} does not permute the "
            f"blocks: block traces {np.round(traces[s], 6).tolist()}"
        )
    # sigma[e] sigma[e] = sigma[e] makes sigma[e] the identity: permutations
    # are invertible
    compose = sigma[np.arange(g)[:, None, None], sigma[None]]
    bad = np.argwhere((compose != sigma[group.mul]).any(axis=-1))
    if bad.size:
        s, t = bad[0]
        raise RealizationFault(
            f"the block permutations of index {i} are not a group action: "
            f"{group.names[s]} after {group.names[t]} is not "
            f"{group.names[group.mul[s, t]]}"
        )
    return sigma


def _implementing_unitaries(maps, n):
    """u[x] with maps[x] = Ad u[x], for a stack of automorphisms of M_n.

    w is the largest column of maps[x](E_00) = (u e_0)(u e_0)*, scaled to
    norm one, which is u e_0 up to a phase c; then maps[x](E_p0) w =
    c u e_p, so u[x] is u up to that phase.
    """
    k = len(maps)
    e00 = maps[:, :, 0].reshape(k, n, n)
    norms = np.linalg.norm(e00, axis=1)
    q = norms.argmax(axis=1)
    top = norms[np.arange(k), q]
    if not (top > ACTION_TOL).all():
        raise RealizationFault("a stabilizer's map sends the matrix unit E_00 of its block to 0")
    w = e00[np.arange(k), :, q] / top[:, None]
    ep0 = maps[:, :, np.arange(n) * n].reshape(k, n, n, n)
    return np.einsum("xuvp,xv->xup", ep0, w)


def _twisted_irreps(hmul, omega):
    """The irreducible representations of the twisted group algebra
    C_conj(omega)(H), spanned by lambda_h with lambda_h lambda_k =
    conj(omega(h, k)) lambda_hk.

    hmul is H's multiplication table over positions in H. Returns one
    stack (|H|, m, m) of pi(h) per irrep, ordered by degree m, then by the
    character values over H in its order, largest first (real part before
    imaginary, rounded to 6 digits).

    When hmul and omega are both symmetric, lambda_h lambda_k = lambda_k
    lambda_h, so the algebra is commutative: its irreps are its |H|
    characters, each unique as a map, and _twisted_characters writes them
    down. Every cocycle of a cyclic group is a coboundary, hence symmetric,
    so this covers every cyclic stabilizer. Otherwise wedderburn decomposes
    the left-regular matrices (_wedderburn_irreps).
    """
    if (hmul == hmul.T).all() and (omega == omega.T).all():
        chars = _twisted_characters(hmul, omega.conj())
        pis = list(chars[:, :, None, None])
    else:
        pis = _wedderburn_irreps(hmul, omega)
    return sorted(pis, key=_irrep_key)


def _irrep_key(pi):
    """The order of _twisted_irreps: degree, then the negated character
    values over H, real part before imaginary, rounded to 6 digits."""
    chars = -np.round(np.trace(pi, axis1=1, axis2=2), 6) + 0.0
    return len(pi[0]), tuple(zip(chars.real.tolist(), chars.imag.tolist()))


def _wedderburn_irreps(hmul, omega):
    """The irreps of C_conj(omega)(H), unordered, from wedderburn on its
    left-regular matrices lambda(h) e_k = conj(omega(h, k)) e_hk."""
    k = len(hmul)
    lam = np.zeros((k, k, k), dtype=complex)
    x, y = np.indices((k, k))
    lam[x, hmul, y] = omega.conj()
    ambient = fd.AlgebraShape([k])
    elems = [fd.AlgElement(ambient, [m]) for m in lam]
    data = kt.wedderburn(elems)
    return [np.stack(block) for block in zip(*(data.coordinates(x).mats for x in elems))]


def _twisted_characters(hmul, wbar):
    """chars[c, h]: the |H| characters of a commutative C_wbar(H), with
    chi(h) chi(k) = wbar(h, k) chi(hk), unordered.

    They are built along a chain of subgroups K, from K = {e} with
    chi(e) = wbar(e, e) (lambda_e / wbar(e, e) is the unit). Take the first
    g outside K and the least r >= 1 with g^r in K. Then lambda_g^j =
    c_j lambda_{g^j} with c_1 = 1 and c_{j+1} = c_j wbar(g^j, g), so a
    character of K extends to <K, g>, the disjoint union of the cosets
    g^j K for 0 <= j < r, in exactly r ways: chi(g) = z runs over the r-th
    roots of c_r chi(g^r), and chi(g^j k) = z^j chi(k) / (c_j wbar(g^j, k)).
    Each step multiplies the count of characters and the order of K by r.

    omega comes rounded to 12 digits, so it is a cocycle only up to that
    rounding, which the products c_j would accumulate along the powers of
    g. Since chi(h) = wbar(h, k) chi(hk) / chi(k) for every k, each chi(h)
    is then replaced by the mean of the right side over k, which spreads
    the rounding evenly, as wedderburn's spectral projections do. The
    identity chi(h) chi(k) = wbar(h, k) chi(hk) is checked on every pair
    within TRANSPORT_TOL, which a NaN fails.
    """
    n = len(hmul)
    e = int(np.flatnonzero((hmul == np.arange(n)).all(axis=1))[0])
    chars = np.zeros((1, n), dtype=complex)
    chars[0, e] = wbar[e, e]
    inside = np.zeros(n, dtype=bool)
    inside[e] = True
    while not inside.all():
        g = int(np.argmin(inside))
        powers, c = [g], [1.0 + 0j]  # g^j and c_j for j = 1, 2, ...
        while not inside[powers[-1]]:
            c.append(c[-1] * wbar[powers[-1], g])
            powers.append(int(hmul[powers[-1], g]))
        r = len(powers)
        members = np.flatnonzero(inside)
        roots = (c[-1] * chars[:, powers[-1]])[:, None] ** (1 / r) * np.exp(
            2j * np.pi * np.arange(r) / r
        )  # roots[x, t]: the t-th r-th root for the character x of K
        grown = np.repeat(chars, r, axis=0)
        z = roots.reshape(-1, 1)
        for j in range(1, r):
            gj = powers[j - 1]
            grown[:, hmul[gj, members]] = (
                z**j * grown[:, members] / (c[j - 1] * wbar[gj, members])
            )
        chars = grown
        inside[hmul[np.ix_(powers[:-1], members)]] = True
    chars = np.mean(wbar * chars[:, hmul] / chars[:, None, :], axis=2)
    resid = fd.maxabs(chars[:, :, None] * chars[:, None, :] - wbar * chars[:, hmul])
    if not resid <= TRANSPORT_TOL:
        raise RealizationFault(
            f"a stabilizer's twisted characters are not multiplicative "
            f"(residual {resid:.3e})"
        )
    return chars


def _realize_component(act, i, irreps):
    """Block shape and coordinate change of one convolution algebra.

    One orbit O of blocks at a time, with representative b (the first
    block, of side n), stabilizer H, coset representatives g_k (the
    identity for b, else the first element carrying b to the k-th block
    of O) and alpha_h = Ad u_h on block b. u_h u_k = omega(h, k) u_hk.
    Each irrep pi of C_conj(omega)(H) gives one block of side |O| n deg(pi)
    on sum_k C^n (x) C^deg(pi): rho(a) acts on summand k as (block b of
    alpha_{g_k^-1}(a)) (x) 1, and U_s carries summand k to summand l by
    u_h (x) pi(h), where s g_k = g_l h. R(d_s (x) a) = rho(a) U_s.
    irreps memoizes the twisted group algebras' irreps on (H's table,
    omega), with omega rounded to 12 digits. For abelian H with omega
    symmetric, C_conj(omega)(H) is commutative and _twisted_irreps writes
    its |H| characters down without wedderburn; a cyclic H always
    qualifies, since every 2-cocycle of a cyclic group is a coboundary,
    and a coboundary mu(h) mu(k) / mu(hk) of an abelian group is symmetric.
    """
    shape = act.spec.components[i]
    d = shape.dim
    if d == 0:
        empty = fd.AlgebraShape(())
        return ComponentRealization(0, empty, np.zeros((0, 0)), np.zeros((0, 0)))
    group = act.group
    g = group.order
    mul, inv = group.mul, group.inverse
    alpha = np.stack([act.maps[(s, i)].matrix for s in range(g)])
    sigma = _block_permutations(alpha, shape, group, i)
    blocks, parts, seen = [], [], set()
    for b, (n, off) in enumerate(zip(shape.blocks, shape.block_offsets())):
        if b in seen:
            continue
        orbit = np.unique(sigma[:, b])
        seen.update(orbit.tolist())
        stab = np.flatnonzero(sigma[:, b] == b)
        where = np.full(g, -1)
        where[stab] = np.arange(len(stab))
        reps = np.asarray([
            group.identity if c == b else int(np.argmax(sigma[:, b] == c))
            for c in orbit
        ])
        coords = off + np.arange(n * n)
        u = _implementing_unitaries(alpha[stab][:, coords][:, :, coords], n)
        hmul = where[mul[np.ix_(stab, stab)]]
        prods = u[:, None] @ u[None]
        omega = np.einsum("xyuv,xyuv->xy", u[hmul].conj(), prods) / n
        resid = fd.maxabs(prods - omega[:, :, None, None] * u[hmul])
        if not resid <= TRANSPORT_TOL:
            raise RealizationFault(
                f"the stabilizer of block {b} of index {i} does not act through "
                f"a projective representation (residual {resid:.3e})"
            )
        omega = np.round(omega, 12) + 0.0
        key = (hmul.tobytes(), omega.tobytes())
        if key not in irreps:
            irreps[key] = _twisted_irreps(hmul, omega)
        # s g_k = g_l h, as l[s, k] and the position of h in H, h[s, k]
        pos = np.full(shape.nblocks, -1)
        pos[orbit] = np.arange(len(orbit))
        l = pos[sigma[:, orbit]]
        h = where[mul[inv[reps[l]], mul[:, reps]]]
        # rho[l] = block b of alpha_{g_l^-1}(E_a) for every a, as (n, n, d)
        rho = alpha[inv[reps]][:, coords].reshape(len(orbit), n, n, d)
        k = np.broadcast_to(np.arange(len(orbit)), l.shape)
        s = np.broadcast_to(np.arange(g)[:, None], l.shape)
        # the n x n factor of summand k's image in summand l, axes (s, k, a, p, q)
        rho_u = np.einsum("skpra,skrq->skapq", rho[l], u[h])
        for pi in irreps[key]:
            m = len(pi[0])
            side = len(orbit) * n * m
            # axes (s, a, l, p, x, k, q, y): entry ((l, p, x), (k, q, y)) of
            # R(d_s (x) E_a)
            big = np.zeros((g, d, len(orbit), n, m, len(orbit), n, m), dtype=complex)
            big[s, :, l, :, :, k, :, :] = (
                rho_u[:, :, :, :, None, :, None] * pi[h][:, :, None, None, :, None, :]
            )
            parts.append(big.reshape(g * d, side * side).T)
            blocks.append(side)
    mat = np.concatenate(parts)
    rank = fd.rank(mat)
    if rank != g * d or len(mat) != g * d:
        raise RealizationFault(
            f"the realization of index {i} has rank {rank}, expected {g * d}"
        )
    return ComponentRealization(
        conv_dim=g * d,
        shape=fd.AlgebraShape(blocks),
        matrix=mat,
        inverse=np.linalg.inv(mat),
    )


def _crossed_spec(spec, g, reals):
    """The output spec: Pi's block (i, j) is R_i (1_g (x) phi_ij) R_j^-1.
    Only comparable blocks are written, so from_pi would check nothing."""
    off = gr._offsets([re.shape for re in reals])
    pi = np.eye(off[-1], dtype=complex)
    for (i, j) in spec.L.comparable_pairs():
        if i != j:
            pi[off[i] : off[i + 1], off[j] : off[j + 1]] = (
                reals[i].matrix
                @ np.kron(np.eye(g), spec.pi_block(i, j))
                @ reals[j].inverse
            )
    return gr.GradedSpec._of_pi(spec.L, [re.shape for re in reals], pi)


def _check_transport(act, reals):
    """Each realization must be a *-isomorphism of the convolution algebra
    C(G, A_i) onto its block algebra.

    R_i is reals[i].matrix, with columns d_s (x) E_a in group-element-major
    order. Product identity, once per index i, over every (s, a, t, b) at
    once, with A_i's own product table from fd.unit_products:
    R_i(d_st (x) E_a alpha_s(E_b)) = R_i(d_s (x) E_a) R_i(d_t (x) E_b).
    Star identity: R_i(d_{s^-1} (x) alpha_{s^-1}(E_a*)) = R_i(d_s (x) E_a)*.
    """
    g, mul, inv = act.group.order, act.group.mul, act.group.inverse
    resids = []
    for i, (re, shape) in enumerate(zip(reals, act.spec.components)):
        d = shape.dim
        if d == 0:
            continue
        alpha = np.stack([act.maps[(s, i)].matrix for s in range(g)])
        # block[p, s, a] is entry p of R_i(d_s (x) E_a)
        block = re.matrix.reshape(-1, g, d)
        star = np.einsum(
            "psn,sna->psa", block[:, inv], alpha[inv][:, :, fd.adjoint_permutation(shape)]
        )
        adj = np.conj(re.matrix)[fd.adjoint_permutation(re.shape)]
        resids.append(fd.maxabs(star.reshape(adj.shape) - adj))
        a, b, c = fd.unit_products(shape)
        table = np.zeros((d, d, d))
        table[c, a, b] = 1.0
        got = fd.pair_products(re.shape, re.matrix, re.matrix)
        want = np.einsum("nam,smb,pstn->satbp", table, alpha, block[:, mul], optimize=True)
        resids.append(fd.maxabs(got - want.reshape(got.shape)))
    worst = fd.maxabs(resids)
    if not worst <= TRANSPORT_TOL:
        raise TransportMismatch(
            f"output products deviate from convolution by {worst:.3e}"
        )
    return worst


def build_crossed_product(act):
    """Full crossed-product construction with its coordinate data.

    Realizes each component, transports the structure maps, validates the
    resulting spec and checks that each R_i is a *-isomorphism of C(G, A_i)
    onto its block algebra. The convolution laws are then pulled back from
    the block algebras, and the components stay independent because Pi is
    unitriangular and the action maps are invertible.

    The products across indices follow. With phi'_ki = R_k (1 (x) phi_ki)
    R_i^-1, the output maps as _crossed_spec builds them, and k = i ^ j:
      phi'_ki(R_i(d_s (x) E_a)) phi'_kj(R_j(d_t (x) E_b))
      = R_k(d_s (x) phi_ki(E_a)) R_k(d_t (x) phi_kj(E_b))
      = R_k(d_st (x) phi_ki(E_a) alpha_s(phi_kj(E_b)))
      = R_k(d_st (x) q_ij(E_a, alpha_s(E_b))),
    by the construction of Pi', the product identity at k and equivariance.
    build_action checks equivariance; without it, validate_spec(out)
    implies it: each 1 (x) phi is multiplicative, so phi(x) phi(alpha_s y)
    = phi(x) alpha_s(phi(y)). x = 1 gives phi(alpha_s y) = P alpha_s(phi(y))
    with P = phi(1); y = 1 gives P <= alpha_s(P) for every s, s^-1 too, so
    alpha_s(P) = P and phi(alpha_s y) = alpha_s(P phi(y)) = alpha_s(phi(y)).
    By bilinearity the mixed residual is at most the per-index residual at
    k times the l1 coefficient norms of phi_ki(E_a) and phi_kj(E_b), plus
    the rounding of R_i^-1 R_i and the equivariance residual through R_k.

    R_i is bijective by Green's imprimitivity theorem for finite groups:
    the part of C(G, A_i) over a block orbit O with stabilizer H is
    M_|O| (x) M_n (x) C_omega(H), and the covariant representations that
    _realize_component builds from the irreps of C_conj(omega)(H) are its
    irreducible representations, one each. Their dimensions add up to
    |G| dim A_i, and the rank of R_i is checked all the same.

    Block order, which fixes the generator order of K0: index by index,
    the block orbits by their first block, then within an orbit the
    irreps of C_conj(omega)(H) by degree, then by their character values
    over H in group order, largest first. The output depends on the
    action's maps alone, not on the order they were given in.
    """
    spec = act.spec
    irreps = {}
    reals = [_realize_component(act, i, irreps) for i in range(spec.L.n)]
    out = _crossed_spec(spec, act.group.order, reals)
    gr.validate_spec(out, gr.AXIOM_TOL)
    _check_transport(act, reals)
    return CrossedProduct(action=act, spec=out, realizations=reals)


def crossed_product(act):
    """The crossed-product graded spec over the action's semilattice."""
    return build_crossed_product(act).spec
