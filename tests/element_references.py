"""The routes that ktheory.verify_k0, graded.verify_ideal_gradation,
QFamily.validate and graded.build_morphism replaced by reading Pi, kept
as test oracles.

verify_k0 now gathers every generator's block traces from the matrix Pi
at once, on a validated spec, whose rank matrix is block-unitriangular
and so has determinant 1 with nothing to compute. The reference builds
one graded element per generator, takes its faithful image block by
block and runs one fraction-free elimination over the whole matrix,
raising NotUnimodular unless the determinant is +-1; it takes no
verdict, so on an invalid spec it decides where verify_k0 refuses to.
On non-finite input the routes differ: the element route computes
pi @ x, where inf * 0 and nan * 0 spread a non-finite entry across its
row.

verify_ideal_gradation now validates the spec and reads one slice of pi:
the rows outside the selected blocks, the columns inside them. The
reference multiplies basis elements with gmul, both ways round, and
names the first product that leaves the selected blocks. On a spec that
validates the two accept the same selections; their messages differ.
The leak loop accumulates with max(), which drops a NaN leak.

QFamily.validate now reads the structure maps off q, validates them and
compares q with their q family. q_axioms_reference checks the three
axioms a')-c') directly, over every index, pair and triple, with its own
messages.

build_morphism now decides a plain-target family with one *-hom check of
Psi pi^-1 on a validated source, and checks a graded target's members in
stacks. morphism_reference checks every member with validate_starhom,
then intertwining pair by pair, or compatibility over the whole q family
pair by pair, with the messages of those checks.

sort_key is the per-entry key that spectra used to order characters.
"""

import numpy as np

from gradedcstar import findim as fd
from gradedcstar import graded as gr
from gradedcstar import ktheory as kt
from gradedcstar.errors import ValidationFailure


class NotUnimodular(ValidationFailure):
    pass


def integer_det(rows):
    """Exact determinant of a square integer matrix, by fraction-free
    elimination (every division below is exact)."""
    a = [list(map(int, row)) for row in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for t in range(k + 1, n):
                if a[t][k] != 0:
                    a[k], a[t] = a[t], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def component_minimal_projections(spec):
    """(index, block, element) for the top-left matrix unit of every block
    of every component: one rank-map generator each, in row order."""
    out = []
    for i, c in enumerate(spec.components):
        for b in range(c.nblocks):
            x = spec.zero_element()
            x.comps[i].mats[b][0, 0] = 1.0
            out.append((i, b, x))
    return out


def k0_matrix_reference(spec):
    """The generator matrix, one faithful image per generator."""
    phi_matrix = []
    for i, b, p in component_minimal_projections(spec):
        image = gr.faithful_image(spec, p)
        phi_matrix.append(
            [
                kt._nearest_integer(
                    float(np.trace(m).real),
                    f"trace of block {c} of the image of generator "
                    f"({spec.L.names[i]}, {b})",
                )
                for c, m in enumerate(image.mats)
            ]
        )
    return phi_matrix


def verify_k0_reference(spec):
    per_component = [c.nblocks for c in spec.components]
    phi_matrix = k0_matrix_reference(spec)
    det = integer_det(phi_matrix)
    if abs(det) != 1:
        raise NotUnimodular(f"rank matrix has determinant {det}, not +-1")
    return kt.K0Report(per_component, sum(per_component), phi_matrix, True)


def ideal_leak_reference(spec, ideal_blocks, tol=gr.AXIOM_TOL, products=None):
    """The largest leak of a product of a basis element with an ideal
    basis element out of the selected blocks; raises NotAnIdeal on the
    first product that leaks by more than tol. products, when given, is a
    dict that keeps each gmul product's support and blocks across calls
    on the same spec, so that many selections cost one pass of gmul."""
    selection = {
        i: frozenset(ideal_blocks.get(i, ())) for i in range(spec.L.n)
    }
    products = {} if products is None else products

    def in_ideal(i, a):
        k, _, _ = spec.components[i].basis_triples()[a]
        return k in selection[i]

    def product(x, y):
        """(index, blocks) over the support of gmul(E_x, E_y)."""
        if (x, y) not in products:
            prod = gr.gmul(spec.basis_element(*x), spec.basis_element(*y))
            products[(x, y)] = [(k, prod.comps[k].mats) for k in prod.support(tol=0.0)]
        return products[(x, y)]

    ideal_basis = [(i, a) for i, a, _ in spec.graded_basis() if in_ideal(i, a)]
    max_leak = 0.0
    for i, a, _ in spec.graded_basis():
        for j, b in ideal_basis:
            for prod in (product((i, a), (j, b)), product((j, b), (i, a))):
                leak = 0.0
                for k, mats in prod:
                    for blk, m in enumerate(mats):
                        if blk not in selection[k]:
                            leak = max(leak, fd.maxabs(m))
                max_leak = max(max_leak, leak)
                if not leak <= tol:
                    raise gr.NotAnIdeal(
                        f"product of {spec.basis_label(i, a)} and "
                        f"{spec.basis_label(j, b)} leaves the selected blocks "
                        f"by {leak:.3e}"
                    )
    return max_leak


def q_axioms_reference(q, tol=gr.AXIOM_TOL):
    """Check a') q_{i,i} = multiplication, b') the adjoint symmetry,
    c') the mixed associativity q(q(x,y),z) = q(x,q(y,z)), index by
    index, pair by pair and triple by triple."""
    L, comps = q.L, q.components
    n = L.n
    for i in range(n):
        t = q.tensors[(i, i)]
        a, b, c = fd.unit_products(comps[i])
        want = np.zeros_like(t)
        want[c, a, b] = 1.0
        r = fd.maxabs(t - want)
        if not r <= tol:
            raise gr.QAxiomViolation(
                f"q_{{i,i}} is not multiplication at index {L.names[i]}, "
                f"residual {r:.3e}"
            )
    for i in range(n):
        for j in range(n):
            k = L.meet_of(i, j)
            pi = fd.adjoint_permutation(comps[i])
            pj = fd.adjoint_permutation(comps[j])
            pk = fd.adjoint_permutation(comps[k])
            t = q.tensors[(i, j)]
            s = q.tensors[(j, i)]
            # q_{i,j}(E_a, E_b) = q_{j,i}(E_b*, E_a*)*
            want = np.conj(s[np.ix_(pk, pj, pi)]).transpose(0, 2, 1)
            r = fd.maxabs(t - want)
            if not r <= tol:
                raise gr.QAxiomViolation(
                    f"adjoint symmetry fails for pair "
                    f"({L.names[i]}, {L.names[j]}), residual {r:.3e}"
                )
    for i in range(n):
        for j in range(n):
            ij = L.meet_of(i, j)
            for k in range(n):
                jk = L.meet_of(j, k)
                lhs = np.einsum(
                    "wuc,uab->wabc", q.tensors[(ij, k)], q.tensors[(i, j)], optimize=True
                )
                rhs = np.einsum(
                    "wau,ubc->wabc", q.tensors[(i, jk)], q.tensors[(j, k)], optimize=True
                )
                r = fd.maxabs(lhs - rhs)
                if not r <= tol:
                    raise gr.QAxiomViolation(
                        f"associativity fails at indices "
                        f"({L.names[i]}, {L.names[j]}, {L.names[k]}), "
                        f"residual {r:.3e}"
                    )
    return True


def morphism_reference(spec, target, psi, tol=gr.AXIOM_TOL):
    """Check every member with validate_starhom, then intertwining (graded
    target) or compatibility over every basis pair of every ordered index
    pair, read off the q family (plain target)."""
    m = gr.GradedMorphism(spec, target, psi)
    L = spec.L
    if m.graded_target:
        for i in range(L.n):
            h = m.psi[i]
            if h.source != spec.components[i] or h.target != target.components[i]:
                raise fd.ShapeMismatch(f"psi[{L.names[i]}] maps {h.source} -> {h.target}")
            fd.validate_starhom(h, tol)
        for i, j in L.comparable_pairs():
            lhs = m.psi[i].matrix @ spec.pi_block(i, j)
            rhs = target.pi_block(i, j) @ m.psi[j].matrix
            r = fd.maxabs(lhs - rhs)
            if not r <= tol:
                raise gr.IncompatibleFamily(
                    f"psi does not intertwine structure maps at pair "
                    f"({L.names[i]}, {L.names[j]}), residual {r:.3e}"
                )
        return m
    for i in range(L.n):
        h = m.psi[i]
        if h.source != spec.components[i] or h.target != target:
            raise fd.ShapeMismatch(f"psi[{L.names[i]}] maps {h.source} -> {h.target}")
        fd.validate_starhom(h, tol)
    q = gr.q_family_from_spec(spec).tensors
    for j in range(L.n):
        for k in range(L.n):
            t = L.meet_of(j, k)
            resid = np.linalg.norm(
                np.moveaxis(q[(j, k)], 0, -1) @ m.psi[t].matrix.T
                - fd.pair_products(target, m.psi[j].matrix, m.psi[k].matrix),
                axis=-1,
            )
            bad = np.flatnonzero(~(resid <= tol))
            if bad.size:
                a, b = divmod(int(bad[0]), spec.components[k].dim)
                raise gr.IncompatibleFamily(
                    f"psi_{{j^k}}(xy) != psi_j(x) psi_k(y) at "
                    f"({spec.basis_label(j, a)}, {spec.basis_label(k, b)}), "
                    f"residual {resid[a, b]:.3e}"
                )
    return m


def sort_key(values):
    return tuple(
        (round(v.real, 6) + 0.0, round(v.imag, 6) + 0.0) for v in values
    )
