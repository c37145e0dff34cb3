"""Axiom (b) by loops over index triples, kept as oracles.

graded.validate_spec decides axiom (b) on a spec with a block of side at
least 2 by composing pi's blocks (graded._composition_bounds), and on the
pairs that route cannot certify by the basis-pair residuals. These
references form the basis-pair residuals one (i, j, m) at a time, the
composition residuals one triple at a time, and keep the matrix-unit
generator route that the composition route replaced: its left factors
E_p0 and E_0q and the bound that amplifies their residuals to every basis
pair.
"""

import numpy as np

from gradedcstar import findim as fd
from gradedcstar import graded as gr
from gradedcstar.errors import ValidationFailure


def unit_columns(shape):
    """Basis positions of E_p0 and E_0q in every block, ascending: the
    2n - 1 matrix units that generate a block of side n as an algebra
    (E_pq = E_p0 E_0q). For a block of side 1 that is its whole basis."""
    parts = [np.zeros(0, dtype=int)]
    for d, off in zip(shape.blocks, shape.block_offsets()):
        units = np.arange(d * d)
        parts.append(off + units[(units < d) | (units % d == 0)])
    return np.concatenate(parts)


def axiom_b_kappas(components):
    """Amplification factors (k_eps, k_delta, k_zeta): every basis-pair
    residual of axiom (b) is at most k_eps eps + k_delta delta
    + k_zeta zeta, given the largest residual eps over left factors E_p0
    and E_0q, a bound delta on every phi's basis-pair residual (Frobenius)
    and the identity residual zeta, at tol <= fd.GENERATOR_TOL_MAX.

    Take x = E_pq = E_p0 E_0q in A_i, y a basis element of A_j, k = i ^ j,
    m < k, and write a = phi_{k,i}, b = phi_{k,j}, c = phi_{m,k},
    al = phi_{m,i}, be = phi_{m,j}, io = phi_{k,k}. With w = a(E_0q) b(y)
    in A_k, G1 the residual of (E_0q, y) at (i, j), G2(z) that of
    (E_p0, z) at (i, k) for z in A_k's basis, H_a = a(E_pq) - a(E_p0) a(E_0q)
    and H_al likewise, the residual of (x, y) is exactly
        al(E_p0) G1 + sum_z w_z G2(z) + c(a(E_p0) (w - io(w)))
        + c(H_a b(y)) - H_al be(y):
    pi(gxy) = pi(g) pi(xy) = pi(g) pi(x) pi(y) = pi(gx) pi(y) with its
    errors kept. Every phi passed the *-hom check within tol <= 1/16, so
    the image of a matrix unit has operator norm <= 5/4. With D and S the
    largest dimension and side of a component, entrywise:
      - al(E_p0) G1 <= 5/4 sqrt(S) eps, a row of al(E_p0) against a column
        of G1;
      - the G2 term is <= eps sum_z |w_z| <= eps sqrt(D) ||w||_F
        <= (5/4)^2 sqrt(D S) eps;
      - ||c(v)||_max <= 5/4 sum_z |v_z| <= 5/4 sqrt(D) ||v||_F, which
        bounds the H_a term by (5/4)^2 sqrt(D) delta and, with
        ||w - io(w)||_1 <= D zeta sum_z |w_z|, the io term by
        (5/4)^4 D^2 sqrt(S) zeta;
      - H_al be(y) <= 5/4 delta.
    Rounded up, the residual is at most 3 sqrt(D S) eps + 3 sqrt(D) delta
    + 3 D^2 sqrt(S) zeta.
    """
    dim = max(c.dim for c in components)
    side = max(c.side for c in components)
    return 3 * np.sqrt(dim * side), 3 * np.sqrt(dim), 3 * dim**2 * np.sqrt(side)


def axiom_b_reference(spec, tol=gr.AXIOM_TOL, generators=False):
    """Axiom (b) one (i, j, m) at a time, with a pair product per triple:
    the reference validate_spec's single pair product per (i, j) must
    match. With generators, the left factor runs over the matrix units
    E_p0 and E_0q of A_i only. Returns (max residual, triples checked) or
    raises on the first failing triple."""
    L = spec.L
    b_res = 0.0
    pairs = 0
    for i in range(L.n):
        cols = np.arange(spec.components[i].dim)
        if generators:
            cols = unit_columns(spec.components[i])
        for j in range(L.n):
            k = L.meet[i, j]
            below = [m for m in range(L.n) if L.leq(m, k)]
            prod_k = fd.pair_products(
                spec.components[k], spec.phi[(k, i)].matrix[:, cols], spec.phi[(k, j)].matrix
            )
            for m in below:
                pairs += 1
                lhs = prod_k if m == k else prod_k @ spec.phi[(m, k)].matrix.T
                rhs = fd.pair_products(
                    spec.components[m], spec.phi[(m, i)].matrix[:, cols], spec.phi[(m, j)].matrix
                )
                diff = np.abs(lhs - rhs)
                r = fd.maxabs(diff)
                if not r <= tol:
                    # the first pair, row-major, within rounding of the
                    # largest residual
                    flat = diff.reshape(-1)
                    flat = int(((flat >= r * (1 - 1e-12)) | np.isnan(flat)).argmax())
                    dj = spec.components[j].dim
                    a, b = divmod(flat // spec.components[m].dim, dj) if dj else (0, 0)
                    raise gr.AxiomBViolation(
                        L.names[i], L.names[j], L.names[m],
                        spec.basis_label(i, cols[min(a, len(cols) - 1)]),
                        spec.basis_label(j, b),
                        r,
                    )
                b_res = max(b_res, r)
    return b_res, pairs


def validate_spec_reference(spec, tol=gr.AXIOM_TOL):
    """validate_spec on the basis-pair routes alone: the identity check,
    every map's basis pairs in key order, then axiom_b_reference. Returns
    axiom_b_reference's (max residual, triples checked)."""
    L = spec.L
    for i in range(L.n):
        r = fd.maxabs(spec.phi[(i, i)].matrix - np.eye(spec.components[i].dim))
        if not r <= tol:
            raise gr.AxiomAViolation(
                f"phi[{L.names[i]},{L.names[i]}] differs from the identity by {r:.3e}"
            )
    for i, j in sorted(spec.phi):
        h = spec.phi[(i, j)]
        star = fd.star_residuals(h.source, h.target, h.matrix)
        mult = fd.mult_residuals(h.source, h.target, h.matrix)
        try:
            fd.check_starhom_residuals(h.source, star, mult, tol)
        except ValidationFailure as e:
            raise gr.HomNotStar(f"phi[{L.names[i]},{L.names[j]}]: {e}") from e
    return axiom_b_reference(spec, tol)


def composition_reference(spec):
    """The residual graded.validate_spec reports when the composition
    route decides, one triple at a time. For every k with something below
    it, and norms over the rows of every m < k at once, with
    P_{m,k} = phi_{m,k}(1_k) and Q_{m,i} = phi_{m,i}(1_i): the Frobenius
    norm of phi_{m,k}(phi_{k,i}(E_a)) - phi_{m,i}(E_a) P_{m,k} for every
    i >= k and basis element E_a of A_i; that of P_{m,k} - P_{m,k}^2; and
    that of Q_{m,i} (1 - P_{m,k}) Q_{m,j} for every pair (i, j) with meet
    k that is not comparable. Returns the largest."""
    L, comps = spec.L, spec.components

    def unit_image(m, t):
        return spec.phi[(m, t)].apply(fd.unit(comps[t]))

    def norm(terms):
        return np.sqrt(sum(fd.frob_norm(t) ** 2 for t in terms))

    worst = 0.0
    for k in range(L.n):
        below = [m for m in range(L.n) if m != k and L.leq(m, k)]
        if not below:
            continue
        p = {m: unit_image(m, k) for m in below}
        worst = max(worst, norm(p[m] - p[m] * p[m] for m in below))
        for i in range(L.n):
            if not L.leq(k, i):
                continue
            for a in range(comps[i].dim):
                e = fd.basis_element(comps[i], a)
                u = spec.phi[(k, i)].apply(e)
                worst = max(worst, norm(
                    spec.phi[(m, k)].apply(u) - spec.phi[(m, i)].apply(e) * p[m] for m in below
                ))
        for i in range(L.n):
            for j in range(L.n):
                if L.meet[i, j] != k or L.leq(i, j) or L.leq(j, i):
                    continue
                worst = max(worst, norm(
                    unit_image(m, i) * (fd.unit(comps[m]) - p[m]) * unit_image(m, j) for m in below
                ))
    return worst
