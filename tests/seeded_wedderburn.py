"""The randomized Wedderburn route, kept as a test oracle.

ktheory.wedderburn splits projections by successive refinement along a
fixed self-adjoint basis. This is the route it replaced (Murota, Kanno,
Kojima & Kojima, Japan J. Indust. Appl. Math. 27, 2010): the minimal
central projections are the spectral projections of one random central
hermitian element, each block's minimal projections those of one random
hermitian element, and the partial isometries come from one random
element, all drawn from a seeded stream and retried on failure. Both
routes must find the same block dimensions, multiplicities and central
projections, which do not depend on any choice.

The span is assumed valid: the closure checks that wedderburn runs before
any split are left out here.
"""

import numpy as np

from gradedcstar import findim as fd
from gradedcstar import ktheory as kt
from gradedcstar.errors import DegenerateGenerator
from gradedcstar.seeding import make_rng

RETRY_BUDGET = 8


def _hermitian_basis(coords, onb_mats, side):
    # the self-adjoint part over the reals, element by element
    reals = []
    for row in coords:
        m = np.einsum("c,cuv->uv", row, onb_mats)
        for h in ((m + m.conj().T) / 2, (m - m.conj().T) / 2j):
            reals.append(np.concatenate([h.real.reshape(-1), h.imag.reshape(-1)]))
    q = kt._orthonormal_span(reals)
    half = side * side
    out = []
    for t in range(q.shape[1]):
        m = q[:half, t].reshape(side, side) + 1j * q[half:, t].reshape(side, side)
        out.append((m + m.conj().T) / 2)
    return np.asarray(out)


def seeded_wedderburn(basis, seed, tol=kt.PROJECTION_TOL):
    """WedderburnData of the span, from seeded random splits."""
    ambient = basis[0].shape
    side = ambient.side
    q = kt._orthonormal_span([fd.embed_ambient(x).reshape(-1) for x in basis])
    r = q.shape[1]
    onb_mats = q.T.reshape(r, side, side)
    products = np.einsum("auv,bvw->abuw", onb_mats, onb_mats)
    lhs = products.transpose(1, 2, 3, 0).reshape(-1, r)
    coeffs, *_ = np.linalg.lstsq(lhs, onb_mats.reshape(-1), rcond=None)
    unit_mat = np.einsum("c,cuv->uv", coeffs, onb_mats)

    commutators = products - products.transpose(1, 0, 2, 3)
    _, s, vh = np.linalg.svd(commutators.reshape(r, -1).T, full_matrices=False)
    center_rank = int(np.sum(s > max(fd.RANK_RTOL * s[0], tol))) if s[0] > 0 else 0
    herm_center = _hermitian_basis(vh[center_rank:, :].conj(), onb_mats, side)
    center_dim = r - center_rank
    herm_span = _hermitian_basis(np.eye(r, dtype=complex), onb_mats, side)

    last = None
    for attempt in range(RETRY_BUDGET):
        rng = make_rng(seed, 2, attempt)
        got = _attempt(
            ambient, onb_mats, unit_mat, herm_center, herm_span, center_dim,
            r, rng, tol,
        )
        if isinstance(got, str):
            last = got
            continue
        return got
    raise DegenerateGenerator(
        f"decomposition failed after {RETRY_BUDGET} draws: {last}"
    )


def _attempt(
    ambient, onb_mats, unit_mat, herm_center, herm_span, center_dim, r,
    rng, tol,
):
    z = np.einsum("k,kuv->uv", rng.standard_normal(center_dim), herm_center)
    eigvals, eigvecs = np.linalg.eigh(z)
    projections = []
    for idx in kt._cluster_by_gap(eigvals, kt.EIG_SEPARATION):
        vecs = eigvecs[:, idx]
        p = vecs @ vecs.conj().T
        # drop the eigenspace the span's unit annihilates
        if np.linalg.norm(unit_mat @ p) < tol * max(1.0, np.linalg.norm(p)):
            continue
        projections.append(p)
    if len(projections) != center_dim:
        return f"{len(projections)} clusters for a center of dimension {center_dim}"
    if np.linalg.norm(sum(projections) - unit_mat) > tol:
        return "central projections do not add up to the unit"

    blocks = []
    for p in projections:
        corner = np.einsum("uw,kwx,xv->kuv", p, onb_mats, p)
        n = round(float(np.sqrt(kt._orthonormal_span(corner.reshape(r, -1)).shape[1])))
        m = kt._nearest_integer(float(np.trace(p).real) / n, "multiplicity")
        blocks.append((p, n, m))
    blocks.sort(key=lambda bl: tuple(-np.round(np.diag(bl[0]).real, 6) + 0.0))

    units = []
    for p, n, m in blocks:
        got = _matrix_units(p, n, m, onb_mats, herm_span, rng, tol)
        if isinstance(got, str):
            return got
        units.append(got)
    return kt.WedderburnData(
        ambient=ambient,
        span_dim=r,
        block_dims=[n for _, n, _ in blocks],
        multiplicities=[m for _, _, m in blocks],
        central_projections=[fd.from_ambient(ambient, p) for p, _, _ in blocks],
        unit=fd.from_ambient(ambient, unit_mat),
        matrix_units=units,
    )


def _matrix_units(p, n, m, onb_mats, herm_span, rng, tol):
    side = p.shape[0]
    eigvals, eigvecs = np.linalg.eigh(p)
    w = eigvecs[:, eigvals > 0.5]
    for _ in range(RETRY_BUDGET):
        y = np.einsum("k,kuv->uv", rng.standard_normal(len(herm_span)), herm_span)
        vals, vecs = np.linalg.eigh(w.conj().T @ y @ w)
        clusters = kt._cluster_by_gap(vals, kt.EIG_SEPARATION)
        if len(clusters) != n or any(len(idx) != m for idx in clusters):
            continue
        fs = [w @ vecs[:, idx] @ vecs[:, idx].conj().T @ w.conj().T for idx in clusters]
        nspan = len(onb_mats)
        coeff = rng.standard_normal(nspan) + 1j * rng.standard_normal(nspan)
        zgen = np.einsum("k,kuv->uv", coeff, onb_mats)
        ws = []
        for t in range(n):
            u = fs[t] @ zgen @ fs[0]
            c = float(np.trace(u.conj().T @ u).real) / m
            if c < 1e-10:
                break
            ws.append(u / np.sqrt(c))
        if len(ws) != n:
            continue
        units = np.zeros((n, n, side, side), dtype=complex)
        for a in range(n):
            for b in range(n):
                units[a, b] = ws[a] @ ws[b].conj().T
        if max(np.linalg.norm(units[a, a] - fs[a]) for a in range(n)) > tol * 10:
            continue
        return units
    return f"no usable corner generators after {RETRY_BUDGET} draws"


def assert_matches_oracle(data, basis, seed=1, tol=1e-7):
    """data, from wedderburn on basis, agrees with the seeded route on
    everything that does not depend on a choice.

    Blocks whose central projections have equal diagonals tie in the
    block sort and keep the order each route found them in, so each
    central projection is matched to the oracle's nearest one.
    """
    want = seeded_wedderburn(basis, seed)
    assert data.block_dims == want.block_dims
    assert data.multiplicities == want.multiplicities
    matched = set()
    for c, got in enumerate(data.central_projections):
        dist = [fd.op_norm(got - ref) for ref in want.central_projections]
        k = int(np.argmin(dist))
        assert dist[k] <= tol
        assert k not in matched
        assert (want.block_dims[k], want.multiplicities[k]) == (
            data.block_dims[c], data.multiplicities[c]
        )
        matched.add(k)
