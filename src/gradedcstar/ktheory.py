"""Numerical Wedderburn decomposition and K-group bookkeeping.

wedderburn takes a spanning set of a unital *-closed matrix subalgebra and
recovers its block structure: minimal central projections, block sizes,
multiplicities, and an explicit system of matrix units giving coordinates
in the block picture. Everything downstream of a random draw is verified
against hard residual thresholds, and the draws themselves come from a
seeded stream with a bounded retry budget. It serves algebras whose block
structure is not known in advance, such as crossed products.

verify_k0 needs no decomposition: the total algebra of a valid spec is
*-isomorphic to the direct sum of its components through x -> (pi_i(x))_i,
so its blocks are the component blocks, in index order, and the rank map
is the multiplicity matrix of that inclusion, read off the structure maps
as exact integers. Invertibility over the integers is certified by an
exact determinant of +-1.

K_1 of a finite-dimensional C*-algebra is the trivial group; reports carry
that as a stated zero rather than a computation.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import findim as fd
from . import graded as gr
from .errors import DegenerateGenerator, InputError, NumericFailure, ValidationFailure
from .findim import AlgebraShape
from .seeding import make_rng, resolve_seed

PROJECTION_TOL = 1e-7
EIG_SEPARATION = 1e-7
RANK_ROUND_TOL = 1e-6
RETRY_BUDGET = 8


class NotUnitalSpan(InputError):
    pass


class NotStarClosed(InputError):
    pass


class NotMultiplicativelyClosed(InputError):
    pass


class NonIntegralBlock(NumericFailure):
    pass


class DecompositionError(NumericFailure):
    """Internal consistency check of a decomposition failed."""


class NotUnimodular(ValidationFailure):
    pass


def _nearest_integer(v, what):
    """v rounded to an integer; it must be finite and within RANK_ROUND_TOL
    of one."""
    if not math.isfinite(v) or abs(v - round(v)) > RANK_ROUND_TOL:
        raise NonIntegralBlock(
            f"{what} {v!r} is not within {RANK_ROUND_TOL} of an integer"
        )
    return int(round(v))


@dataclass
class WedderburnData:
    """Block decomposition of a unital *-subalgebra of an ambient shape.

    Blocks are ordered by where their central projections sit in the
    ambient space (descending lexicographic on the projections' rounded
    diagonals), which is deterministic and for a span equal to its
    ambient shape reproduces that shape's own block order.
    matrix_units[c] is an (n_c, n_c, side, side) array of ambient
    matrices satisfying the matrix-unit relations inside block c;
    coordinates() uses them to express span elements in the shape
    AlgebraShape(block_dims).
    """

    ambient: AlgebraShape
    span_dim: int
    block_dims: list
    multiplicities: list
    central_projections: list
    unit: fd.AlgElement
    matrix_units: list

    @property
    def shape(self):
        return AlgebraShape(self.block_dims)

    def coordinates(self, x):
        """Express an ambient element of the span in block coordinates."""
        xhat = fd.embed_ambient(x)
        mats = []
        for c in range(len(self.block_dims)):
            units = self.matrix_units[c]
            # entry (a,b) pairs x against the (b,a) unit: tr(x e_ba)/mult
            mats.append(
                np.einsum("uv,bavu->ab", xhat, units) / self.multiplicities[c]
            )
        return fd.AlgElement(self.shape, mats)

    def reconstruct(self, y):
        """Inverse of coordinates on the span."""
        side = self.ambient.side
        out = np.zeros((side, side), dtype=complex)
        for c in range(len(self.block_dims)):
            out += np.einsum("ab,abuv->uv", y.mats[c], self.matrix_units[c])
        return fd.from_ambient(self.ambient, out)

    def projection_ranks(self, p):
        """Rank of a projection of the span inside each block.

        tr(P_c p) counts each block-c rank with the representation's
        multiplicity, so dividing it out leaves the rank; must land on an
        integer within RANK_ROUND_TOL.
        """
        phat = fd.embed_ambient(p)
        ranks = []
        for c, proj in enumerate(self.central_projections):
            v = float(np.trace(fd.embed_ambient(proj) @ phat).real)
            v /= self.multiplicities[c]
            ranks.append(_nearest_integer(v, f"projection trace in block {c}"))
        return ranks


def _orthonormal_span(vectors, rtol=fd.RANK_RTOL):
    """Columns: an orthonormal basis of the span of the given vectors."""
    stacked = np.asarray(vectors)
    u, s, _ = np.linalg.svd(stacked.T, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return u[:, :0]
    keep = int(np.sum(s > rtol * s[0]))
    return u[:, :keep]


def _in_span_residual(q, vectors):
    """Largest distance from the columns' span, relative to vector size."""
    worst = 0.0
    for v in vectors:
        scale = max(1.0, float(np.linalg.norm(v)))
        resid = v - q @ (q.conj().T @ v)
        worst = max(worst, float(np.linalg.norm(resid)) / scale)
    return worst


def _self_adjoint_basis(coords, onb_mats, side):
    """Orthonormal basis of the self-adjoint part of a *-closed subspace.

    coords rows give the subspace over the onb; splitting each element
    into hermitian and antihermitian parts spans the self-adjoint part
    over the reals, so the orthonormalization must run in real
    coordinates (complex combinations leave the self-adjoint cone).
    Returns a (k, side, side) array of self-adjoint ambient matrices.
    """
    reals = []
    for row in coords:
        m = np.einsum("c,cuv->uv", row, onb_mats)
        for h in ((m + m.conj().T) / 2, (m - m.conj().T) / 2j):
            reals.append(np.concatenate([h.real.reshape(-1), h.imag.reshape(-1)]))
    if not reals:
        return np.zeros((0, side, side), dtype=complex)
    q = _orthonormal_span(reals)
    out = []
    half = side * side
    for t in range(q.shape[1]):
        m = q[:half, t].reshape(side, side) + 1j * q[half:, t].reshape(side, side)
        out.append((m + m.conj().T) / 2)
    return np.asarray(out)


def _cluster_by_gap(values, separation):
    """Split sorted real values into maximal runs with gaps below the
    separation threshold; returns a list of index lists."""
    clusters = []
    current = [0]
    for t in range(1, len(values)):
        if values[t] - values[t - 1] < separation:
            current.append(t)
        else:
            clusters.append(current)
            current = [t]
    clusters.append(current)
    return clusters


def wedderburn(basis, seed=None, tol=PROJECTION_TOL):
    """Decompose the *-algebra spanned by the given elements.

    The spanning set need not be independent. The span must be closed
    under adjoints and products and must contain a unit of its own (which
    may differ from the ambient identity when the span acts degenerately).
    """
    if not basis:
        raise InputError("empty spanning set")
    ambient = basis[0].shape
    for x in basis:
        if x.shape != ambient:
            raise fd.ShapeMismatch("spanning elements of mixed shapes")
    side = ambient.side
    q = _orthonormal_span([fd.embed_ambient(x).reshape(-1) for x in basis])
    r = q.shape[1]
    if r == 0:
        raise InputError("spanning set is zero")
    onb_mats = q.T.reshape(r, side, side)

    star_resid = _in_span_residual(
        q, onb_mats.conj().transpose(0, 2, 1).reshape(r, -1)
    )
    if star_resid > tol:
        raise NotStarClosed(f"adjoints leave the span by {star_resid:.3e}")
    products = fd.pair_products(fd.AlgebraShape([side]), q, q).reshape(r, r, side, side)
    prod_resid = _in_span_residual(q, products.reshape(r * r, side * side))
    if prod_resid > tol:
        raise NotMultiplicativelyClosed(
            f"products leave the span by {prod_resid:.3e}"
        )

    # the span's own unit: least-squares solve e . B_j = B_j over span
    # coordinates, then verify from both sides
    lhs = products.transpose(1, 2, 3, 0).reshape(-1, r)  # rows (j,u,v), col c
    rhs = onb_mats.reshape(-1)
    coeffs, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    unit_mat = np.einsum("c,cuv->uv", coeffs, onb_mats)
    unit_resid = max(
        max(float(np.linalg.norm(unit_mat @ b - b)) for b in onb_mats),
        max(float(np.linalg.norm(b @ unit_mat - b)) for b in onb_mats),
    )
    if unit_resid > tol * max(1.0, float(np.linalg.norm(unit_mat))):
        raise NotUnitalSpan(
            f"no unit inside the span (best residual {unit_resid:.3e})"
        )

    # center: right kernel of the commutation system over span coordinates
    commutators = products - products.transpose(1, 0, 2, 3)
    cmat = commutators.reshape(r, -1).T  # rows (j,u,v), column c
    _, s, vh = np.linalg.svd(cmat, full_matrices=False)
    if s.size and s[0] > 0:
        # absolute floor: the basis is unit-norm, so commutator singular
        # values below tol are numerically central (a fully commutative
        # span leaves only rounding dust here, and a relative cut would
        # mistake that dust for full rank)
        center_rank = int(np.sum(s > max(fd.RANK_RTOL * s[0], tol)))
    else:
        center_rank = 0
    center_coords = vh[center_rank:, :].conj()

    herm_center = _self_adjoint_basis(center_coords, onb_mats, side)
    center_dim = r - center_rank
    if herm_center.shape[0] != center_dim:
        raise DecompositionError("center not spanned by self-adjoint elements")
    herm_span = _self_adjoint_basis(np.eye(r, dtype=complex), onb_mats, side)

    base_seed = resolve_seed(seed)
    last = None
    for attempt in range(RETRY_BUDGET):
        rng = make_rng(base_seed, 2, attempt)
        got = _attempt_decomposition(
            ambient, onb_mats, q, unit_mat, herm_center, herm_span,
            center_dim, r, rng, tol,
        )
        if isinstance(got, str):
            last = got
            continue
        return got
    raise DegenerateGenerator(
        f"decomposition failed after {RETRY_BUDGET} draws: {last}"
    )


def _attempt_decomposition(
    ambient, onb_mats, q, unit_mat, herm_center, herm_span, center_dim,
    r, rng, tol,
):
    """One seeded attempt; returns WedderburnData or a failure string."""
    side = ambient.side
    z = np.einsum("k,kuv->uv", rng.standard_normal(center_dim), herm_center)
    eigvals, eigvecs = np.linalg.eigh(z)
    projections = []
    for idx in _cluster_by_gap(eigvals, EIG_SEPARATION):
        vecs = eigvecs[:, idx]
        p = vecs @ vecs.conj().T
        # a span acting with a kernel shows that kernel as the eigenspace
        # its unit annihilates; drop it, keep genuine central blocks
        if np.linalg.norm(unit_mat @ p) < tol * max(1.0, np.linalg.norm(p)):
            continue
        projections.append(p)
    if len(projections) != center_dim:
        return (
            f"{len(projections)} spectral clusters for a center of "
            f"dimension {center_dim}"
        )

    worst = 0.0
    for p in projections:
        worst = max(worst, float(np.linalg.norm(p @ p - p)))
        worst = max(worst, float(np.linalg.norm(p - p.conj().T)))
        resid = q @ (q.conj().T @ p.reshape(-1)) - p.reshape(-1)
        worst = max(worst, float(np.linalg.norm(resid)))
        for b in onb_mats:
            worst = max(worst, float(np.linalg.norm(p @ b - b @ p)))
    for a in range(len(projections)):
        for b in range(a + 1, len(projections)):
            worst = max(
                worst, float(np.linalg.norm(projections[a] @ projections[b]))
            )
    total = sum(projections)
    worst = max(worst, float(np.linalg.norm(total - unit_mat)))
    if worst > tol:
        return f"projection system residual {worst:.3e}"

    blocks = []
    for c, p in enumerate(projections):
        corner = np.einsum("uw,kwx,xv->kuv", p, onb_mats, p)
        corner_dim = _orthonormal_span(corner.reshape(r, -1)).shape[1]
        n = round(float(np.sqrt(corner_dim)))
        if n * n != corner_dim:
            raise NonIntegralBlock(
                f"corner dimension {corner_dim} of block {c} is not a square"
            )
        m = _nearest_integer(
            float(np.trace(p).real) / n, f"multiplicity of block {c}"
        )
        blocks.append((p, n, m))
    if sum(n * n for _, n, _ in blocks) != r:
        raise DecompositionError(
            "block dimensions do not add up to the span dimension"
        )

    # canonical block order: where the central projections sit in the
    # ambient, as descending lexicographic order on rounded diagonals
    # (projections are canonical, so this is draw-independent)
    blocks.sort(key=lambda bl: tuple(-np.round(np.diag(bl[0]).real, 6) + 0.0))

    units = []
    for c, (p, n, m) in enumerate(blocks):
        got = _matrix_units(p, n, m, onb_mats, herm_span, rng, tol)
        if isinstance(got, str):
            return f"block {c}: {got}"
        units.append(got)

    data = WedderburnData(
        ambient=ambient,
        span_dim=r,
        block_dims=[n for _, n, _ in blocks],
        multiplicities=[m for _, _, m in blocks],
        central_projections=[fd.from_ambient(ambient, p) for p, _, _ in blocks],
        unit=fd.from_ambient(ambient, unit_mat),
        matrix_units=units,
    )

    # round-trip: block coordinates must invert on the spanning ONB
    worst = 0.0
    for b in onb_mats:
        x = fd.from_ambient(ambient, b)
        back = fd.embed_ambient(data.reconstruct(data.coordinates(x)))
        worst = max(worst, float(np.linalg.norm(back - b)))
    if worst > 1e-6:
        return f"block coordinates fail to invert (residual {worst:.3e})"
    return data


def _matrix_units(p, n, m, onb_mats, herm_span, rng, tol):
    """Matrix units for one block: diagonal projections from a generic
    element's spectral clusters, partial isometries from a second one."""
    side = p.shape[0]
    eigvals, eigvecs = np.linalg.eigh(p)
    w = eigvecs[:, eigvals > 0.5]
    if w.shape[1] != n * m:
        return f"central projection rank {w.shape[1]}, expected {n * m}"

    for _ in range(RETRY_BUDGET):
        y = np.einsum("k,kuv->uv", rng.standard_normal(len(herm_span)), herm_span)
        y_red = w.conj().T @ y @ w
        y_red = (y_red + y_red.conj().T) / 2
        vals, vecs = np.linalg.eigh(y_red)
        clusters = _cluster_by_gap(vals, EIG_SEPARATION)
        # need the block's full spectral resolution: n clusters of size m
        if len(clusters) != n or any(len(idx) != m for idx in clusters):
            continue
        fs = []
        for idx in clusters:
            sel = vecs[:, idx]
            fs.append(w @ sel @ sel.conj().T @ w.conj().T)

        nspan = len(onb_mats)
        coeff = rng.standard_normal(nspan) + 1j * rng.standard_normal(nspan)
        zgen = np.einsum("k,kuv->uv", coeff, onb_mats)
        ws = []
        degenerate = False
        for t in range(n):
            u = fs[t] @ zgen @ fs[0]
            c = float(np.trace(u.conj().T @ u).real) / m
            if c < 1e-10:
                degenerate = True
                break
            ws.append(u / np.sqrt(c))
        if degenerate:
            continue

        units = np.zeros((n, n, side, side), dtype=complex)
        for a in range(n):
            for b in range(n):
                units[a, b] = ws[a] @ ws[b].conj().T
        worst = 0.0
        for a in range(n):
            worst = max(worst, float(np.linalg.norm(units[a, a] - fs[a])))
            for b in range(n):
                worst = max(
                    worst,
                    float(np.linalg.norm(units[a, b].conj().T - units[b, a])),
                )
                for d in range(n):
                    prod = units[a, b] @ units[b, d]
                    worst = max(worst, float(np.linalg.norm(prod - units[a, d])))
        if worst > tol * 10:
            continue
        return units
    return f"no usable corner generators after {RETRY_BUDGET} draws"


# ------------------------------------------------------------------- K0

@dataclass
class K0Report:
    per_component_ranks: list
    total_rank: int
    phi_matrix: list
    unimodular: bool
    k1_total_rank: int = 0


def _integer_det(rows):
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


def verify_k0(spec):
    """Check that the rank map of the faithful representation is an
    isomorphism of free abelian groups.

    Rows of phi_matrix are the generators (one per component block, in
    index order), columns the blocks of the total algebra, which are the
    component blocks in the same order; entry ((i, b), (t, c)) is the
    trace of block c of pi_t(E^(b)_00 at i), that is of
    phi_{t,i}(E^(b)_00) for t <= i and 0 otherwise. Each trace must land
    on an integer. Invertibility over the integers is certified by an
    exact determinant of +-1.
    """
    per_component = [c.nblocks for c in spec.components]
    phi_matrix = []
    for i, b, p in component_minimal_projections(spec):
        image = gr.faithful_image(spec, p)
        phi_matrix.append(
            [
                _nearest_integer(
                    float(np.trace(m).real),
                    f"trace of block {c} of the image of generator "
                    f"({spec.L.names[i]}, {b})",
                )
                for c, m in enumerate(image.mats)
            ]
        )
    det = _integer_det(phi_matrix)
    if abs(det) != 1:
        raise NotUnimodular(f"rank matrix has determinant {det}, not +-1")
    return K0Report(per_component, sum(per_component), phi_matrix, True)
