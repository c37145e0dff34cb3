"""Numerical Wedderburn decomposition and K-group bookkeeping.

wedderburn takes a spanning set of a unital *-closed matrix subalgebra and
recovers its block structure: minimal central projections, block sizes,
multiplicities, and an explicit system of matrix units giving coordinates
in the block picture. It draws no random numbers. Projections are split
by successive refinement along a fixed self-adjoint basis (_refine), and
a projection f with fAf = Cf is minimal, so the decomposition is a
function of the spanning set alone. Every step is verified against hard
residual thresholds. It serves algebras whose block structure is not
known in advance, such as the twisted group algebras of the block
stabilizers that crossed products are built from.

verify_k0 needs no decomposition: the total algebra of a valid spec is
*-isomorphic to the direct sum of its components through x -> (pi_i(x))_i,
so its blocks are the component blocks, in index order, and the rank map
is the multiplicity matrix of that inclusion, read off the structure maps
as exact integers in one gather on the matrix of that isomorphism. On a
validated spec that matrix is block-unitriangular along the order, so it
is invertible over the integers with no determinant to take.

K_1 of a finite-dimensional C*-algebra is the trivial group; reports carry
that as a stated zero rather than a computation.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import findim as fd
from . import graded as gr
from .errors import InputError, NumericFailure
from .findim import AlgebraShape

# Nothing here draws random numbers. The name stays because the perfbench
# tracer counts draws through it, and so reads ktheory.draws as 0.
from .seeding import make_rng  # noqa: F401

PROJECTION_TOL = 1e-7
EIG_SEPARATION = 1e-7
RANK_ROUND_TOL = 1e-6
ROUND_TRIP_TOL = 1e-6
LINK_FLOOR = 1e-10


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

    def _block_coordinates(self, xhat):
        """Block-c matrices of ambient matrices xhat (any leading axes):
        entry (a,b) pairs xhat against the (b,a) unit, tr(x e_ba)/mult."""
        return [
            np.einsum("...uv,bavu->...ab", xhat, units) / mult
            for units, mult in zip(self.matrix_units, self.multiplicities)
        ]

    def _from_blocks(self, mats):
        """Inverse of _block_coordinates on the span."""
        return sum(
            np.einsum("...ab,abuv->...uv", y, units)
            for y, units in zip(mats, self.matrix_units)
        )

    def coordinates(self, x):
        """Express an ambient element of the span in block coordinates."""
        return fd.AlgElement(
            self.shape, self._block_coordinates(fd.embed_ambient(x))
        )

    def reconstruct(self, y):
        """Inverse of coordinates on the span."""
        return fd.from_ambient(self.ambient, self._from_blocks(y.mats))

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


def _orthonormal_span(vectors):
    """Columns: an orthonormal basis of the span of the given vectors."""
    stacked = np.asarray(vectors)
    u, s, _ = np.linalg.svd(stacked.T, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return u[:, :0]
    keep = int(np.sum(s > fd.RANK_RTOL * s[0]))
    return u[:, :keep]


def _in_span_residual(q, vectors):
    """Largest distance of the rows of vectors from the span of q's
    columns, each relative to the row's size."""
    resid = vectors - (vectors @ q.conj()) @ q.T
    scale = np.maximum(1.0, np.linalg.norm(vectors, axis=1))
    return fd.maxabs(np.linalg.norm(resid, axis=1) / scale)


def _worst(*parts):
    """Largest entry over arrays of any shapes; NaN if any entry is NaN."""
    return fd.maxabs([fd.maxabs(p) for p in parts])


def _norms(mats):
    """Frobenius norm of each matrix in a stack."""
    return np.linalg.norm(mats, axis=(-2, -1))


def _adjoints(mats):
    return mats.conj().swapaxes(-2, -1)


def _self_adjoint_basis(coords, onb_mats):
    """Orthonormal basis of the self-adjoint part of a *-closed subspace.

    coords rows give the subspace over the onb; splitting each element
    into hermitian and antihermitian parts spans the self-adjoint part
    over the reals, so the orthonormalization must run in real
    coordinates (complex combinations leave the self-adjoint cone).
    Returns a (k, side, side) array of self-adjoint ambient matrices.
    """
    side = onb_mats.shape[1]
    m = np.einsum("kc,cuv->kuv", coords, onb_mats)
    # rows in the order (hermitian part, antihermitian part) per element
    parts = np.stack([(m + _adjoints(m)) / 2, (m - _adjoints(m)) / 2j], axis=1)
    parts = parts.reshape(-1, side * side)
    if not len(parts):
        return np.zeros((0, side, side), dtype=complex)
    q = _orthonormal_span(np.concatenate([parts.real, parts.imag], axis=1))
    half = side * side
    out = (q[:half] + 1j * q[half:]).T.reshape(-1, side, side)
    return (out + _adjoints(out)) / 2


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


def _refine(w, hermitians, count):
    """Split the range of the isometry w into minimal projections.

    For each hermitian y in turn, every current piece V is split by the
    eigenvalue clusters of V* y V, until there are count pieces. A piece
    is a spectral projection of an algebra element compressed by an
    earlier piece, so it lies in the algebra when w's range projection
    does. Once every y has been applied, f y f is a multiple of f for
    each piece f, so when the y span the self-adjoint part of the algebra
    every piece is minimal. count is the most pieces there can be, so
    reaching it early also means every piece is minimal. Returns the
    pieces as isometries, in a fixed order.
    """
    pieces = [w]
    for y in hermitians:
        if len(pieces) >= count:
            break
        split = []
        for v in pieces:
            vals, vecs = np.linalg.eigh(_adjoints(v) @ y @ v)
            split.extend(
                v @ vecs[:, idx] for idx in _cluster_by_gap(vals, EIG_SEPARATION)
            )
        pieces = split
    return pieces


def wedderburn(basis):
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
    stacked = np.asarray([fd.embed_ambient(x) for x in basis])
    if not np.isfinite(stacked).all():
        raise InputError("spanning set has a non-finite entry")
    q = _orthonormal_span(stacked.reshape(len(basis), -1))
    r = q.shape[1]
    if r == 0:
        raise InputError("spanning set is zero")
    onb_mats = q.T.reshape(r, side, side)

    star_resid = _in_span_residual(q, _adjoints(onb_mats).reshape(r, -1))
    if not star_resid <= PROJECTION_TOL:
        raise NotStarClosed(f"adjoints leave the span by {star_resid:.3e}")
    products = fd.pair_products(fd.AlgebraShape([side]), q, q).reshape(r, r, side, side)
    prod_resid = _in_span_residual(q, products.reshape(r * r, side * side))
    if not prod_resid <= PROJECTION_TOL:
        raise NotMultiplicativelyClosed(
            f"products leave the span by {prod_resid:.3e}"
        )

    # the span's own unit: least-squares solve e . B_j = B_j over span
    # coordinates, then verify from both sides
    lhs = products.transpose(1, 2, 3, 0).reshape(-1, r)  # rows (j,u,v), col c
    rhs = onb_mats.reshape(-1)
    coeffs, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    unit_mat = np.einsum("c,cuv->uv", coeffs, onb_mats)
    unit_resid = _worst(
        _norms(unit_mat @ onb_mats - onb_mats),
        _norms(onb_mats @ unit_mat - onb_mats),
    )
    if not unit_resid <= PROJECTION_TOL * max(1.0, float(np.linalg.norm(unit_mat))):
        raise NotUnitalSpan(
            f"no unit inside the span (best residual {unit_resid:.3e})"
        )

    # center: right kernel of the commutation system over span coordinates
    commutators = products - products.transpose(1, 0, 2, 3)
    cmat = commutators.reshape(r, -1).T  # rows (j,u,v), column c
    _, s, vh = np.linalg.svd(cmat, full_matrices=False)
    if s.size and s[0] > 0:
        # absolute floor: the basis is unit-norm, so commutator singular
        # values below PROJECTION_TOL are numerically central (a fully
        # commutative span leaves only rounding dust here, and a relative
        # cut would mistake that dust for full rank)
        center_rank = int(np.sum(s > max(fd.RANK_RTOL * s[0], PROJECTION_TOL)))
    else:
        center_rank = 0
    center_coords = vh[center_rank:, :].conj()

    herm_center = _self_adjoint_basis(center_coords, onb_mats)
    center_dim = r - center_rank
    if herm_center.shape[0] != center_dim:
        raise DecompositionError("center not spanned by self-adjoint elements")

    # minimal central projections: refine the unit's range along the
    # center (a span acting with a kernel never sees that kernel)
    vals, vecs = np.linalg.eigh((unit_mat + _adjoints(unit_mat)) / 2)
    pieces = _refine(vecs[:, vals > 0.5], herm_center, center_dim)
    if len(pieces) != center_dim:
        raise DecompositionError(
            f"{len(pieces)} spectral clusters for a center of "
            f"dimension {center_dim}"
        )
    projections = np.asarray([v @ _adjoints(v) for v in pieces])
    flat = projections.reshape(center_dim, -1)
    worst = _worst(
        _norms(projections @ projections - projections),
        _norms(projections - _adjoints(projections)),
        np.linalg.norm(flat @ q.conj() @ q.T - flat, axis=1),
        [_norms(p @ onb_mats - onb_mats @ p) for p in projections],
        *[_norms(p @ projections[a + 1 :]) for a, p in enumerate(projections)],
        _norms(projections.sum(axis=0) - unit_mat),
    )
    if not worst <= PROJECTION_TOL:
        raise DecompositionError(f"projection system residual {worst:.3e}")

    blocks = []
    for c, (p, v) in enumerate(zip(projections, pieces)):
        corner = _adjoints(v) @ onb_mats @ v
        corner_dim = _orthonormal_span(corner.reshape(r, -1)).shape[1]
        n = round(float(np.sqrt(corner_dim)))
        if n * n != corner_dim:
            raise NonIntegralBlock(
                f"corner dimension {corner_dim} of block {c} is not a square"
            )
        m = _nearest_integer(v.shape[1] / n, f"multiplicity of block {c}")
        blocks.append((p, v, n, m))
    if sum(n * n for _, _, n, _ in blocks) != r:
        raise DecompositionError(
            "block dimensions do not add up to the span dimension"
        )

    # canonical block order: where the central projections sit in the
    # ambient, as descending lexicographic order on rounded diagonals
    blocks.sort(key=lambda bl: tuple(-np.round(np.diag(bl[0]).real, 6) + 0.0))

    herm_span = _self_adjoint_basis(np.eye(r, dtype=complex), onb_mats)
    data = WedderburnData(
        ambient=ambient,
        span_dim=r,
        block_dims=[n for _, _, n, _ in blocks],
        multiplicities=[m for _, _, _, m in blocks],
        central_projections=[fd.from_ambient(ambient, p) for p, _, _, _ in blocks],
        unit=fd.from_ambient(ambient, unit_mat),
        matrix_units=[
            _matrix_units(c, v, n, m, onb_mats, herm_span)
            for c, (_, v, n, m) in enumerate(blocks)
        ],
    )

    # round-trip: block coordinates must invert on the spanning ONB
    back = data._from_blocks(data._block_coordinates(onb_mats))
    worst = fd.maxabs(_norms(back - onb_mats))
    if not worst <= ROUND_TRIP_TOL:
        raise DecompositionError(
            f"block coordinates fail to invert (residual {worst:.3e})"
        )
    return data


def _matrix_units(c, v, n, m, onb_mats, herm_span):
    """Matrix units for block c, whose central projection is the range of
    the isometry v, by a fixed rule.

    The diagonal units are the n minimal projections f_t that _refine
    finds in the block, each of rank m. The partial isometry from f_0 to
    f_t is f_t b f_0, scaled to norm one, for the spanning element b that
    makes it largest (first on ties); f_t A f_0 is one-dimensional, so
    every nonzero choice works.
    """
    pieces = _refine(v, herm_span, n)
    if len(pieces) != n or any(piece.shape[1] != m for piece in pieces):
        raise DecompositionError(
            f"block {c}: minimal projections of ranks "
            f"{[piece.shape[1] for piece in pieces]}, expected {n} of rank {m}"
        )
    v0 = pieces[0]
    ws = []
    for t, vt in enumerate(pieces):
        corners = _adjoints(vt) @ onb_mats @ v0
        sizes = _norms(corners)
        k = int(np.argmax(sizes))
        scale = float(sizes[k]) ** 2 / m
        if not scale >= LINK_FLOOR:
            raise DecompositionError(
                f"block {c}: no spanning element links minimal "
                f"projections 0 and {t}"
            )
        ws.append(vt @ corners[k] @ _adjoints(v0) / np.sqrt(scale))
    ws = np.asarray(ws)
    units = ws[:, None] @ _adjoints(ws)[None]
    fs = np.asarray([piece @ _adjoints(piece) for piece in pieces])
    worst = _worst(
        _norms(units[range(n), range(n)] - fs),
        _norms(_adjoints(units) - units.transpose(1, 0, 2, 3)),
        *[_norms(units[:, b, None] @ units[None, b] - units) for b in range(n)],
    )
    if not worst <= PROJECTION_TOL * 10:
        raise DecompositionError(
            f"block {c}: matrix unit residual {worst:.3e}"
        )
    return units


# ------------------------------------------------------------------- K0

@dataclass
class K0Report:
    """unimodular is always True: verify_k0 returns only on a validated
    spec, whose rank matrix has determinant 1."""

    per_component_ranks: list
    total_rank: int
    phi_matrix: list
    unimodular: bool
    k1_total_rank: int = 0


def verify_k0(spec):
    """The rank map of the faithful representation, an isomorphism of free
    abelian groups.

    Rows of phi_matrix are the generators (one per component block, in
    index order), columns the blocks of the total algebra, which are the
    component blocks in the same order; entry ((i, b), (t, c)) is the
    trace of block c of pi_t(E^(b)_00 at i), that is of
    phi_{t,i}(E^(b)_00) for t <= i and 0 otherwise. All of them come from
    one gather on pi: the column of E^(b)_00 at i, summed over the
    diagonal rows of each block. Each trace must land on an integer, with
    an imaginary part within RANK_ROUND_TOL of 0.

    The spec is validated at gr.AXIOM_TOL first, unless a verdict within
    it is on record. The matrix is then invertible over the integers, with
    determinant 1:
      - diagonal block i holds the block traces of phi_{i,i}(E^(b)_00);
        phi_{i,i} is the identity within gr.AXIOM_TOL, so the block
        rounds to the identity matrix exactly;
      - entries with t not <= i are structural zeros of pi;
      - so the matrix is block-unitriangular along any linear extension
        of <=, and its determinant is 1.
    """
    gr.require_verdict(spec, gr.AXIOM_TOL)
    per_component = [c.nblocks for c in spec.components]
    labels, gens, diag, starts = [], [], [], []
    for i, c in enumerate(spec.components):
        for b, (d, off) in enumerate(zip(c.blocks, c.block_offsets())):
            labels.append(f"({spec.L.names[i]}, {b})")
            gens.append(spec.offsets[i] + off)
            starts.append(len(diag))
            diag.extend(spec.offsets[i] + off + np.arange(d) * (d + 1))
    if gens:
        traces = np.add.reduceat(spec.pi[np.ix_(diag, gens)], starts).T
    else:
        traces = np.zeros((0, 0), dtype=complex)
    real = traces.real
    bad = np.argwhere(
        ~(np.abs(real - np.round(real)) <= RANK_ROUND_TOL)
        | ~(np.abs(traces.imag) <= RANK_ROUND_TOL)
    )
    if bad.size:
        r, c = bad[0]
        what = f"trace of block {c} of the image of generator {labels[r]}"
        _nearest_integer(float(real[r, c]), what)
        raise NonIntegralBlock(
            f"{what} {complex(traces[r, c])!r} is not within {RANK_ROUND_TOL} "
            f"of an integer"
        )
    phi_matrix = [[int(v) for v in row] for row in np.round(real).tolist()]
    return K0Report(per_component, sum(per_component), phi_matrix, True)
