"""Finite-dimensional C*-algebras as lists of complex matrix blocks.

An algebra is a shape [d_1, ..., d_r] (direct sum of full matrix algebras),
an element is one d_k x d_k complex matrix per block, and every linear map
between algebras is exchanged as a matrix over the canonical basis of matrix
units E^(k)_{pq}, ordered block-ascending then row-major. That fixed basis is
what makes serialization and oracle comparisons bit-exact.

All scalars are complex doubles. Default tolerances: 1e-9 absolute for basis
level residuals, rank cutoff 1e-8 relative to the largest singular value.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import InputError, ValidationFailure

BASIS_TOL = 1e-9
RANK_RTOL = 1e-8


class ShapeMismatch(InputError):
    pass


class NotMultiplicative(ValidationFailure):
    def __init__(self, pair, residual):
        self.pair = pair
        self.residual = residual
        super().__init__(
            f"h(x*y) != h(x)h(y) at basis pair {pair}, residual {residual:.3e}"
        )


class NotStarPreserving(ValidationFailure):
    def __init__(self, label, residual):
        self.label = label
        self.residual = residual
        super().__init__(
            f"h(x*) != h(x)* at basis element {label}, residual {residual:.3e}"
        )


@dataclass(frozen=True)
class AlgebraShape:
    """Block side lengths of a finite-dimensional C*-algebra.

    The empty tuple is the zero algebra and must be requested explicitly
    (quotients by everything produce it); all listed sides are >= 1.
    """

    blocks: tuple

    def __init__(self, blocks):
        blocks = tuple(int(d) for d in blocks)
        if any(d < 1 for d in blocks):
            raise InputError(f"block sides must be positive, got {blocks}")
        object.__setattr__(self, "blocks", blocks)

    @cached_property
    def dim(self):
        """Linear dimension, sum of d_k^2; computed once per shape."""
        return sum(d * d for d in self.blocks)

    @property
    def side(self):
        """Side length of the block-diagonal ambient embedding."""
        return sum(self.blocks)

    @property
    def nblocks(self):
        return len(self.blocks)

    def block_offsets(self):
        out, off = [], 0
        for d in self.blocks:
            out.append(off)
            off += d * d
        return out

    def basis_triples(self):
        """(block, row, col) for each canonical basis index, in order."""
        out = []
        for k, d in enumerate(self.blocks):
            for p in range(d):
                for q in range(d):
                    out.append((k, p, q))
        return out

    def basis_label(self, a):
        k, p, q = self.basis_triples()[a]
        return f"E{k}[{p},{q}]"

    def __repr__(self):
        return f"AlgebraShape({list(self.blocks)})"


class AlgElement:
    """One complex matrix per block of a shape."""

    __slots__ = ("shape", "mats")

    def __init__(self, shape, mats):
        if len(mats) != shape.nblocks:
            raise ShapeMismatch(
                f"{len(mats)} blocks given for shape {shape}"
            )
        checked = []
        for d, m in zip(shape.blocks, mats):
            m = np.asarray(m, dtype=complex)
            if m.shape != (d, d):
                raise ShapeMismatch(f"block of shape {m.shape}, expected ({d},{d})")
            checked.append(m)
        self.shape = shape
        self.mats = checked

    def copy(self):
        return AlgElement(self.shape, [m.copy() for m in self.mats])

    def __add__(self, other):
        _same_shape(self, other)
        return AlgElement(self.shape, [a + b for a, b in zip(self.mats, other.mats)])

    def __sub__(self, other):
        _same_shape(self, other)
        return AlgElement(self.shape, [a - b for a, b in zip(self.mats, other.mats)])

    def __mul__(self, other):
        if isinstance(other, AlgElement):
            return mul(self, other)
        return scale(other, self)

    def __rmul__(self, scalar):
        return scale(scalar, self)

    def __neg__(self):
        return scale(-1.0, self)

    def __repr__(self):
        return f"AlgElement({self.shape!r})"


def _same_shape(x, y):
    if x.shape != y.shape:
        raise ShapeMismatch(f"{x.shape} vs {y.shape}")


def scale(scalar, x):
    return AlgElement(x.shape, [complex(scalar) * m for m in x.mats])


def mul(x, y):
    _same_shape(x, y)
    return AlgElement(x.shape, [a @ b for a, b in zip(x.mats, y.mats)])


def adjoint(x):
    return AlgElement(x.shape, [m.conj().T for m in x.mats])


def zero(shape):
    return AlgElement(shape, [np.zeros((d, d), dtype=complex) for d in shape.blocks])


def unit(shape):
    return AlgElement(shape, [np.eye(d, dtype=complex) for d in shape.blocks])


def basis_element(shape, a):
    k, p, q = shape.basis_triples()[a]
    x = zero(shape)
    x.mats[k][p, q] = 1.0
    return x


def to_vector(x):
    """Coordinates over the matrix-unit basis: blocks flattened row-major."""
    if not x.mats:
        return np.zeros(0, dtype=complex)
    return np.concatenate([m.reshape(-1) for m in x.mats])


def from_vector(shape, v):
    v = np.asarray(v, dtype=complex)
    if v.shape != (shape.dim,):
        raise ShapeMismatch(f"vector of length {v.shape}, expected ({shape.dim},)")
    mats, off = [], 0
    for d in shape.blocks:
        mats.append(v[off : off + d * d].reshape(d, d))
        off += d * d
    return AlgElement(shape, mats)


def embed_ambient(x):
    """Block-diagonal side x side matrix. Multiplication is blockwise there."""
    side = x.shape.side
    out = np.zeros((side, side), dtype=complex)
    off = 0
    for m, d in zip(x.mats, x.shape.blocks):
        out[off : off + d, off : off + d] = m
        off += d
    return out


def from_ambient(shape, big):
    """Extract the diagonal blocks."""
    big = np.asarray(big, dtype=complex)
    if big.shape != (shape.side, shape.side):
        raise ShapeMismatch(f"ambient {big.shape}, expected side {shape.side}")
    mats, off = [], 0
    for d in shape.blocks:
        mats.append(big[off : off + d, off : off + d].copy())
        off += d
    return AlgElement(shape, mats)


def maxabs(arr):
    """Largest absolute entry, 0.0 for an empty array. A NaN entry gives
    NaN, so tolerance tests written `not r <= tol` fail on it."""
    arr = np.asarray(arr)
    return float(np.abs(arr).max()) if arr.size else 0.0


def op_norm(x):
    """Largest singular value over all blocks (0 for the zero algebra).
    NaN if a block's SVD gives NaN or does not converge, as on non-finite
    entries."""
    try:
        return maxabs([np.linalg.norm(m, 2) for m in x.mats if m.size])
    except np.linalg.LinAlgError:
        return np.nan


def frob_norm(x):
    return float(np.sqrt(sum(np.linalg.norm(m) ** 2 for m in x.mats)))


def is_positive(x):
    """Self-adjoint and spectrum >= 0 within BASIS_TOL (1 + ||x||), per block."""
    bound = BASIS_TOL * (1.0 + op_norm(x))
    if op_norm(x - adjoint(x)) > bound:
        return False
    for m in x.mats:
        if m.size and np.linalg.eigvalsh((m + m.conj().T) / 2).min() < -bound:
            return False
    return True


def random_element(shape, rng, hermitian=False):
    mats = []
    for d in shape.blocks:
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if hermitian:
            m = (m + m.conj().T) / 2
        mats.append(m)
    return AlgElement(shape, mats)


# ------------------------------------------------------------------- StarHom

class StarHom:
    """A linear map between shapes, stored as its dim(target) x dim(source)
    matrix over the canonical bases. Multiplicativity and *-preservation are
    claims about the matrix, checked by validate_starhom; anything that flows
    into a graded spec must pass that check first.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (target.dim, source.dim):
            raise ShapeMismatch(
                f"matrix {matrix.shape}, expected ({target.dim}, {source.dim})"
            )
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def from_images(cls, source, target, images):
        """Build from the images of the source basis, in canonical order."""
        if len(images) != source.dim:
            raise ShapeMismatch(f"{len(images)} images for dim {source.dim}")
        cols = []
        for im in images:
            if im.shape != target:
                raise ShapeMismatch(f"image shape {im.shape}, expected {target}")
            cols.append(to_vector(im))
        mat = (
            np.stack(cols, axis=1)
            if cols
            else np.zeros((target.dim, 0), dtype=complex)
        )
        return cls(source, target, mat)

    def apply(self, x):
        if x.shape != self.source:
            raise ShapeMismatch(f"element in {x.shape}, hom source {self.source}")
        return from_vector(self.target, self.matrix @ to_vector(x))

    def __call__(self, x):
        return self.apply(x)

    def image_of_basis(self, a):
        return from_vector(self.target, self.matrix[:, a])

    def __repr__(self):
        return f"StarHom({self.source!r} -> {self.target!r})"


def identity_hom(shape):
    return StarHom(shape, shape, np.eye(shape.dim, dtype=complex))


def zero_hom(source, target):
    return StarHom(source, target, np.zeros((target.dim, source.dim), dtype=complex))


def compose(g, h):
    """g after h. Requires h.target == g.source."""
    if h.target != g.source:
        raise ShapeMismatch(f"cannot compose: {h.target} feeds {g.source}")
    return StarHom(h.source, g.target, g.matrix @ h.matrix)


def rank(matrix, rtol=RANK_RTOL):
    """Numerical rank: singular values above rtol times the largest. A
    stack of matrices (..., m, n) gives an array of ranks."""
    matrix = np.asarray(matrix)
    if matrix.shape[-2] and matrix.shape[-1]:
        s = np.linalg.svd(matrix, compute_uv=False)
        ranks = np.sum(s > rtol * s[..., :1], axis=-1)
    else:
        ranks = np.zeros(matrix.shape[:-2], dtype=int)
    return int(ranks) if matrix.ndim == 2 else ranks


def kernel_dim(h):
    return h.source.dim - rank(h.matrix)


def is_unital_hom(h):
    return op_norm(h.apply(unit(h.source)) - unit(h.target)) <= BASIS_TOL


@dataclass
class HomReport:
    """Residuals of the check that decided: the matrix-unit relations on
    the generator route, the basis pairs on the full route. mult_bound
    bounds every basis-pair residual either way."""

    max_mult_residual: float
    max_star_residual: float
    mult_bound: float


def ambient_index_maps(shape):
    """Row/col positions in the ambient matrix for each basis coordinate.

    vec(x)[n] == embed_ambient(x)[rows[n], cols[n]].
    """
    rows, cols = [], []
    off = 0
    for d in shape.blocks:
        for p in range(d):
            for q in range(d):
                rows.append(off + p)
                cols.append(off + q)
        off += d
    return np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)


def _read_only(arr):
    arr.flags.writeable = False
    return arr


# The index tables below depend on the shape alone and every check asks
# for them again; they are cached per shape, read-only.

@lru_cache(maxsize=256)
def adjoint_permutation(shape):
    """Permutation P with vec(x*) == conj(vec(x))[P]."""
    parts = [np.zeros(0, dtype=int)] + [
        off + np.arange(d * d).reshape(d, d).T.reshape(-1)
        for d, off in zip(shape.blocks, shape.block_offsets())
    ]
    return _read_only(np.concatenate(parts))


@lru_cache(maxsize=256)
def unit_products(shape):
    """Index arrays (a, b, c) with E_a E_b = E_c, the shape's own product
    table; every other pair of matrix units multiplies to zero."""
    parts = [np.zeros((3, 0), dtype=int)]
    for d, off in zip(shape.blocks, shape.block_offsets()):
        p, q, r = np.indices((d, d, d)).reshape(3, -1)
        parts.append(off + np.stack([p * d + q, q * d + r, p * d + r]))
    return tuple(_read_only(row) for row in np.concatenate(parts, axis=1))


def _side_products(x, y, d, lead):
    """pair_products for s blocks of side d: x and y hold the images' s*d*d
    coordinates in those blocks, (..., s*d*d, dim A) and (..., s*d*d, dim B).
    One batched matmul over the blocks, rows (a, p) against columns (b, r).
    """
    na, nb = x.shape[-1], y.shape[-1]
    s = x.shape[-2] // (d * d)
    kx, ky, k = x.ndim - 2, y.ndim - 2, len(lead)
    x = x.reshape(x.shape[:-2] + (s, d, d, na))
    x = x.transpose(*range(kx + 1), kx + 3, kx + 1, kx + 2)
    y = y.reshape(y.shape[:-2] + (s, d, d, nb))
    y = y.transpose(*range(ky + 2), ky + 3, ky + 2)
    prod = x.reshape(x.shape[:-3] + (na * d, d)) @ y.reshape(y.shape[:-3] + (d, nb * d))
    prod = prod.reshape(lead + (s, na, d, nb, d))
    prod = prod.transpose(*range(k), k + 1, k + 3, k, k + 2, k + 4)
    return prod.reshape(lead + (na, nb, s * d * d))


def pair_products(shape, g, h):
    """vec(g(E_a) h(E_b)) for every basis pair (a, b).

    g and h are matrices into `shape` over the canonical bases, of shapes
    (..., shape.dim, dim A) and (..., shape.dim, dim B); leading axes hold
    stacks of maps and broadcast. Returns (..., dim A, dim B, shape.dim).
    Products are blockwise, so each block side costs one batched matmul.
    """
    g = np.asarray(g, dtype=complex)
    h = np.asarray(h, dtype=complex)
    lead = np.broadcast_shapes(g.shape[:-2], h.shape[:-2])
    offsets = {}  # block side -> offsets of the blocks of that side
    for d, off in zip(shape.blocks, shape.block_offsets()):
        offsets.setdefault(d, []).append(off)
    if len(offsets) == 1:
        # one side: the blocks tile the coordinates in order
        return _side_products(g, h, shape.blocks[0], lead)
    out = np.zeros(lead + (g.shape[-1], h.shape[-1], shape.dim), dtype=complex)
    for d, offs in offsets.items():
        coords = np.add.outer(offs, np.arange(d * d)).reshape(-1)
        out[..., coords] = _side_products(g[..., coords, :], h[..., coords, :], d, lead)
    return out


def star_residuals(source, target, matrices):
    """Frobenius residuals star[..., a] = ||h(E_a*) - h(E_a)*|| for a stack
    of maps source -> target, matrices of shape (..., target.dim,
    source.dim)."""
    m = np.asarray(matrices, dtype=complex)
    return np.linalg.norm(
        m[..., adjoint_permutation(source)]
        - m[..., adjoint_permutation(target), :].conj(),
        axis=-2,
    )


def mult_residuals(source, target, matrices):
    """Frobenius residuals mult[..., a, b] = ||h(E_a) h(E_b) - h(E_a E_b)||
    over every basis pair, for a stack of maps as in star_residuals."""
    m = np.asarray(matrices, dtype=complex)
    diff = pair_products(target, m, m)
    a, b, c = unit_products(source)
    diff[..., a, b, :] -= np.swapaxes(m, -1, -2)[..., c, :]
    return np.linalg.norm(diff, axis=-1)


def check_starhom_residuals(source, star, mult, tol=BASIS_TOL):
    """Raise on the first offending basis element, then the first offending
    basis pair (row-major), as star_residuals and mult_residuals measured
    them for one map. A NaN residual fails."""
    bad = np.flatnonzero(~(star <= tol))
    if bad.size:
        a = int(bad[0])
        raise NotStarPreserving(source.basis_label(a), float(star[a]))
    bad = np.flatnonzero(~(mult <= tol))
    if bad.size:
        a, b = divmod(int(bad[0]), source.dim)
        raise NotMultiplicative(
            (source.basis_label(a), source.basis_label(b)), float(mult[a, b])
        )
    mult_max = maxabs(mult)
    return HomReport(mult_max, maxabs(star), mult_max)


# --------------------------------------------------- matrix-unit generators

# The generator route below accepts only when a bound on the full check's
# residuals is <= tol. The bound is derived for tol <= GENERATOR_TOL_MAX;
# a looser tolerance goes straight to the full check.
GENERATOR_TOL_MAX = 1 / 16


def unit_kappa(shape):
    """Amplification from the matrix-unit relation residuals of a map with
    this source shape to its basis-pair residuals.

    Let eps bound the Frobenius residuals of the relations that
    unit_relation_residuals measures, with eps <= 1/kappa (so at most 1/30),
    V_p = h(E_p0) in a block of side n, f_pq = h(E_pq) - V_p V_q* and
    e_qr = V_q* V_r - delta_qr V_0. Then
      - ||V_0||^2 = ||V_0* V_0|| <= ||V_0|| + eps gives ||V_0|| <= 1 + eps,
        and ||V_p||^2 <= ||V_0|| + eps gives ||V_p|| <= c = 1 + eps;
      - V_p (1 - V_0*) = f_p0 and V_0 - V_0* = e_00* - e_00, so
        ||V_p (V_0 - 1)|| <= eps (1 + 2c);
      - expanding h(E_pq) h(E_rs) - delta_qr h(E_ps) into
        V_p e_qr V_s* + delta_qr V_p (V_0 - 1) V_s* + V_p V_q* f_rs
        + f_pq h(E_rs) - delta_qr f_ps bounds a same-block pair residual by
        k1 eps, k1 = 5c^2 + c + 1 + eps <= 7.5.
    Across blocks b != c, with P_b = h(1_b) and g = P_b P_c, write
    x = h(E_pq) in b and y = h(E_rs) in c. Then x - x P_b and y - P_c y are
    sums of n_b and n_c same-block residuals, and
      xy = x g y - x P_b (P_c y - y) - (x P_b - x) y,
    so ||xy|| <= eps (r^2 + k1 r (n_b + n_c) + k1^2 n_b n_c eps), with
    r = c^2 + eps >= ||x||, ||y||. At eps <= 1/kappa that is below
    kappa eps for kappa = 10 (1 + n_b + n_c); 10 (1 + 2 n_max) covers
    every pair of blocks.
    """
    return 10 * (1 + 2 * max(shape.blocks, default=0))


def unit_relation_residuals(source, target, matrices):
    """Largest Frobenius residual of the matrix-unit relations, one per map
    of a stack (..., target.dim, source.dim): in every source block, with
    V_p = h(E_p0),
        h(E_pq) = V_p V_q*  and  V_p* V_q = delta_pq V_0,
    and, when there are several blocks, P_b P_c = delta_bc P_b for the
    block units P_b = h(1_b); with one block P_0 is a projection by the
    first two. Blocks of one side share a pair_products call: 2n^2
    products per block and nblocks^2 for the units, against dim(source)^2
    basis pairs."""
    m = np.asarray(matrices, dtype=complex)
    lead = m.shape[:-2]
    worst = np.zeros(lead)
    adjoint_t = adjoint_permutation(target)
    sides = {}
    for d, off in zip(source.blocks, source.block_offsets()):
        sides.setdefault(d, []).append(off)
    for d, offs in sides.items():
        units = np.add.outer(offs, np.arange(d * d)).reshape(-1, d, d)
        v = np.moveaxis(m[..., units[:, :, 0]], -2, -3)  # (..., block, T, p)
        v_star = v.conj()[..., adjoint_t, :]
        # prods[0] = V_p V_q*, prods[1] = V_p* V_q
        prods = pair_products(target, np.stack([v, v_star]), np.stack([v_star, v]))
        prods[0] -= np.moveaxis(m[..., units], -4, -1)
        diag = np.arange(d)
        prods[1][..., diag, diag, :] -= v[..., None, :, 0]
        r = np.linalg.norm(prods, axis=-1).max(axis=0)
        worst = np.maximum(worst, r.reshape(lead + (-1,)).max(axis=-1))
    if source.nblocks == 1:
        return worst
    block_units = np.stack(
        [
            m[..., off + np.arange(d) * (d + 1)].sum(axis=-1)
            for d, off in zip(source.blocks, source.block_offsets())
        ],
        axis=-1,
    )
    prods = pair_products(target, block_units, block_units)
    nb = np.arange(source.nblocks)
    prods[..., nb, nb, :] -= np.moveaxis(block_units, -1, -2)
    r = np.linalg.norm(prods, axis=-1).reshape(lead + (-1,))
    return np.maximum(worst, r.max(axis=-1))


def check_starhoms(source, target, matrices, tol=BASIS_TOL):
    """Check a stack of maps source -> target, (k, target.dim, source.dim).

    Every map takes the star check over all basis elements. The generator
    route certifies a map when also unit_kappa times its matrix-unit
    relation residual is <= tol; every other map takes the basis-pair
    check, which decides and names the first offender. When every source
    block has side 1 the relations are no fewer than the basis pairs, and
    every map takes the basis-pair check.

    Returns (star, mult, bound, failures): per map the largest star
    residual, the largest residual of the check that decided, a bound on
    its basis-pair residuals, and {map position: the failure
    check_starhom_residuals raises for it, not raised}.
    """
    m = np.asarray(matrices, dtype=complex)
    star = star_residuals(source, target, m)
    star_max = star.max(axis=-1, initial=0.0)
    rest = np.arange(len(m))  # the maps the basis pairs decide
    mult = np.zeros(len(m))
    bound = np.zeros(len(m))
    if max(source.blocks, default=1) > 1 and tol <= GENERATOR_TOL_MAX:
        mult = unit_relation_residuals(source, target, m)
        bound = unit_kappa(source) * mult
        rest = np.flatnonzero(~((star_max <= tol) & (bound <= tol)))
    failures = {}
    if rest.size:
        pairs = mult_residuals(source, target, m[rest])
        pairs_max = pairs.reshape(len(rest), -1).max(axis=-1, initial=0.0)
        mult[rest] = pairs_max
        bound[rest] = pairs_max
        for q in np.flatnonzero(~((star_max[rest] <= tol) & (pairs_max <= tol))):
            p = int(rest[q])
            try:
                check_starhom_residuals(source, star[p], pairs[q], tol)
            except ValidationFailure as exc:
                failures[p] = exc
    return star_max, mult, bound, failures


def validate_starhom(h, tol=BASIS_TOL):
    """Check h(xy) = h(x)h(y) and h(x*) = h(x)*.

    On the generator route (check_starhoms) by the matrix-unit relations;
    otherwise by every basis pair, which is exact by bilinearity: matrix
    units multiply to matrix units or zero. Residuals are Frobenius norms,
    which dominate the operator norm. Raises on the first offending basis
    element or pair.
    """
    star, mult, bound, failures = check_starhoms(h.source, h.target, h.matrix[None], tol)
    if failures:
        raise failures[0]
    return HomReport(float(mult[0]), float(star[0]), float(bound[0]))
