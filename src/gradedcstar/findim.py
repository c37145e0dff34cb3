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

    @property
    def dim(self):
        """Linear dimension, sum of d_k^2."""
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


def from_ambient(shape, big, check_tol=None):
    """Extract diagonal blocks; optionally insist the rest is ~0."""
    big = np.asarray(big, dtype=complex)
    if big.shape != (shape.side, shape.side):
        raise ShapeMismatch(f"ambient {big.shape}, expected side {shape.side}")
    mats, off = [], 0
    for d in shape.blocks:
        mats.append(big[off : off + d, off : off + d].copy())
        off += d
    x = AlgElement(shape, mats)
    if check_tol is not None:
        leak = maxabs(big - embed_ambient(x))
        if not leak <= check_tol:
            raise ValidationFailure(f"off-block-diagonal mass {leak:.3e}")
    return x


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


def is_positive(x, tol=BASIS_TOL):
    """Self-adjoint within tol and spectrum >= -tol, per block."""
    scale_ = 1.0 + op_norm(x)
    if op_norm(x - adjoint(x)) > tol * scale_:
        return False
    for m in x.mats:
        if m.size and np.linalg.eigvalsh((m + m.conj().T) / 2).min() < -tol * scale_:
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
    """Numerical rank: singular values above rtol times the largest."""
    if matrix.size == 0:
        return 0
    s = np.linalg.svd(matrix, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def kernel_dim(h):
    return h.source.dim - rank(h.matrix)


def is_unital_hom(h, tol=BASIS_TOL):
    return op_norm(h.apply(unit(h.source)) - unit(h.target)) <= tol


@dataclass
class HomReport:
    max_mult_residual: float
    max_star_residual: float


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


def adjoint_permutation(shape):
    """Permutation P with vec(x*) == conj(vec(x))[P]."""
    parts = [np.zeros(0, dtype=int)] + [
        off + np.arange(d * d).reshape(d, d).T.reshape(-1)
        for d, off in zip(shape.blocks, shape.block_offsets())
    ]
    return np.concatenate(parts)


def unit_products(shape):
    """Index arrays (a, b, c) with E_a E_b = E_c, the shape's own product
    table; every other pair of matrix units multiplies to zero."""
    parts = [np.zeros((3, 0), dtype=int)]
    for d, off in zip(shape.blocks, shape.block_offsets()):
        p, q, r = np.indices((d, d, d)).reshape(3, -1)
        parts.append(off + np.stack([p * d + q, q * d + r, p * d + r]))
    return tuple(np.concatenate(parts, axis=1))


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


def starhom_residuals(source, target, matrices):
    """Frobenius residuals star[..., a] = ||h(E_a*) - h(E_a)*|| and
    mult[..., a, b] = ||h(E_a) h(E_b) - h(E_a E_b)|| for a stack of maps
    source -> target, matrices of shape (..., target.dim, source.dim)."""
    m = np.asarray(matrices, dtype=complex)
    star = np.linalg.norm(
        m[..., adjoint_permutation(source)]
        - m[..., adjoint_permutation(target), :].conj(),
        axis=-2,
    )
    diff = pair_products(target, m, m)
    a, b, c = unit_products(source)
    diff[..., a, b, :] -= np.swapaxes(m, -1, -2)[..., c, :]
    return star, np.linalg.norm(diff, axis=-1)


def check_starhom_residuals(source, star, mult, tol=BASIS_TOL):
    """Raise on the first offending basis element, then the first offending
    basis pair (row-major), as starhom_residuals measured them for one map.
    A NaN residual fails."""
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
    return HomReport(max_mult_residual=maxabs(mult), max_star_residual=maxabs(star))


def validate_starhom(h, tol=BASIS_TOL):
    """Exhaustive basis check of h(xy) = h(x)h(y) and h(x*) = h(x)*.

    Exact by bilinearity: matrix units multiply to matrix units or zero, so
    the basis pairs cover everything. Residuals are Frobenius norms, which
    dominate the operator norm. Raises on the first offending pair.
    """
    star, mult = starhom_residuals(h.source, h.target, h.matrix)
    return check_starhom_residuals(h.source, star, mult, tol)
