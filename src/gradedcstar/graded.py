"""Graded specifications and the algebra they generate.

A GradedSpec is a finite meet-semilattice, one matrix-block algebra per
index, and a structure morphism phi_{i,j}: A_j -> A_i for every comparable
pair i <= j. The axioms checked here are

  a) phi_{i,i} is the identity, and
  b) phi_{m,k}(phi_{k,i}(x) phi_{k,j}(y)) = phi_{m,i}(x) phi_{m,j}(y)
     for every pair (i, j) with k = i ^ j and every m <= k,

the structure morphisms being *-homomorphisms. validate_spec checks them
on matrix-unit generators first, accepting within a derived error bound,
and over every canonical basis pair (exact by bilinearity) otherwise. Every
component is unital and finite-dimensional, so its multiplier algebra is
itself; the general theory's multiplier wrappers never appear and nothing
is lost by working with the components directly.

On top of the spec sit the total algebra (componentwise sums with the
convolution-like product routed through the bilinear family q), the
representations pi_i, the C*-norm sup_i ||pi_i(x)||, split exact sequences
along finishing index sets, graded morphisms into plain or graded targets,
and block-sum ideals with their quotient specs. On a valid spec the total
algebra is *-isomorphic to the direct sum of the A_i through
x -> (pi_i(x))_i, and validate_spec is the one checker of the grading
axioms; the rest is read off pi. A block sum is an ideal iff every
phi_{i,j} maps its blocks at j into its blocks at i
(verify_ideal_gradation); a q family satisfies its axioms iff the maps
read off it validate and generate it again (spec_from_q); a family into a
plain target is a graded morphism iff psi pi^-1 is a *-homomorphism out of
the direct sum (build_morphism).
"""

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import findim as fd
from .errors import InputError, ValidationFailure
from .findim import AlgebraShape, StarHom
from .semilattice import Semilattice

AXIOM_TOL = 1e-9


class MissingHom(InputError):
    pass


class SpecMismatch(InputError):
    pass


class AxiomAViolation(ValidationFailure):
    pass


class AxiomBViolation(ValidationFailure):
    def __init__(self, i, j, m, xlabel, ylabel, residual):
        self.where = (i, j, m, xlabel, ylabel)
        self.residual = residual
        super().__init__(
            f"compatibility fails at indices (i={i}, j={j}, m={m}), "
            f"basis pair ({xlabel}, {ylabel}), residual {residual:.3e}"
        )


class HomNotStar(ValidationFailure):
    pass


class QAxiomViolation(ValidationFailure):
    pass


class NotFinishing(InputError):
    pass


class IncompatibleFamily(ValidationFailure):
    def __init__(self, detail):
        super().__init__(detail)


class NotAnIdeal(ValidationFailure):
    pass


class PathDependence(ValidationFailure):
    pass


class GradedSpec:
    """Semilattice + component shapes + structure morphisms.

    Construction checks structure only (all comparable pairs present, hom
    shapes line up); the numeric axioms are validate_spec's job, so that
    deliberately broken specs can be built and shown to fail.
    A spec holds L, components, pi and validated_tol. The maps are stored
    once, as pi: the read-only matrix of x -> (pi_t(x))_t over the graded
    basis, whose block (t, j) is phi_{t,j} for t <= j (the identity on
    diagonals that GradedSpec(L, components, phi) is not given) and 0
    otherwise, so rows span(t) are pi_t. A builder that has pi in hand
    passes it to from_pi. phi is a read-only mapping over
    L.comparable_pairs(), lexicographic with the diagonals included; each
    lookup is a StarHom over a read-only view of pi's block, so nothing
    written through it reaches the spec. validated_tol is the smallest
    tolerance validate_spec has passed the spec at, inf before any pass;
    validated_bounds is the SpecBounds of the last pass, None before any.
    """

    def __init__(self, L, components, phi):
        components = _check_components(L, components)
        off = _offsets(components)
        pi = np.eye(off[-1], dtype=complex)  # the identity on each diagonal
        given = np.eye(L.n, dtype=bool)
        for (i, j), h in phi.items():
            if not (_is_int(i) and _is_int(j) and 0 <= i < L.n and 0 <= j < L.n):
                raise SpecMismatch(
                    f"phi given for pair ({i}, {j}), outside indices 0..{L.n - 1}"
                )
            if not L.le[i, j]:
                raise SpecMismatch(
                    f"phi given for non-comparable pair ({L.names[i]}, {L.names[j]})"
                )
            if h.source != components[j] or h.target != components[i]:
                raise fd.ShapeMismatch(
                    f"phi[{L.names[i]},{L.names[j]}] maps {h.source} -> {h.target}, "
                    f"expected {components[j]} -> {components[i]}"
                )
            pi[off[i] : off[i + 1], off[j] : off[j + 1]] = h.matrix
            given[i, j] = True
        missing = np.argwhere(L.le & ~given)
        if missing.size:
            i, j = missing[0]
            raise MissingHom(f"no structure morphism for {L.names[i]} <= {L.names[j]}")
        self._set_pi(L, components, pi)

    @classmethod
    def from_pi(cls, L, components, pi):
        """The spec whose maps are the blocks of a copy of pi."""
        components = _check_components(L, components)
        pi = np.array(pi, dtype=complex)
        owner = _owners(components)
        n = owner.size
        if pi.shape != (n, n):
            raise fd.ShapeMismatch(f"pi {pi.shape}, expected ({n}, {n})")
        r, c = np.nonzero((pi != 0) & ~L.le[np.ix_(owner, owner)])
        if r.size:
            i, j = divmod(int((owner[r] * L.n + owner[c]).min()), L.n)
            raise SpecMismatch(
                f"pi is nonzero at non-comparable pair ({L.names[i]}, {L.names[j]})"
            )
        return cls._of_pi(L, components, pi)

    @classmethod
    def _of_pi(cls, L, components, pi):
        """The spec over pi itself, which the caller has checked as from_pi
        does: the unchecked store for a gather of an already-checked pi."""
        spec = cls.__new__(cls)
        spec._set_pi(L, components, pi)
        return spec

    def _set_pi(self, L, components, pi):
        """Store pi, read-only, and everything read off it."""
        self.L = L
        self.components = tuple(components)
        off = _offsets(components)
        self.offsets = off[:-1]
        self.total_dim = off[-1]
        pi.flags.writeable = False
        self.pi = pi
        self.validated_tol = np.inf
        self.validated_bounds = None

    @property
    def phi(self):
        """The structure maps as a read-only mapping (i, j) -> phi_{i,j}."""
        return _PhiView(self)

    def pi_block(self, i, j):
        """Block (i, j) of pi, a read-only view: phi_{i,j} for i <= j,
        else 0."""
        return self.pi[self.span(i), self.span(j)]

    def structure_map(self, i, j):
        """phi_{i,j}: A_j -> A_i for i <= j."""
        if not (0 <= i < self.L.n and 0 <= j < self.L.n and self.L.leq(i, j)):
            raise MissingHom(
                f"({self.L.names[i]}, {self.L.names[j]}) is not comparable"
            )
        return StarHom(self.components[j], self.components[i], self.pi_block(i, j))

    def zero_element(self):
        return GradedElement(self, [fd.zero(c) for c in self.components])

    def basis_element(self, i, a):
        x = self.zero_element()
        k, p, q = self.components[i].basis_triples()[a]
        x.comps[i].mats[k][p, q] = 1.0
        return x

    def component_unit(self, i):
        x = self.zero_element()
        x.comps[i] = fd.unit(self.components[i])
        return x

    def graded_basis(self):
        """(index, local basis position, global position) for every basis
        element of the total algebra."""
        out = []
        for i, c in enumerate(self.components):
            for a in range(c.dim):
                out.append((i, a, self.offsets[i] + a))
        return out

    def basis_label(self, i, a):
        return f"{self.L.names[i]}:{self.components[i].basis_label(a)}"

    def random_element(self, rng):
        return GradedElement(
            self, [fd.random_element(c, rng) for c in self.components]
        )

    def ambient_shape(self):
        """Concatenation of every component's blocks, in index order."""
        blocks = []
        for c in self.components:
            blocks.extend(c.blocks)
        return AlgebraShape(blocks)

    def span(self, i):
        """Coordinates of index i in the graded basis, as a slice."""
        return slice(self.offsets[i], self.offsets[i] + self.components[i].dim)

    def __repr__(self):
        dims = [c.dim for c in self.components]
        return f"GradedSpec({self.L!r}, component dims {dims})"


def _is_int(a):
    """An integer that is not a bool: what an index of a semilattice is."""
    return isinstance(a, (int, np.integer)) and not isinstance(a, bool)


def _offsets(components):
    """Where each component's coordinates start, then the total dimension."""
    return list(itertools.accumulate((c.dim for c in components), initial=0))


def _owners(components):
    """The index each coordinate of the graded basis belongs to."""
    return np.repeat(np.arange(len(components)), [c.dim for c in components])


def _check_components(L, components):
    components = tuple(components)
    if len(components) != L.n:
        raise SpecMismatch(f"{len(components)} components for {L.n} indices")
    for c in components:
        if not isinstance(c, AlgebraShape):
            raise SpecMismatch(f"component {c!r} is not an AlgebraShape")
    return components


class _PhiView(Mapping):
    """A spec's phi: the comparable pairs, lexicographic, and for each a
    StarHom built on lookup over a read-only view of the spec's pi."""

    __slots__ = ("_spec",)

    def __init__(self, spec):
        self._spec = spec

    def __getitem__(self, key):
        try:
            return self._spec.structure_map(*key)
        except (MissingHom, TypeError, IndexError):
            raise KeyError(key) from None

    def __iter__(self):
        return iter(self._spec.L.comparable_pairs())

    def __len__(self):
        return int(np.count_nonzero(self._spec.L.le))


class GradedElement:
    """One component element per index; zero components allowed."""

    __slots__ = ("spec", "comps")

    def __init__(self, spec, comps):
        comps = list(comps)
        if len(comps) != spec.L.n:
            raise SpecMismatch(f"{len(comps)} components for {spec.L.n} indices")
        for c, shape in zip(comps, spec.components):
            if c.shape != shape:
                raise fd.ShapeMismatch(f"component in {c.shape}, expected {shape}")
        self.spec = spec
        self.comps = comps

    def support(self, tol=0.0):
        """Indices whose component's norm exceeds tol or is NaN."""
        return frozenset(
            i for i, c in enumerate(self.comps) if not fd.op_norm(c) <= tol
        )

    def copy(self):
        return GradedElement(self.spec, [c.copy() for c in self.comps])

    def __add__(self, other):
        _same_spec(self, other)
        return GradedElement(
            self.spec, [a + b for a, b in zip(self.comps, other.comps)]
        )

    def __sub__(self, other):
        _same_spec(self, other)
        return GradedElement(
            self.spec, [a - b for a, b in zip(self.comps, other.comps)]
        )

    def __mul__(self, other):
        if isinstance(other, GradedElement):
            return gmul(self, other)
        return GradedElement(self.spec, [fd.scale(other, c) for c in self.comps])

    def __rmul__(self, scalar):
        return GradedElement(self.spec, [fd.scale(scalar, c) for c in self.comps])

    def __neg__(self):
        return -1.0 * self

    def __repr__(self):
        return f"GradedElement(support {sorted(self.support())})"


def _same_spec(x, y):
    if x.spec is not y.spec:
        raise SpecMismatch("elements belong to different specs")


def to_gvector(x):
    return np.concatenate(
        [fd.to_vector(c) for c in x.comps]
    ) if x.comps else np.zeros(0, dtype=complex)


def from_gvector(spec, v):
    v = np.asarray(v, dtype=complex)
    if v.shape != (spec.total_dim,):
        raise fd.ShapeMismatch(f"vector length {v.shape}, expected {spec.total_dim}")
    comps = [fd.from_vector(c, v[spec.span(i)]) for i, c in enumerate(spec.components)]
    return GradedElement(spec, comps)


# ------------------------------------------------------------ the q family

def _meet_groups(spec, rows_of, left=None):
    """The ordered pairs (i, j) grouped by (k = i ^ j, the number of left
    columns of A_i, dim A_j), groups in row-major order of their first pair.

    left[i] holds the basis positions of A_i the left factor runs over;
    all of them when left is None. Yields (k, pairs, g, h) with
    g[p] = pi[rows, span(i)][:, left[i]] and h[p] = pi[rows, span(j)] for
    the p-th pair (i, j) and rows = rows_of(k) (a slice or an index array):
    the stacks one pair_products call takes. A group of one pair, as
    most are, gets its slices without a gather when left is None.
    """
    L, pi = spec.L, spec.pi
    dims = [c.dim for c in spec.components]
    lefts = dims if left is None else [len(cols) for cols in left]
    groups = {}
    for i in range(L.n):
        for j in range(L.n):
            groups.setdefault((L.meet_of(i, j), lefts[i], dims[j]), []).append((i, j))
    offsets = np.asarray(spec.offsets)
    if left is not None:
        left = [off + cols for off, cols in zip(spec.offsets, left)]  # columns of pi
    for (k, di, dj), pairs in groups.items():
        rows = rows_of(k)
        if len(pairs) == 1:
            (i, j), = pairs
            g = pi[rows, spec.span(i)] if left is None else pi[rows][:, left[i]]
            yield k, pairs, g[None], pi[rows, spec.span(j)][None]
            continue
        rows = np.arange(spec.total_dim)[rows][:, None]
        ii, jj = np.transpose(pairs)
        if left is None:
            gcols = offsets[ii, None] + np.arange(di)
        else:
            gcols = np.stack([left[i] for i in ii])
        hcols = offsets[jj, None] + np.arange(dj)
        yield k, pairs, pi[rows, gcols[:, None]], pi[rows, hcols[:, None]]


def q_from_phi(spec, i, j, x, y):
    """q_{i,j}(x, y) = phi_{k,i}(x) phi_{k,j}(y) in A_k, k = i ^ j."""
    k = spec.L.meet_of(i, j)
    return fd.mul(
        spec.structure_map(k, i).apply(x), spec.structure_map(k, j).apply(y)
    )


class QFamily:
    """The bilinear family q_{i,j}: A_i x A_j -> A_{i^j}, stored as one
    tensor (dim_k, dim_i, dim_j) per ordered pair."""

    def __init__(self, L, components, tensors):
        self.L = L
        self.components = tuple(components)
        self.tensors = tensors

    def validate(self, tol=AXIOM_TOL):
        """Check a') q_{i,i} = multiplication, b') the adjoint symmetry
        q_{i,j}(x, y)* = q_{j,i}(y*, x*) and c') the mixed associativity
        q(q(x,y),z) = q(x,q(y,z)); True, or QAxiomViolation.

        q satisfies a')-c') iff the maps phi_{i,j} = q_{j,i}(-, 1_i), for
        i <= j, form a spec that passes validate_spec and whose own q
        family is q; spec_from_q decides that:
          - (if) the q family of a valid spec satisfies a')-c');
          - (only if) the phi <-> q round trip. Each A_i is a unital
            ideal of the span of the A_j with j >= i, so c') and a') make
            1_i commute with them: q_{i,j}(1_i, y) = q_{j,i}(y, 1_i)
            = phi_{i,j}(y). By c') again q_{k,j}(z, y) = z phi_{k,j}(y)
            and q_{j,k}(y, z) = phi_{k,j}(y) z for z in A_k, k <= j, so
            q_{i,j}(x, y) = q_{k,j}(phi_{k,i}(x), y)
            = phi_{k,i}(x) phi_{k,j}(y) for k = i ^ j: q is the q family
            of the phi. a') gives phi_{i,i} = id, b') makes every phi
            *-preserving, c') on (j, j, i) multiplicative, and c') on
            (m, i, j), for m <= k, is axiom (b).
        """
        spec_from_q(self, tol)
        return True


def q_family_from_spec(spec):
    """Assemble the full bilinear family from the structure morphisms,
    one stacked pair product per group of pairs from _meet_groups."""
    tensors = {}
    for k, pairs, g, h in _meet_groups(spec, spec.span):
        prod = fd.pair_products(spec.components[k], g, h)
        for pair, t in zip(pairs, prod):
            tensors[pair] = t.transpose(2, 0, 1)
    return QFamily(spec.L, spec.components, tensors)


def phi_from_q(q, tol=AXIOM_TOL):
    """Recover the structure morphisms: phi_{i,j}(y) = q_{j,i}(y, 1_{A_i}),
    the maps of spec_from_q(q, tol)."""
    return dict(spec_from_q(q, tol).phi)


def spec_from_q(q, tol=AXIOM_TOL):
    """The validated spec whose q family is q, read off q as
    phi_{i,j}(y) = q_{j,i}(y, 1_{A_i}), which every unital component
    allows; QAxiomViolation when there is none (see QFamily.validate).

    Raises ShapeMismatch naming the first ordered pair, row-major, whose
    tensor is missing or not (dim A_{i^j}, dim A_i, dim A_j);
    QAxiomViolation chained from validate_spec's failure on the maps, or
    naming the first ordered pair whose tensor differs from the spec's own
    q family by more than tol (a NaN fails).
    """
    L, comps = q.L, q.components
    for i, j in itertools.product(range(L.n), repeat=2):
        shape = tuple(comps[a].dim for a in (L.meet_of(i, j), i, j))
        if np.shape(q.tensors.get((i, j))) != shape:
            raise fd.ShapeMismatch(
                f"q for pair ({L.names[i]}, {L.names[j]}) has shape "
                f"{np.shape(q.tensors.get((i, j)))}, expected {shape}"
            )
    phi = {}
    for i, j in L.comparable_pairs():
        unit_vec = fd.to_vector(fd.unit(comps[i]))
        m = np.einsum("uab,b->ua", q.tensors[(j, i)], unit_vec)
        phi[(i, j)] = StarHom(comps[j], comps[i], m)
    spec = GradedSpec(L, comps, phi)
    try:
        validate_spec(spec, tol)
    except ValidationFailure as exc:
        raise QAxiomViolation(f"the maps read off q fail validation: {exc}") from exc
    want = q_family_from_spec(spec).tensors
    for pair in sorted(want):
        r = fd.maxabs(q.tensors[pair] - want[pair])
        if not r <= tol:
            i, j = pair
            raise QAxiomViolation(
                f"q differs from the q family of its own maps at pair "
                f"({L.names[i]}, {L.names[j]}), residual {r:.3e}"
            )
    return spec


# ------------------------------------------------------------- validation

@dataclass
class SpecValidationReport:
    identity_residual: float
    hom_mult_residual: float
    hom_star_residual: float
    axiom_b_residual: float
    pairs_checked: int


class SpecBounds(NamedTuple):
    """Bounds that a passing validate_spec certified, over every basis
    element and basis pair of the spec: the largest entry of
    |phi_{i,i} - id| (identity), the largest Frobenius star residual of a
    map at a basis element (star), a bound on the Frobenius basis-pair
    residuals of every map (hom) and one on the entries of every axiom (b)
    basis-pair residual (axiom_b)."""

    identity: float
    star: float
    hom: float
    axiom_b: float


def validate_spec(spec, tol=AXIOM_TOL):
    """Numeric validation of the grading axioms.

    Checks phi_{i,i} = id, that every phi is a *-homomorphism, and the
    two-variable compatibility axiom for every (i, j) and every m below
    i ^ j. The last two run on matrix-unit generators first (see
    fd.check_starhoms and _axiom_b_kappas) and over every canonical basis
    pair when those cannot certify them; the basis-pair checks decide
    every failure. Raises on the first failure; returns the max residuals
    of the checks that decided on success, and records tol on the spec
    as validated_tol and the bounds it certified as validated_bounds. A
    NaN residual fails.
    """
    L = spec.L
    pi = spec.pi
    comps = spec.components
    id_res = 0.0
    for i in range(L.n):
        r = fd.maxabs(spec.pi_block(i, i) - np.eye(comps[i].dim))
        if not r <= tol:
            raise AxiomAViolation(
                f"phi[{L.names[i]},{L.names[i]}] differs from the identity "
                f"by {r:.3e}"
            )
        id_res = max(id_res, r)

    # *-homs, one stacked check per (source, target) shape pair, gathered
    # from pi; the lexicographically first failing map is named
    shape_id = {}
    sid = np.array([shape_id.setdefault(c, len(shape_id)) for c in comps])
    ii, jj = np.nonzero(L.le)
    key = sid[jj] * len(shape_id) + sid[ii]
    order = np.argsort(key, kind="stable")
    cuts = np.flatnonzero(np.diff(key[order])) + 1
    groups = np.split(order, cuts) if key.size else []
    offsets = np.asarray(spec.offsets)
    mult_res = star_res = hom_bound = 0.0
    failing = {}
    for group in groups:
        gi, gj = ii[group], jj[group]
        source, target = comps[gj[0]], comps[gi[0]]
        rows = offsets[gi, None] + np.arange(target.dim)
        cols = offsets[gj, None] + np.arange(source.dim)
        mats = pi[rows[:, :, None], cols[:, None, :]]
        star, mult, bound, failures = fd.check_starhoms(source, target, mats, tol)
        failing.update({(int(gi[p]), int(gj[p])): e for p, e in failures.items()})
        star_res = max(star_res, float(star.max()))
        mult_res = max(mult_res, float(mult.max()))
        hom_bound = max(hom_bound, float(bound.max()))
    if failing:
        i, j = min(failing)
        e = failing[(i, j)]
        raise HomNotStar(f"phi[{L.names[i]},{L.names[j]}]: {e}") from e

    # Axiom (b) says pi_m(E_a E_b) = pi_m(E_a) pi_m(E_b) for m <= k = i ^ j,
    # and E_a E_b = q_{i,j}(E_a, E_b) = pi_k(E_a) pi_k(E_b) lies in A_k.
    # One pair product over the rows of every m < k (ascending) and then
    # of k gives both sides; m = k holds by the definition of q. The pairs
    # sharing k and both factors' sizes take one stacked pair product.
    below = {}  # k -> (m < k ascending, rows, shape, split, pi_{m,k} transposed)

    def rows_of(k):
        if k not in below:
            ms = [m for m in np.flatnonzero(L.le[:, k]).tolist() if m != k]
            rows = np.concatenate(
                [spec.offsets[m] + np.arange(comps[m].dim) for m in ms + [k]]
            )
            split = len(rows) - comps[k].dim
            shape = AlgebraShape([d for m in ms + [k] for d in comps[m].blocks])
            below[k] = (ms, rows, shape, split, pi[rows[:split], spec.span(k)].T)
        return below[k][1]

    def residuals(k, g, h):
        """|pi_m(x) pi_m(y) - pi_m(xy)| for every m < k, rows of A_m
        side by side, or None when nothing lies below k."""
        ms, _, shape, split, down = below[k]
        if not ms:
            return None
        prod = fd.pair_products(shape, g, h)
        diff = prod[..., split:] @ down
        diff -= prod[..., :split]
        del prod  # a stack of products can be the largest array in a run
        return np.abs(diff)

    def triples(k, pairs):
        return (len(below[k][0]) + 1) * len(pairs)

    # generator route: left factors E_p0 and E_0q only. With every block
    # of side 1 they are the whole basis, and the basis-pair route below
    # does the same work.
    if tol <= fd.GENERATOR_TOL_MAX and not components_commutative(spec):
        left = [fd.unit_columns(c) for c in comps]
        k_eps, k_delta, k_zeta = _axiom_b_kappas(comps)
        budget = (tol - k_delta * hom_bound - k_zeta * id_res) / k_eps
        b_res = 0.0
        pairs_checked = 0
        for k, pairs, g, h in _meet_groups(spec, rows_of, left):
            pairs_checked += triples(k, pairs)
            diff = residuals(k, g, h)
            if diff is not None:
                b_res = np.maximum(b_res, fd.maxabs(diff))
            if not b_res <= budget:
                break
        else:
            beta = k_eps * b_res + k_delta * hom_bound + k_zeta * id_res
            spec.validated_tol = min(spec.validated_tol, tol)
            spec.validated_bounds = SpecBounds(id_res, star_res, hom_bound, float(beta))
            return SpecValidationReport(
                id_res, mult_res, star_res, float(b_res), pairs_checked
            )

    b_res = 0.0
    pairs_checked = 0
    first = None  # (i, j, k, |residual|) of the first failing pair, row-major
    for k, pairs, g, h in _meet_groups(spec, rows_of):
        if first is not None and pairs[0] > first[:2]:
            break
        pairs_checked += triples(k, pairs)
        diff = residuals(k, g, h)
        if diff is None:
            continue
        r = diff.reshape(len(pairs), -1).max(axis=1, initial=0.0)
        bad = np.flatnonzero(~(r <= tol))
        if bad.size and (first is None or pairs[bad[0]] < first[:2]):
            first = (*pairs[bad[0]], k, diff[bad[0]])
        b_res = max(b_res, float(r.max()))
    if first is not None:
        i, j, k, diff = first
        off = 0
        for m in below[k][0]:
            block = diff[..., off : off + comps[m].dim]
            off += comps[m].dim
            r = fd.maxabs(block)
            if not r <= tol:
                # the first pair, row-major, within rounding of the largest
                flat = block.reshape(-1)
                near = (flat >= r * (1 - 1e-12)) | np.isnan(flat)
                a, b = divmod(int(near.argmax()) // comps[m].dim, comps[j].dim)
                raise AxiomBViolation(
                    L.names[i], L.names[j], L.names[m],
                    spec.basis_label(i, a), spec.basis_label(j, b), r,
                )
    spec.validated_tol = min(spec.validated_tol, tol)
    spec.validated_bounds = SpecBounds(id_res, star_res, hom_bound, b_res)
    return SpecValidationReport(id_res, mult_res, star_res, b_res, pairs_checked)


def _axiom_b_kappas(components):
    """Amplification factors (k_eps, k_delta, k_zeta): every basis-pair
    residual of axiom (b) is at most k_eps eps + k_delta delta
    + k_zeta zeta, given the largest residual eps over left factors E_p0
    and E_0q, a bound delta on every phi's basis-pair residual (Frobenius)
    and the identity residual zeta.

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


# --------------------------------------------------------- total algebra

def gmul(x, y):
    """(xy)_k = sum over i ^ j = k of q_{i,j}(x_i, y_j)."""
    _same_spec(x, y)
    spec = x.spec
    out = spec.zero_element()
    for i in x.support():
        for j in y.support():
            k = spec.L.meet_of(i, j)
            out.comps[k] = out.comps[k] + q_from_phi(spec, i, j, x.comps[i], y.comps[j])
    return out


def gadjoint(x):
    return GradedElement(x.spec, [fd.adjoint(c) for c in x.comps])


def pi_rep(spec, i, x):
    """pi_i(x) = sum over j >= i of phi_{i,j}(x_j), an element of A_i."""
    return fd.from_vector(spec.components[i], spec.pi[spec.span(i)] @ to_gvector(x))


def pi_images(spec, x):
    """Every pi_i(x), in index order, from one product with pi."""
    v = spec.pi @ to_gvector(x)
    return [fd.from_vector(c, v[spec.span(i)]) for i, c in enumerate(spec.components)]


def gnorm(spec, x):
    """The C*-norm: max over indices of the operator norm of pi_i(x).
    NaN if any of them is NaN."""
    return fd.maxabs([fd.op_norm(p) for p in pi_images(spec, x)])


def faithful_image(spec, x):
    """Block-diagonal concatenation of every pi_i(x), one shape for all."""
    mats = [m for p in pi_images(spec, x) for m in p.mats]
    return fd.AlgElement(spec.ambient_shape(), mats)


def faithful_morphism(spec):
    """The sum of all pi_i as a graded morphism into the ambient shape.

    Injective on every valid spec; its operator norm realizes gnorm.
    """
    ambient = spec.ambient_shape()
    psi = [
        StarHom(spec.components[j], ambient, spec.pi[:, spec.span(j)])
        for j in range(spec.L.n)
    ]
    return build_morphism(spec, ambient, psi)


# ------------------------------------------------------- graded morphisms

class GradedMorphism:
    """A compatible family psi_i out of a spec's components.

    Plain target (an AlgebraShape): the maps land in one common algebra and
    satisfy psi_{j^k}(q_{j,k}(x,y)) = psi_j(x) psi_k(y); the unique linear
    extension to the total algebra is then a *-homomorphism.

    Graded target (a GradedSpec over the same semilattice): psi_i: A_i -> B_i
    intertwines the structure morphisms; the total map is block-diagonal
    over the graded bases.
    """

    def __init__(self, source, target, psi):
        self.source = source
        self.target = target
        self.psi = list(psi)
        if len(self.psi) != source.L.n:
            raise SpecMismatch(f"{len(self.psi)} maps for {source.L.n} indices")

    @property
    def graded_target(self):
        return isinstance(self.target, GradedSpec)

    def target_dim(self):
        return self.target.total_dim if self.graded_target else self.target.dim

    def total_matrix(self):
        src = self.source
        out = np.zeros((self.target_dim(), src.total_dim), dtype=complex)
        for i in range(src.L.n):
            rows = self.target.span(i) if self.graded_target else slice(None)
            out[rows, src.span(i)] = self.psi[i].matrix
        return out

    def apply(self, x):
        if x.spec is not self.source:
            raise SpecMismatch("element from a different spec")
        v = self.total_matrix() @ to_gvector(x)
        if self.graded_target:
            return from_gvector(self.target, v)
        return fd.from_vector(self.target, v)


def build_morphism(spec, target, psi, tol=AXIOM_TOL):
    """Validate a component family and wrap it as a GradedMorphism.

    Graded target: every psi_i must be a *-homomorphism, checked with one
    fd.check_starhoms per (source, target) shape stack; the first failing
    member by index raises what fd.validate_starhom raises for it. The
    family must intertwine the structure maps, D pi_A = pi_B D for D the
    block-diagonal total matrix; the lexicographically first comparable
    pair (i, j) whose block psi_i phi_{i,j} - phi'_{i,j} psi_j exceeds
    tol (a NaN fails) is named.

    Plain target: the spec is validated first, unless a verdict <= tol is
    on record. With Psi = [psi_0 ... psi_{n-1}] the linear extension of
    the family to the total algebra, the family is compatible (every
    psi_i a *-homomorphism and psi_{j^k}(q_{j,k}(x, y)) = psi_j(x) psi_k(y))
    iff Psi is a *-homomorphism: A_j A_k = q_{j,k}(A_j, A_k) and the
    involution is componentwise. On a valid spec pi is a *-isomorphism of
    the total algebra onto the direct sum of the A_i, whose ambient shape
    has the graded basis as its basis, so Psi is one iff
    Theta = Psi pi^-1 is a *-homomorphism out of that sum: one stacked
    check, with no q family. A failure raises IncompatibleFamily chained
    from that check's failure and names the basis element or pair of the
    direct sum as spec.basis_label does.
    """
    m = GradedMorphism(spec, target, psi)
    L = spec.L
    if m.graded_target:
        if target.L is not L and target.L.meet != L.meet:
            raise SpecMismatch("graded target lives over a different semilattice")
        groups = {}  # (source, target) shape -> members
        for i, h in enumerate(m.psi):
            if h.source != spec.components[i] or h.target != target.components[i]:
                raise fd.ShapeMismatch(f"psi[{L.names[i]}] maps {h.source} -> {h.target}")
            groups.setdefault((h.source, h.target), []).append(i)
        failing = {}
        for (source, shape), members in groups.items():
            mats = [m.psi[i].matrix for i in members]
            failures = fd.check_starhoms(source, shape, mats, tol)[3]
            failing.update({members[p]: e for p, e in failures.items()})
        if failing:
            raise failing[min(failing)]
        # block by block, so that a non-finite entry stays in its own block
        resid = np.zeros((target.total_dim, spec.total_dim), dtype=complex)
        for i in range(L.n):
            resid[target.span(i)] = m.psi[i].matrix @ spec.pi[spec.span(i)]
            resid[:, spec.span(i)] -= target.pi[:, target.span(i)] @ m.psi[i].matrix
        r, c = np.nonzero(~(np.abs(resid) <= tol))
        if r.size:
            rows, cols = _owners(target.components), _owners(spec.components)
            i, j = divmod(int((rows[r] * L.n + cols[c]).min()), L.n)
            block = resid[target.span(i), spec.span(j)]
            raise IncompatibleFamily(
                f"psi does not intertwine structure maps at pair "
                f"({L.names[i]}, {L.names[j]}), residual {fd.maxabs(block):.3e}"
            )
        return m
    for i in range(L.n):
        h = m.psi[i]
        if h.source != spec.components[i] or h.target != target:
            raise fd.ShapeMismatch(f"psi[{L.names[i]}] maps {h.source} -> {h.target}")
    if spec.validated_tol > tol:
        validate_spec(spec, tol)
    theta = np.linalg.solve(spec.pi.T, m.total_matrix().T).T
    ambient = spec.ambient_shape()
    failures = fd.check_starhoms(ambient, target, theta[None], tol)[3]
    if failures:
        e = failures[0]
        label = {
            ambient.basis_label(g): spec.basis_label(i, a)
            for i, a, g in spec.graded_basis()
        }
        if isinstance(e, fd.NotStarPreserving):
            where = f"star fails at {label[e.label]}"
        else:
            where = f"products fail at ({label[e.pair[0]]}, {label[e.pair[1]]})"
        raise IncompatibleFamily(
            f"psi pi^-1 is not a *-homomorphism out of the sum of the "
            f"components: {where}, residual {e.residual:.3e}"
        ) from e
    return m


@dataclass
class MorphismAnalysis:
    injective: bool
    surjective: bool
    ker_dims: list
    image_dims: list
    joint_image_dim: int
    total_kernel_dim: int
    componentwise: bool = field(default=False)


def analyze_morphism(m):
    """Injectivity/surjectivity verdicts with the ranks that support them.

    Plain target: injective iff every component map is injective and the
    component images are in direct sum (sum of image dims equals the joint
    span's dimension); surjective iff the joint span fills the target.
    Graded target: verdicts are componentwise; the reported total kernel
    always comes from the total matrix's rank, so the componentwise story
    can be checked against it.
    """
    src = m.source
    image_dims = [fd.rank(h.matrix) for h in m.psi]
    ker_dims = [h.source.dim - r for h, r in zip(m.psi, image_dims)]
    total = m.total_matrix()
    total_rank = fd.rank(total)
    total_kernel = src.total_dim - total_rank
    if m.graded_target:
        injective = all(k == 0 for k in ker_dims)
        surjective = all(
            image_dims[i] == m.target.components[i].dim for i in range(src.L.n)
        )
        joint = total_rank
        return MorphismAnalysis(
            injective, surjective, ker_dims, image_dims, joint, total_kernel,
            componentwise=True,
        )
    joint = total_rank
    direct_sum = sum(image_dims) == joint
    injective = all(k == 0 for k in ker_dims) and direct_sum
    surjective = joint == m.target.dim
    return MorphismAnalysis(
        injective, surjective, ker_dims, image_dims, joint, total_kernel
    )


# ------------------------------------------------- split exact sequences

def restrict_spec(spec, M):
    """The sub-spec over a meet-closed index set, plus old->new index map.

    The sub-spec's axioms are a subset of the spec's, so it inherits the
    spec's validated_tol and validated_bounds."""
    M = _sorted_indices(spec.L, M)
    if not spec.L.is_subsemilattice(M):
        raise InputError(f"{M} is not meet-closed")
    new_of = np.full(spec.L.n, -1)  # old index -> new index, -1 off M
    new_of[M] = np.arange(len(M))
    meet = np.asarray(spec.L.meet, dtype=np.intp)
    # a meet-closed subset of a checked semilattice is one: no check
    subL = Semilattice._of_table(
        new_of[meet[np.ix_(M, M)]], [spec.L.names[a] for a in M], spec.L.le[np.ix_(M, M)]
    )
    coords = new_of[_owners(spec.components)] >= 0
    sub = GradedSpec._of_pi(
        subL, [spec.components[a] for a in M], spec.pi[np.ix_(coords, coords)]
    )
    sub.validated_tol = spec.validated_tol
    sub.validated_bounds = spec.validated_bounds
    return sub, {old: int(new_of[old]) for old in M}


def _sorted_indices(L, M):
    """The distinct members of M, ascending; InputError names the first
    non-integer in M, else the least member that is out of range."""
    M = list(M)
    for a in M:
        if not _is_int(a):
            raise InputError(f"index {a!r} is not an integer")
    M = sorted(set(M))
    for a in M:
        if not 0 <= a < L.n:
            raise InputError(f"index {a} is out of range for {L.n} indices")
    return M


class FinishingSplit:
    """The split exact sequence along a finishing index set M.

    p zeroes every component outside M and lands in the restricted spec;
    sigma is the inclusion. p o sigma is the identity exactly (both are 0/1
    coordinate selections); ker p is spanned by the components off M.
    p is multiplicative by construction: M is upward closed, so i ^ j in M
    forces i and j into M, and the products that p keeps come only from
    components that p keeps.
    """

    def __init__(self, spec, M):
        M = frozenset(M)
        if not spec.L.is_finishing_subsemilattice(M) or not M:
            raise NotFinishing(
                f"{sorted(M)} is not a nonempty finishing sub-semilattice"
            )
        self.spec = spec
        self.M = M
        self.sub_spec, self.remap = restrict_spec(spec, M)
        self.kernel_dim = sum(
            spec.components[i].dim for i in range(spec.L.n) if i not in M
        )

    def p(self, x):
        if x.spec is not self.spec:
            raise SpecMismatch("element from a different spec")
        comps = [x.comps[old].copy() for old in sorted(self.M)]
        return GradedElement(self.sub_spec, comps)

    def sigma(self, y):
        if y.spec is not self.sub_spec:
            raise SpecMismatch("element from a different sub-spec")
        out = self.spec.zero_element()
        for old, new in self.remap.items():
            out.comps[old] = y.comps[new].copy()
        return out


# --------------------------------------------------------------- ideals

@dataclass
class IdealGradationReport:
    """max_leak is the largest absolute entry of pi's rows off the ideal
    and columns in it: how far any phi_{i,j} maps I_j outside I_i."""

    ideal_dim: int
    max_leak: float
    quotient: GradedSpec
    quotient_maps: list


def verify_ideal_gradation(spec, ideal_blocks, tol=AXIOM_TOL):
    """Check a per-index block selection spans a two-sided *-ideal and
    build the graded quotient.

    Ideals are parametrized by block subsets, which is complete in finite
    dimension: every closed two-sided ideal of a matrix-block algebra is a
    sub-sum of blocks, and the graded intersection I ^ A_i is then exactly
    the selected blocks at i.

    The spec is validated at tol first, unless a verdict <= tol is on
    record. On a validated spec, with I_j the selected blocks of A_j,
    I = sum of the I_j is a *-ideal iff phi_{i,j}(I_j) lies in I_i for all
    i <= j:
      - (only if) for y in I_j, 1_i y = q_{i,j}(1_i, y) = phi_{i,j}(y),
        which lies in I and in A_i, so in I_i;
      - (if) pi_i(x) = sum over j >= i of phi_{i,j}(x_j), so pi maps I
        into the sum of the I_i; pi is invertible (unitriangular), so
        pi(I) has dimension sum dim I_i and is that sum, a block ideal of
        the direct sum of the A_i; pi is a *-isomorphism onto that sum.
    So the selection is accepted iff no entry of pi's rows off the ideal
    and columns in it exceeds tol (a NaN entry fails); otherwise the
    lexicographically first map phi_{i,j} with such an entry is named.
    """
    L = spec.L
    selection = {}
    for i in range(L.n):
        chosen = frozenset(ideal_blocks.get(i, ()))
        nb = spec.components[i].nblocks
        if any(not 0 <= b < nb for b in chosen):
            raise InputError(
                f"index {L.names[i]}: block selection {sorted(chosen)} out of "
                f"range for {nb} blocks"
            )
        selection[i] = chosen
    if spec.validated_tol > tol:
        validate_spec(spec, tol)

    # in_ideal[i][a]: basis element a of A_i lies in a selected block
    in_ideal = []
    for i, c in enumerate(spec.components):
        block_of = np.repeat(range(c.nblocks), [d * d for d in c.blocks])
        in_ideal.append(np.isin(block_of, list(selection[i])))
    dropped = np.concatenate(in_ideal) if in_ideal else np.zeros(0, dtype=bool)
    leaks = np.abs(spec.pi[np.ix_(~dropped, dropped)])
    r, c = np.nonzero(~(leaks <= tol))
    if r.size:
        owner = _owners(spec.components)
        i, j = divmod(int((owner[~dropped][r] * L.n + owner[dropped][c]).min()), L.n)
        leak = spec.pi_block(i, j)[np.ix_(~in_ideal[i], in_ideal[j])]
        raise NotAnIdeal(
            f"phi[{L.names[i]},{L.names[j]}] maps the ideal outside "
            f"itself by {fd.maxabs(leak):.3e}"
        )

    # quotient: drop the selected blocks, compress the structure maps
    quot_comps = [
        AlgebraShape([d for blk, d in enumerate(c.blocks) if blk not in selection[i]])
        for i, c in enumerate(spec.components)
    ]
    quotient = GradedSpec._of_pi(L, quot_comps, spec.pi[np.ix_(~dropped, ~dropped)])
    quotient_maps = [
        StarHom(
            spec.components[i],
            quot_comps[i],
            np.eye(spec.components[i].dim, dtype=complex)[~in_ideal[i]],
        )
        for i in range(L.n)
    ]
    validate_spec(quotient, tol)
    return IdealGradationReport(
        int(dropped.sum()), float(leaks.max(initial=0.0)), quotient, quotient_maps
    )


# -------------------------------------------------------- commutativity

def components_commutative(spec):
    """Shape test: every block of every component is 1 x 1."""
    return all(all(d == 1 for d in c.blocks) for c in spec.components)


def total_commutative(spec, tol=AXIOM_TOL):
    """Basis test on the total algebra: xy = yx for all basis pairs."""
    for i, a, _ in spec.graded_basis():
        xa = spec.basis_element(i, a)
        for j, b, _ in spec.graded_basis():
            yb = spec.basis_element(j, b)
            d = gmul(xa, yb) - gmul(yb, xa)
            if any(not fd.frob_norm(c) <= tol for c in d.comps):
                return False
    return True


# --------------------------------------------- chain-closure convenience

def covering_pairs(L):
    """(i, j) with i < j and nothing strictly between."""
    lt = (L.le & ~np.eye(L.n, dtype=bool)).astype(float)
    cover = (lt > 0) & ~(lt @ lt > 0)
    return list(zip(*(a.tolist() for a in np.nonzero(cover))))


def complete_phi_by_chains(L, components, partial, tol=AXIOM_TOL):
    """Fill in phi for all comparable pairs from covering-pair data.

    Path independence on chains, which the compatibility axiom demands,
    is checked by induction on interval length. Taking the pairs i < j by
    |[i, j]|, ties lexicographic, C_{i,j} = phi_{i,t} C_{t,j} (C_{j,j} the
    identity, phi_{i,t} a given covering map) must agree for every cover t
    of i below j, and a given phi_{i,j} with the first cover's C_{i,j}.
    Every chain from i to j steps to a cover t and then runs from t to j,
    so every chain's composition agrees with C_{i,j}. Disagreement is a
    hard error; the result is the given map where there is one, else
    C_{i,j}. Each step compares within tol, so two chains of depth d can
    differ by up to about d x tol and pass, where comparing each chain
    with the first would refuse them.
    """
    covers = covering_pairs(L)
    for i, j in covers:
        if (i, j) not in partial:
            raise MissingHom(
                f"chain closure needs phi for covering pair "
                f"({L.names[i]}, {L.names[j]})"
            )
    up = [[] for _ in range(L.n)]  # covers of each index, ascending
    for i, t in covers:
        up[i].append(t)
    le = L.le
    size = le.astype(float) @ le.astype(float)  # |[i, j]| where i <= j
    ii, jj = np.nonzero(le & ~np.eye(L.n, dtype=bool))
    order = np.lexsort((jj, ii, size[ii, jj]))
    chain = {(i, i): fd.identity_hom(c) for i, c in enumerate(components)}
    for i, j in zip(ii[order].tolist(), jj[order].tolist()):
        base, *others = [
            fd.compose(partial[(i, t)], chain[(t, j)]) for t in up[i] if le[t, j]
        ]
        for h in others:
            r = fd.maxabs(base.matrix - h.matrix)
            if not r <= tol:
                raise PathDependence(
                    f"chain compositions for ({L.names[i]}, {L.names[j]}) "
                    f"disagree by {r:.3e}"
                )
        chain[(i, j)] = base
        if (i, j) in partial:
            h = partial[(i, j)]
            if (h.source, h.target) != (base.source, base.target):
                raise fd.ShapeMismatch(
                    f"given phi for ({L.names[i]}, {L.names[j]}) maps "
                    f"{h.source} -> {h.target}, its chain composition "
                    f"{base.source} -> {base.target}"
                )
            r = fd.maxabs(base.matrix - h.matrix)
            if not r <= tol:
                raise PathDependence(
                    f"given phi for ({L.names[i]}, {L.names[j]}) disagrees "
                    f"with its chain composition by {r:.3e}"
                )
    return {
        (i, j): partial[(i, j)] if i != j and (i, j) in partial else chain[(i, j)]
        for i, j in L.comparable_pairs()
    }
