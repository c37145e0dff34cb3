"""Graded specifications and the algebra they generate.

A GradedSpec is a finite meet-semilattice, one matrix-block algebra per
index, and a structure morphism phi_{i,j}: A_j -> A_i for every comparable
pair i <= j. The axioms checked here are

  a) phi_{i,i} is the identity, and
  b) phi_{m,k}(phi_{k,i}(x) phi_{k,j}(y)) = phi_{m,i}(x) phi_{m,j}(y)
     for every pair (i, j) with k = i ^ j and every m <= k,

the structure morphisms being *-homomorphisms. validate_spec decides a
commutative spec whose pi is exactly 0/1 with boolean arithmetic; it checks
axiom (b) on any other spec with a block of side at least 2 as the
composition of pi's blocks, accepting each pair within a derived error
bound, and over every canonical basis pair (exact by bilinearity)
otherwise. Every
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
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import findim as fd
from .errors import InputError, ValidationFailure
from .findim import AlgebraShape, StarHom
from .semilattice import Semilattice, _is_int

AXIOM_TOL = 1e-9

# about how many uint64 words each array of one step of _zero_one_failure
# holds
_BITSET_STEP_WORDS = 1 << 18

# about how many entries each array of one step of _composition_bounds
# holds
_COMPOSITION_STEP = 1 << 18


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
    tolerance the spec is known to satisfy the axioms within, inf until
    then; validated_bounds is the SpecBounds of the last verdict, None
    before any. _set_verdict is their one writer (validate_spec, and the
    constructions that prove the axioms) and require_verdict their one
    reader.
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
        self.offsets = np.array(off[:-1], dtype=np.intp)
        self.offsets.flags.writeable = False
        self.total_dim = off[-1]
        pi.flags.writeable = False
        self.pi = pi
        self.validated_tol = np.inf
        self.validated_bounds = None

    def _set_verdict(self, tol, bounds):
        """Record that the spec satisfies the axioms within tol, with the
        SpecBounds certified for it; the smallest such tol is kept."""
        self.validated_tol = min(self.validated_tol, tol)
        self.validated_bounds = bounds

    @property
    def phi(self):
        """The structure maps as a read-only mapping (i, j) -> phi_{i,j}."""
        return _PhiView(self)

    def pi_block(self, i, j):
        """Block (i, j) of pi, a read-only view: phi_{i,j} for i <= j,
        else 0."""
        return self.pi[self.span(i), self.span(j)]

    def structure_map(self, i, j):
        """phi_{i,j}: A_j -> A_i for i <= j. InputError names an index
        that is not an integer or out of range, as L.indices does."""
        self.L.indices((i, j))
        if not self.L.le[i, j]:
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
        for i, (off, c) in enumerate(zip(self.offsets.tolist(), self.components)):
            for a in range(c.dim):
                out.append((i, a, off + a))
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
        start = self.offsets.item(i)
        return slice(start, start + self.components[i].dim)

    def __repr__(self):
        dims = [c.dim for c in self.components]
        return f"GradedSpec({self.L!r}, component dims {dims})"


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
        except (InputError, TypeError):
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

    def support(self):
        """Indices whose component's norm is nonzero or NaN."""
        return frozenset(
            i for i, c in enumerate(self.comps) if not fd.op_norm(c) <= 0.0
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

def _meet_groups(spec, rows_of):
    """The ordered pairs (i, j) grouped by (k = i ^ j, dim A_i, dim A_j),
    groups in row-major order of their first pair.

    Yields (k, pairs, g, h) with g[p] = pi[rows, span(i)] and
    h[p] = pi[rows, span(j)] for the p-th pair (i, j) and rows = rows_of(k)
    (a slice or an index array): the stacks one pair_products call takes.
    A group of one pair, as most are, gets its slices without a gather.
    """
    L, pi = spec.L, spec.pi
    dims = [c.dim for c in spec.components]
    groups = {}
    for i, row in enumerate(L.meet.tolist()):
        for j, k in enumerate(row):
            groups.setdefault((k, dims[i], dims[j]), []).append((i, j))
    for (k, di, dj), pairs in groups.items():
        rows = rows_of(k)
        if len(pairs) == 1:
            (i, j), = pairs
            yield k, pairs, pi[rows, spec.span(i)][None], pi[rows, spec.span(j)][None]
            continue
        rows = np.arange(spec.total_dim)[rows][:, None]
        ii, jj = np.transpose(pairs)
        gcols = spec.offsets[ii, None] + np.arange(di)
        hcols = spec.offsets[jj, None] + np.arange(dj)
        yield k, pairs, pi[rows, gcols[:, None]], pi[rows, hcols[:, None]]


def q_from_phi(spec, i, j, x, y):
    """q_{i,j}(x, y) = phi_{k,i}(x) phi_{k,j}(y) in A_k, k = i ^ j."""
    k = spec.L.meet[i, j]
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

    def validate(self):
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
        spec_from_q(self)
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


def phi_from_q(q):
    """Recover the structure morphisms: phi_{i,j}(y) = q_{j,i}(y, 1_{A_i}),
    the maps of spec_from_q(q)."""
    return dict(spec_from_q(q).phi)


def spec_from_q(q):
    """The validated spec whose q family is q, read off q as
    phi_{i,j}(y) = q_{j,i}(y, 1_{A_i}), which every unital component
    allows; QAxiomViolation when there is none (see QFamily.validate).

    Raises ShapeMismatch naming the first ordered pair, row-major, whose
    tensor is missing or not (dim A_{i^j}, dim A_i, dim A_j);
    QAxiomViolation chained from validate_spec's failure on the maps, or
    naming the first ordered pair whose tensor differs from the spec's own
    q family by more than AXIOM_TOL (a NaN fails).
    """
    L, comps = q.L, q.components
    for (i, j), k in np.ndenumerate(L.meet):
        shape = tuple(comps[a].dim for a in (k, i, j))
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
        validate_spec(spec, AXIOM_TOL)
    except ValidationFailure as exc:
        raise QAxiomViolation(f"the maps read off q fail validation: {exc}") from exc
    want = q_family_from_spec(spec).tensors
    for pair in sorted(want):
        r = fd.maxabs(q.tensors[pair] - want[pair])
        if not r <= AXIOM_TOL:
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
    i ^ j. Three routes decide, in turn:
      - the exact route, on commutative components whose pi is exactly
        0/1 and at tol >= 0 (see _zero_one_table and _zero_one_failure):
        it accepts with every residual 0.0, which is what the checks
        below compute on such a spec, since every sum they form is over
        0/1 products and exact; a failure of axiom (b) there is named
        from the basis-pair residuals of the failing pair alone;
      - on components with a block of side at least 2, after the *-homs
        (see fd.check_starhoms), the composition route for axiom (b)
        (see _composition_bounds): it certifies each ordered pair whose
        bound is within tol, and the basis-pair residuals of the other
        pairs, in row-major order, decide; the first that fails is named;
      - the basis-pair route over every canonical basis pair on every
        other spec.
    Raises on the first failure; returns the max residuals of the checks
    that decided on success, and records tol on the spec as validated_tol
    and the bounds it certified as validated_bounds. A NaN residual
    fails.
    """
    L = spec.L
    pi = spec.pi
    comps = spec.components
    # one (i, j, m) triple for every ordered pair (i, j) and m <= i ^ j
    pairs_checked = int(L.le.sum(axis=0)[L.meet].sum())

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

    def raise_first_offender(i, j, k, diff):
        """AxiomBViolation at the first m < k whose rows of diff, the
        residuals of the pair (i, j), exceed tol, if one does."""
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

    table = _zero_one_table(spec) if 0 <= tol else None
    if table is not None:
        first = _zero_one_failure(spec, table)
        if first is None:
            spec._set_verdict(tol, SpecBounds(0.0, 0.0, 0.0, 0.0))
            return SpecValidationReport(0.0, 0.0, 0.0, 0.0, pairs_checked)
        # every residual of the pair is 0 or 1: this raises unless tol >= 1
        i, j = first
        k = int(L.meet[i, j])
        rows = rows_of(k)
        g, h = pi[rows, spec.span(i)][None], pi[rows, spec.span(j)][None]
        raise_first_offender(i, j, k, residuals(k, g, h)[0])

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
    mult_res = star_res = hom_bound = 0.0
    failing = {}
    for group in groups:
        gi, gj = ii[group], jj[group]
        source, target = comps[gj[0]], comps[gi[0]]
        rows = spec.offsets[gi, None] + np.arange(target.dim)
        cols = spec.offsets[gj, None] + np.arange(source.dim)
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

    b_res = 0.0
    if not components_commutative(spec):
        bound, comp_res, pair_bounds = _composition_bounds(spec, hom_bound, star_res)
        if not bound <= tol:
            # the basis pairs decide the pairs whose own bound exceeds tol
            beta, measured = pair_bounds()
            certified = beta <= tol
            for i, j in zip(*np.nonzero(~certified)):  # row-major
                k = int(L.meet[i, j])
                rows = rows_of(k)
                diff = residuals(k, pi[rows, spec.span(i)][None], pi[rows, spec.span(j)][None])
                r = fd.maxabs(diff)
                if not r <= tol:
                    raise_first_offender(i, j, k, diff[0])
                b_res = max(b_res, r)
            bound = max(float(beta[certified].max(initial=0.0)), measured(b_res))
        spec._set_verdict(tol, SpecBounds(id_res, star_res, hom_bound, bound))
        return SpecValidationReport(
            id_res, mult_res, star_res, max(comp_res, b_res), pairs_checked
        )

    first = None  # (i, j, k, |residual|) of the first failing pair, row-major
    for k, pairs, g, h in _meet_groups(spec, rows_of):
        if first is not None and pairs[0] > first[:2]:
            break
        diff = residuals(k, g, h)
        if diff is None:
            continue
        r = diff.reshape(len(pairs), -1).max(axis=1, initial=0.0)
        bad = np.flatnonzero(~(r <= tol))
        if bad.size and (first is None or pairs[bad[0]] < first[:2]):
            first = (*pairs[bad[0]], k, diff[bad[0]])
        b_res = max(b_res, float(r.max()))
    if first is not None:
        raise_first_offender(*first)
    spec._set_verdict(tol, SpecBounds(id_res, star_res, hom_bound, b_res))
    return SpecValidationReport(id_res, mult_res, star_res, b_res, pairs_checked)


def _zero_one_table(spec):
    """The table of the exact route of validate_spec, or None where it
    does not apply.

    It applies when every block of every component is 1 x 1 and pi is
    exactly 0/1 (real, no NaN), its diagonal blocks are identities and
    each row of each block holds at most one 1. A 0/1 matrix C^a -> C^b
    maps the minimal projections e_p to 0/1 vectors, which multiply
    entrywise; it is a *-hom iff the images of e_p and e_q are disjoint
    for p != q, that is iff each row holds at most one 1. Then every
    residual of the identity and *-hom checks is exactly 0. table[t, j]
    is the coordinate of A_j at which row t of pi reads 1, or -1 where it
    reads none.
    """
    pi = spec.pi
    if not components_commutative(spec) or pi.imag.any():
        return None
    b = pi.real == 1
    if not (b | (pi.real == 0)).all():
        return None
    owner = _owners(spec.components)
    if not np.array_equal(b & (owner[:, None] == owner), np.eye(owner.size, dtype=bool)):
        return None
    r, c = np.nonzero(b)
    key = r * spec.L.n + owner[c]  # ascending: row-major, owners ascend
    if (np.diff(key) == 0).any():
        return None
    table = np.full((owner.size, spec.L.n), -1)
    table.flat[key] = c
    return table


def _zero_one_failure(spec, table):
    """The first ordered pair (i, j), row-major, at which the 0/1 pi of
    _zero_one_table fails axiom (b), or None when it holds.

    For coordinates x of A_i and y of A_j, k = i ^ j and B = pi, axiom (b)
    on the minimal projections e_x, e_y reads, products entrywise,
        B[:, span k] (B[span k, x] B[span k, y]) = B[:, x] B[:, y]:
    e_x e_y = sum over z in span k of B[z, x] B[z, y] e_z, and pi is
    multiplicative there. Each row of B[:, span k] holds at most one 1,
    so the left side is the OR of the columns z of span k with
    table[z, i] = x and table[z, j] = y. With the columns of B packed into
    bitsets over the rows, the (z, i, j) with z in span(i ^ j) are sorted
    by (x, y) once, and each run of equal (x, y) ORs its columns into one
    left side; a broadcast AND forms the right sides. Both are compared a
    step of x at a time, each step holding about _BITSET_STEP_WORDS words,
    so there is no Python loop over pairs and no array of D^3 entries,
    D = total_dim. Rows below k are where the two sides can differ; the
    rows of k agree because B's diagonal blocks are identities, and every
    other row is 0 on both sides.
    """
    n, dim = spec.L.n, spec.total_dim
    dims = np.array([c.dim for c in spec.components], dtype=np.intp)
    meet = spec.L.meet.reshape(-1)
    reps = dims[meet]
    i, j = np.divmod(np.repeat(np.arange(n * n), reps), n)  # once per z
    z = np.arange(i.size)
    z -= np.repeat(np.cumsum(reps) - reps - spec.offsets[meet], reps)
    x, y = table[z, i], table[z, j]
    # these index arrays, one entry per (i, j, z), are the largest the
    # route holds outside its steps: free each once it is read
    del i, j
    hit = (x >= 0) & (y >= 0)
    key = x[hit] * dim + y[hit]
    del x, y
    order = np.argsort(key, kind="stable")
    key, z = key[order], z[hit][order]
    del order, hit
    first_of_run = np.ones(key.size, dtype=bool)  # of a run of equal keys
    first_of_run[1:] = key[1:] != key[:-1]
    packed = np.packbits(spec.pi.real == 1, axis=0).T  # column t of B, bytes over the rows
    cols = np.zeros((dim, -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    cols[:, : packed.shape[1]] = packed
    cols = cols.view(np.uint64)
    words = cols.shape[1]
    # steps of x: a new one starts where the running count of words (both
    # sides and the hit columns of each x) passes a multiple of the step
    step = np.cumsum((dim + np.bincount(key // dim, minlength=dim)) * words) // _BITSET_STEP_WORDS
    edges = [0, *(np.flatnonzero(step[1:] != step[:-1]) + 1).tolist(), dim]
    owner = _owners(spec.components)
    first = None  # i * n + j of the first failing pair found so far
    for x0, x1 in zip(edges, edges[1:]):
        if first is not None and owner[x0] * n > first:
            break
        a, b = np.searchsorted(key, [x0 * dim, x1 * dim])
        lhs = np.zeros(((x1 - x0) * dim, words), dtype=np.uint64)
        if a < b:
            runs = np.flatnonzero(first_of_run[a:b])
            lhs[key[a:b][runs] - x0 * dim] = np.bitwise_or.reduceat(cols[z[a:b]], runs)
        lhs = lhs.reshape(x1 - x0, dim, words)
        xs, ys = np.nonzero((lhs != cols[x0:x1, None] & cols).any(axis=2))
        if xs.size:
            found = int((owner[xs + x0] * n + owner[ys]).min())
            first = found if first is None else min(first, found)
    return None if first is None else divmod(first, n)


def require_verdict(spec, tol):
    """validate_spec(spec, tol), unless a verdict within tol is on record:
    the one test of spec.validated_tol against a tolerance. A NaN tol
    always validates."""
    if not spec.validated_tol <= tol:
        validate_spec(spec, tol)


def _gamma(n):
    """gamma_n = n u / (1 - n u), u the unit roundoff: the relative error
    bound of a real dot product of length n (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., SIAM 2002, ch. 3)."""
    nu = n * np.finfo(float).eps / 2
    return nu / (1 - nu)


def _squared_norms(a, subscripts="...r,...r->...", *weights):
    """|a|^2 summed as the einsum subscripts say, over the last axis by
    default, each term times the real weights."""
    real = np.einsum(subscripts, a.real, a.real, *weights)
    return real + np.einsum(subscripts, a.imag, a.imag, *weights)


def _composition_bounds(spec, hom_bound, star_bound):
    """validate_spec's composition route for axiom (b):
    (bound, residual, pair_bounds).

    pair_bounds() is the (n, n) array beta whose entry (i, j) bounds every
    entry of every basis-pair residual of axiom (b) at the ordered pair
    (i, j), over every m < i ^ j, as validate_spec computes it, given that
    every phi passed the *-hom check with Frobenius basis-pair residuals
    at most delta = hom_bound and star residuals at most
    sigma = star_bound; bound is the same bound with every measured term
    at its largest, at least every entry of beta, and costs no per-pair
    work. residual is the largest norm measured below: of D, of P - P^2
    and of W.

    The identity. For *-homs, with P = P_{m,k} = phi_{m,k}(1_k) and
    Q_i = Q_{m,i} = phi_{m,i}(1_i), axiom (b) holds iff
      (1) phi_{m,k} phi_{k,i} = P phi_{m,i}(-) = phi_{m,i}(-) P for all
          m <= k <= i, and
      (2) Q_i (1 - P) Q_j = 0 for all i, j and every m <= k = i ^ j.
    Necessity: axiom (b) at the pair (i, k), k <= i, with y = 1_k reads
    phi_{m,k}(phi_{k,i}(x)) = phi_{m,i}(x) P, and at (k, i) with x = 1_k
    it reads P phi_{m,i}(y): that is (1). At x = 1_i, y = 1_j its left
    side is, by (1), phi_{m,k}(phi_{k,i}(1_i)) phi_{m,k}(phi_{k,j}(1_j))
    = Q_i P P Q_j = Q_i P Q_j, so Q_i Q_j = Q_i P Q_j: that is (2). Given
    (1), x = 1_i makes P commute with Q_i, so (2) is also
    Q_i Q_j (1 - P) = 0. Sufficiency: by (1) and P^2 = P,
    phi_{m,k}(phi_{k,i}(x) phi_{k,j}(y)) = phi_{m,i}(x) P phi_{m,j}(y);
    expanding phi_{m,i}(x) (1 - P) phi_{m,j}(y) with phi_{m,i}(x)
    = phi_{m,i}(x) Q_i and phi_{m,j}(y) = Q_j phi_{m,j}(y) shows that the
    two sides of axiom (b) differ by phi_{m,i}(x) Q_i (1 - P) Q_j
    phi_{m,j}(y) = 0. For unital maps (2) holds trivially and (1) reads
    pi_{m,i} = pi_{m,k} pi_{k,i}. At m = k the residual validate_spec
    forms is 0, so only m < k is measured.

    What is measured, for each k over the rows of every m < k at once,
    with P and every Q_t computed as pi_{m,t} vec(1_t), exact elements of
    A_m once computed, so that the expansion below holds for them as they
    are: for the columns X of pi_{m,i}, i >= k, and G of
    pi_{m,k} pi_{k,i}, the (1) residual D = G - X P; P - P^2; and for the
    pairs (i, j) with meet k that are not comparable the (2) residual
    W = Q_i (1 - P) Q_j. For a comparable pair P is Q_i or Q_j, and
    W = (P - P^2) Q_j or Q_i (P - P^2). The other half of (1), C = G - P X,
    is D at x* taken adjoint, up to star residuals: with sigma,
    G(x) - G(x*)* is phi_{m,k} of the star residual of phi_{k,i} at x*
    plus the star residuals of phi_{m,k} on the coefficients of
    phi_{k,i}(x*), and P X(x) - (X(x*) P)* = (P - P*) X(x)
    + P* (X(x) - X(x*)*). A Frobenius norm over the rows of every m < k
    bounds that of each m's part: rho_ik is the largest of D over the
    columns of A_i, and eta_k and omega_ij those of P - P^2 and W. The k
    go in steps of consecutive k whose arrays hold about
    _COMPOSITION_STEP entries, each step one batched matmul and one
    pair_products call, and a second for W when a pair is not comparable.

    The bound. Take x = E_a in A_i, y = E_b in A_j, k = i ^ j, m < k,
    u = phi_{k,i}(x), v = phi_{k,j}(y), X = phi_{m,i}(x), Y = phi_{m,j}(y)
    and V = phi_{m,k}(v), so that D = phi_{m,k}(u) - X P and C = V - P Y.
    Expanding phi_{m,k}(u) V = (X P + D) V with P V = V - (V - P V) and
    V = P Y + C gives, exactly,
        phi_{m,k}(uv) - X Y = H + X C - X (V - P V) + D V - X W Y
            - X Q_i (1 - P) (Y - Q_j Y) - (X - X Q_i) (1 - P) Y,
    H = phi_{m,k}(uv) - phi_{m,k}(u) phi_{m,k}(v). The operator norm of a
    term bounds its entries, and a Frobenius norm bounds an operator norm;
    ||P|| <= q and ||1 - P|| <= 1 + q. Every index here, k, i or j, has something
    below it. nu, the largest column 2-norm of pi, bounds ||X||, ||Y||,
    ||u|| and ||v||; l1, the largest l1 norm of a column of pi within the
    rows of one such index, bounds the l1 norms |u|_1, |v|_1 of their
    coefficients; F = sqrt(dim) nu, dim the largest component dimension,
    bounds every ||pi_{m,k}||_F; s is the largest side of such an index
    and q the largest ||Q_t||_F. These image norms take the place of the
    bound 5/4 on them of the matrix-unit generator route this one
    replaced, which needed tol <= 1/16. Then:
      - ||H|| <= delta |u|_1 |v|_1 <= delta l1^2, by bilinearity;
      - V - phi_{m,k}(1_k) V is the sum over the diagonal units e of A_k
        of phi_{m,k}(e v) - phi_{m,k}(e) phi_{m,k}(v), at most
        s delta l1; X - X phi_{m,i}(1_i) and Y - phi_{m,j}(1_j) Y are at
        most s delta likewise;
      - ||C|| <= rho_jk + sigma (l1 + F + s nu + q), and
        ||V|| <= ||C|| + q nu;
      - ||W|| <= omega_ij, or q eta_k for a comparable pair.
    Rounding (Higham, ch. 3 of the book cited at _gamma). A computed
    complex product of matrices A B, whose dot products have at most
    2 dim + 2 nonzero terms (zero terms add no error), is within
    g ||A||_F ||B||_F of A B in Frobenius norm for
    g = sqrt(2) gamma_{2 dim + 32}; the last 30 cover the few operations
    of a norm's square root and of each term below, as the factor
    (1 + g)^8 on the sum does for the relative errors of the norms and
    differences. This adds
    a = g nu (F + q) to D; g F sqrt(s) to the distance of the computed
    P and Q_t from the units' images, which enters where the expansion
    used them, and twice to ||P - P*||; g q^2 to P - P^2;
    3 g q^2 (1 + q) to W, formed as (Q_i - Q_i P) Q_j; and
    g (3 F + 1) nu^2 for the rounding of the residual validate_spec forms
    from fl(uv), its image under pi_{m,k} and fl(XY). Where pi is exactly
    0/1, every product and sum here is an exact integer, and g = 0 but
    for the factor. So, with e = s delta + g F sqrt(s) nu,
    c = rho_jk + a + sigma (l1 + F + s nu + q) + 2 g F sqrt(s) nu and
    V' = c + q nu,
        beta_ij <= (1 + g)^8 (nu c + (rho_ik + a) V' + nu^2 omega'_ij
            + delta l1 (l1 + nu s) + nu g F sqrt(s) V'
            + (q + 1)^2 nu e + g (3 F + 1) nu^2),
    omega'_ij the bound on ||W|| above with its rounding. The bound with
    rho_ik, rho_jk and omega'_ij at their largest is at least every
    beta_ij; validate_spec computes the beta_ij only when it exceeds tol.
    """
    L, pi, comps = spec.L, spec.pi, spec.components
    n, total = L.n, spec.total_dim
    owner = _owners(comps)
    dims = np.array([c.dim for c in comps])
    starts, ends = spec.offsets.tolist(), (spec.offsets + dims).tolist()
    g = math.sqrt(2) * _gamma(2 * int(dims.max()) + 32)
    grow = (1 + g) ** 8
    if not pi.imag.any() and ((pi.real == 0) | (pi.real == 1)).all():
        g = 0.0
    member = owner == np.arange(n)[:, None]  # index t owns coordinate c
    below = L.le & ~np.eye(n, dtype=bool)  # [m, k]: m < k
    ks = np.flatnonzero((below & (dims > 0)[:, None]).any(axis=0))
    unit = np.concatenate([np.eye(d).reshape(-1) for c in comps for d in c.blocks])
    q_all = pi @ (member * unit).T  # [span m, t]: Q_{m,t} = pi_{m,t} vec(1_t)
    absp = np.abs(pi)
    nu = math.sqrt((absp**2).sum(axis=0).max())
    l1 = float((member[ks] @ absp).max(initial=0.0))
    q = math.sqrt(_squared_norms(q_all.T).max())
    s = max((comps[k].side for k in ks.tolist()), default=0)
    big_f = math.sqrt(dims.max()) * nu
    root_s = math.sqrt(s)
    e = s * hom_bound + g * big_f * root_s * nu

    def bound(rho_i, rho_j, omega):
        a = g * nu * (big_f + q)
        c = rho_j + a + star_bound * (l1 + big_f + s * nu + q) + 2 * g * big_f * root_s * nu
        v = c + q * nu
        return grow * (
            nu * c + (rho_i + a) * v + nu**2 * omega
            + hom_bound * l1 * (l1 + nu * s) + nu * g * big_f * root_s * v
            + (q + 1) ** 2 * nu * e + g * (3 * big_f + 1) * nu**2
        )

    step = max(1, _COMPOSITION_STEP // max(total, 1) ** 2)
    # the pairs, row-major, whose meet is in ks and which are not
    # comparable, and the step of their meet
    meets = L.meet.reshape(-1)
    in_ks = np.zeros(n, dtype=bool)
    in_ks[ks] = True
    apart = np.flatnonzero(~(L.le | L.le.T).reshape(-1) & in_ks[meets])
    apart_step = np.searchsorted(ks, meets[apart]) // step
    steps = []  # per step: owners of the columns, rho [k, c], eta [k], W of the pairs apart
    residual = rho_max = omega_max = 0.0
    for first in range(0, ks.size, step):
        chunk = ks[first : first + step]
        kn = chunk.size
        # the coordinates of the indices from the first to the last one
        # below a k of the step (rows), above one (columns), and from the
        # first k to the last (span)
        ms = np.flatnonzero(below[:, chunk].any(axis=1)).tolist()
        ups = np.flatnonzero(L.le[chunk].any(axis=0)).tolist()
        rows = slice(starts[ms[0]], ends[ms[-1]])
        cols = slice(starts[ups[0]], ends[ups[-1]])
        span = slice(starts[chunk[0]], ends[chunk[-1]])
        shape = AlgebraShape([d for c in comps[ms[0] : ms[-1] + 1] for d in c.blocks])
        ok = below[owner[rows]][:, chunk].T  # [k, r]: rows of an index below k
        # [k, r, c]: G, through the coordinates of span k alone
        gt = (pi[rows, span] * (owner[span] == chunk[:, None])[:, None, :]) @ pi[span, cols]
        cn = gt.shape[2]
        q_rows = q_all[rows]
        right = fd.pair_products(shape, np.hstack([pi[rows, cols], q_rows]), q_rows[:, chunk])
        # [c, k]: X P, then [t, k]: Q_t P
        rho = _squared_norms(gt - right[:cn].transpose(1, 2, 0), "krc,krc,kr->kc", ok)
        rho = np.sqrt(rho) * L.le[chunk][:, owner[cols]]  # columns of an index above k
        eta = q_rows[:, chunk].T - right[cn + chunk, np.arange(kn)]  # P - P^2
        eta = np.sqrt(_squared_norms(eta, "kr,kr,kr->k", ok))
        ii, jj = np.divmod(apart[apart_step == first // step], n)
        w = np.zeros(0)
        if ii.size:
            kk = np.searchsorted(chunk, L.meet[ii, jj])
            y = q_rows[:, ii] - right[cn + ii, kk].T  # Q_i (1 - P)
            w = fd.pair_products(shape, y.T[:, :, None], q_rows[:, jj].T[:, :, None])[:, 0, 0]
            w = np.sqrt(_squared_norms(w * ok[kk]))
        steps.append((owner[cols], rho, eta, w))
        rho_max = max(rho_max, float(rho.max(initial=0.0)))
        residual = max(residual, rho_max, float(eta.max()), float(w.max(initial=0.0)))
        omega_max = max(omega_max, q * (float(eta.max()) + g * q**2))
        omega_max = max(omega_max, float(w.max(initial=0.0)) + 3 * g * q**2 * (1 + q))

    def pair_bounds():
        """(beta, measured): beta from each step's largest residuals per
        index and pair; measured(r) bounds every computation of a
        basis-pair residual that validate_spec computes as r, each within
        g (3 F + 1) nu^2 of the exact one."""
        beta = np.zeros((n, n))
        pairs = np.flatnonzero(in_ks[meets])
        pair_step = np.searchsorted(ks, meets[pairs]) // step
        for first, (col_owner, rho, eta, w) in zip(range(0, ks.size, step), steps):
            chunk = ks[first : first + step]
            per_index = np.zeros((n, chunk.size))  # [i, k]: the largest over the columns of A_i
            np.maximum.at(per_index, col_owner, rho.T)
            ii, jj = np.divmod(pairs[pair_step == first // step], n)
            kk = np.searchsorted(chunk, L.meet[ii, jj])
            omega = q * (eta[kk] + g * q**2)  # (P - P^2) Q_j or Q_i (P - P^2)
            omega[~(L.le[ii, jj] | L.le[jj, ii])] = w + 3 * g * q**2 * (1 + q)
            beta[ii, jj] = bound(per_index[ii, kk], per_index[jj, kk], omega)
        return beta, lambda r: grow * (r + 2 * g * (3 * big_f + 1) * nu**2)

    return float(bound(rho_max, rho_max, omega_max)), residual, pair_bounds


# --------------------------------------------------------- total algebra

def gmul(x, y):
    """(xy)_k = sum over i ^ j = k of q_{i,j}(x_i, y_j)."""
    _same_spec(x, y)
    spec = x.spec
    out = spec.zero_element()
    for i in x.support():
        for j in y.support():
            k = spec.L.meet[i, j]
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
        if target.L is not L and not np.array_equal(target.L.meet, L.meet):
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
    require_verdict(spec, tol)
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
    M = spec.L.indices(M)
    if not spec.L.is_subsemilattice(M):
        raise InputError(f"{M} is not meet-closed")
    new_of = np.full(spec.L.n, -1, dtype=np.intp)  # old index -> new index, -1 off M
    new_of[M] = np.arange(len(M))
    # a meet-closed subset of a checked semilattice is one: no check
    subL = Semilattice._of_table(
        new_of[spec.L.meet[np.ix_(M, M)]], [spec.L.names[a] for a in M], spec.L.le[np.ix_(M, M)]
    )
    coords = new_of[_owners(spec.components)] >= 0
    sub = GradedSpec._of_pi(
        subL, [spec.components[a] for a in M], spec.pi[np.ix_(coords, coords)]
    )
    sub._set_verdict(spec.validated_tol, spec.validated_bounds)
    return sub, {old: int(new_of[old]) for old in M}


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
        M = frozenset(spec.L.indices(M))
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

    The quotient inherits the spec's verdict and bounds when no entry
    leaks at all (max_leak == 0.0), and is validated at tol otherwise.
    Let P be the projection onto the unselected blocks, at every index:
    it keeps whole blocks, so it is central and P(uv) = P(u) P(v),
    P(u*) = P(u)*. With nothing leaking, phi_{m,k}(I_k) lies in I_m
    exactly, so P phi_{m,k} = P phi_{m,k} P: the quotient's maps are
    P phi P and its products P(u) P(v) = P(uv). Each residual that the
    quotient's validation forms, at a basis element or pair of the
    quotient (one of the spec's, in an unselected block), is then P
    applied to the spec's residual at the same element or pair, so no
    entry or Frobenius norm of it exceeds the spec's bounds.
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
    require_verdict(spec, tol)

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
    max_leak = float(leaks.max(initial=0.0))
    if max_leak == 0.0:
        quotient._set_verdict(spec.validated_tol, spec.validated_bounds)
    else:
        validate_spec(quotient, tol)
    return IdealGradationReport(int(dropped.sum()), max_leak, quotient, quotient_maps)


# -------------------------------------------------------- commutativity

def components_commutative(spec):
    """Shape test: every block of every component is 1 x 1."""
    return all(all(d == 1 for d in c.blocks) for c in spec.components)


def total_commutative(spec):
    """Basis test on the total algebra: xy = yx for all basis pairs."""
    for i, a, _ in spec.graded_basis():
        xa = spec.basis_element(i, a)
        for j, b, _ in spec.graded_basis():
            yb = spec.basis_element(j, b)
            d = gmul(xa, yb) - gmul(yb, xa)
            if any(not fd.frob_norm(c) <= AXIOM_TOL for c in d.comps):
                return False
    return True


# --------------------------------------------- chain-closure convenience

def covering_pairs(L):
    """(i, j) with i < j and nothing strictly between."""
    lt = (L.le & ~np.eye(L.n, dtype=bool)).astype(float)
    cover = (lt > 0) & ~(lt @ lt > 0)
    return list(zip(*(a.tolist() for a in np.nonzero(cover))))


def complete_phi_by_chains(L, components, partial):
    """Fill in phi for all comparable pairs from covering-pair data.

    Path independence on chains, which the compatibility axiom demands,
    is checked by induction on interval length. Taking the pairs i < j by
    |[i, j]|, ties lexicographic, C_{i,j} = phi_{i,t} C_{t,j} (C_{j,j} the
    identity, phi_{i,t} a given covering map) must agree for every cover t
    of i below j, and a given phi_{i,j} with the first cover's C_{i,j}.
    Every chain from i to j steps to a cover t and then runs from t to j,
    so every chain's composition agrees with C_{i,j}. Disagreement is a
    hard error; the result is the given map where there is one, else
    C_{i,j}. Each step compares within AXIOM_TOL, so two chains of depth
    d can differ by up to about d x AXIOM_TOL and pass, where comparing
    each chain with the first would refuse them.
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
    chain = {(i, i): np.eye(c.dim, dtype=complex) for i, c in enumerate(components)}
    for i, j in zip(ii[order].tolist(), jj[order].tolist()):
        # covers come first, so each is shape-checked here before any use
        h = partial.get((i, j))
        if h is not None and (h.source, h.target) != (components[j], components[i]):
            raise fd.ShapeMismatch(
                f"given phi for ({L.names[i]}, {L.names[j]}) maps "
                f"{h.source} -> {h.target}, its chain composition "
                f"{components[j]} -> {components[i]}"
            )
        base, *others = [partial[(i, t)].matrix @ chain[(t, j)] for t in up[i] if le[t, j]]
        for m in others:
            r = fd.maxabs(base - m)
            if not r <= AXIOM_TOL:
                raise PathDependence(
                    f"chain compositions for ({L.names[i]}, {L.names[j]}) "
                    f"disagree by {r:.3e}"
                )
        chain[(i, j)] = base
        if h is not None:
            r = fd.maxabs(base - h.matrix)
            if not r <= AXIOM_TOL:
                raise PathDependence(
                    f"given phi for ({L.names[i]}, {L.names[j]}) disagrees "
                    f"with its chain composition by {r:.3e}"
                )
    return {
        (i, j): partial[(i, j)] if i != j and (i, j) in partial
        else StarHom(components[j], components[i], chain[(i, j)])
        for i, j in L.comparable_pairs()
    }
