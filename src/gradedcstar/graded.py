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
and block-sum ideals with their quotient specs.
"""

from dataclasses import dataclass, field

import numpy as np

from . import findim as fd
from .errors import InputError, ValidationFailure
from .findim import AlgebraShape, StarHom

AXIOM_TOL = 1e-9
NORM_RTOL = 1e-8


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
    validated_tol is the smallest tolerance validate_spec has passed the
    spec at, inf before any pass. Immutable by convention: pi and that
    verdict describe the maps as they were.
    """

    def __init__(self, L, components, phi):
        components = tuple(components)
        if len(components) != L.n:
            raise SpecMismatch(f"{len(components)} components for {L.n} indices")
        for c in components:
            if not isinstance(c, AlgebraShape):
                raise SpecMismatch(f"component {c!r} is not an AlgebraShape")
        self.L = L
        self.components = components
        full = {}
        comparable = set(L.comparable_pairs())
        for (i, j), h in phi.items():
            if (i, j) not in comparable:
                raise SpecMismatch(
                    f"phi given for non-comparable pair ({L.names[i]}, {L.names[j]})"
                )
            if h.source != components[j] or h.target != components[i]:
                raise fd.ShapeMismatch(
                    f"phi[{L.names[i]},{L.names[j]}] maps {h.source} -> {h.target}, "
                    f"expected {components[j]} -> {components[i]}"
                )
            full[(i, j)] = h
        for i, j in comparable:
            if (i, j) in full:
                continue
            if i == j:
                full[(i, j)] = fd.identity_hom(components[i])
            else:
                raise MissingHom(
                    f"no structure morphism for {L.names[i]} <= {L.names[j]}"
                )
        self.phi = full
        self.offsets = []
        off = 0
        for c in components:
            self.offsets.append(off)
            off += c.dim
        self.total_dim = off
        self._pi = None
        self.validated_tol = np.inf

    def structure_map(self, i, j):
        """phi_{i,j}: A_j -> A_i for i <= j."""
        try:
            return self.phi[(i, j)]
        except KeyError:
            raise MissingHom(
                f"({self.L.names[i]}, {self.L.names[j]}) is not comparable"
            ) from None

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

    @property
    def pi(self):
        """Matrix of x -> (pi_t(x))_t over the graded basis, total_dim
        square and read-only: block (t, j) is phi_{t,j} for t <= j and 0
        otherwise, so rows span(t) are pi_t. Built on first use."""
        if self._pi is None:
            pi = np.zeros((self.total_dim, self.total_dim), dtype=complex)
            for (t, j), h in self.phi.items():
                pi[self.span(t), self.span(j)] = h.matrix
            pi.flags.writeable = False
            self._pi = pi
        return self._pi

    def __repr__(self):
        dims = [c.dim for c in self.components]
        return f"GradedSpec({self.L!r}, component dims {dims})"


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
    the stacks one pair_products call takes. A group of one pair gets its
    slices without a gather when left is None.
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

    @classmethod
    def from_spec(cls, spec):
        tensors = {}
        for k, pairs, g, h in _meet_groups(spec, spec.span):
            prod = fd.pair_products(spec.components[k], g, h)
            for pair, t in zip(pairs, prod):
                tensors[pair] = t.transpose(2, 0, 1)
        return cls(spec.L, spec.components, tensors)

    def apply(self, i, j, x, y):
        v = np.einsum(
            "uab,a,b->u", self.tensors[(i, j)], fd.to_vector(x), fd.to_vector(y)
        )
        return fd.from_vector(self.components[self.L.meet_of(i, j)], v)

    def validate(self, tol=AXIOM_TOL):
        """Check a') q_{i,i} = multiplication, b') the adjoint symmetry,
        c') the mixed associativity q(q(x,y),z) = q(x,q(y,z))."""
        L, comps = self.L, self.components
        n = L.n
        for i in range(n):
            t = self.tensors[(i, i)]
            a, b, c = fd.unit_products(comps[i])
            want = np.zeros_like(t)
            want[c, a, b] = 1.0
            r = fd.maxabs(t - want)
            if not r <= tol:
                raise QAxiomViolation(
                    f"q_{{i,i}} is not multiplication at index {L.names[i]}, "
                    f"residual {r:.3e}"
                )
        for i in range(n):
            for j in range(n):
                k = L.meet_of(i, j)
                pi = fd.adjoint_permutation(comps[i])
                pj = fd.adjoint_permutation(comps[j])
                pk = fd.adjoint_permutation(comps[k])
                t = self.tensors[(i, j)]
                s = self.tensors[(j, i)]
                # q_{i,j}(E_a, E_b) = q_{j,i}(E_b*, E_a*)*
                want = np.conj(s[np.ix_(pk, pj, pi)]).transpose(0, 2, 1)
                r = fd.maxabs(t - want)
                if not r <= tol:
                    raise QAxiomViolation(
                        f"adjoint symmetry fails for pair "
                        f"({L.names[i]}, {L.names[j]}), residual {r:.3e}"
                    )
        for i in range(n):
            for j in range(n):
                ij = L.meet_of(i, j)
                for k in range(n):
                    jk = L.meet_of(j, k)
                    lhs = np.einsum(
                        "wuc,uab->wabc",
                        self.tensors[(ij, k)],
                        self.tensors[(i, j)],
                        optimize=True,
                    )
                    rhs = np.einsum(
                        "wau,ubc->wabc",
                        self.tensors[(i, jk)],
                        self.tensors[(j, k)],
                        optimize=True,
                    )
                    r = fd.maxabs(lhs - rhs)
                    if not r <= tol:
                        raise QAxiomViolation(
                            f"associativity fails at indices "
                            f"({L.names[i]}, {L.names[j]}, {L.names[k]}), "
                            f"residual {r:.3e}"
                        )
        return True


def q_family_from_spec(spec):
    """Assemble the full bilinear family from the structure morphisms."""
    return QFamily.from_spec(spec)


def phi_from_q(q, tol=AXIOM_TOL):
    """Recover the structure morphisms: phi_{i,j}(y) = q_{j,i}(y, 1_{A_i}).

    Valid because every component is unital. The q family is validated
    first; the output passes validate_spec whenever q satisfies its axioms.
    """
    q.validate(tol)
    phi = {}
    for i, j in q.L.comparable_pairs():
        unit_vec = fd.to_vector(fd.unit(q.components[i]))
        m = np.einsum("uab,b->ua", q.tensors[(j, i)], unit_vec)
        phi[(i, j)] = StarHom(q.components[j], q.components[i], m)
    return phi


def spec_from_q(q, tol=AXIOM_TOL):
    spec = GradedSpec(q.L, q.components, phi_from_q(q, tol))
    validate_spec(spec, tol)
    return spec


# ------------------------------------------------------------- validation

@dataclass
class SpecValidationReport:
    identity_residual: float
    hom_mult_residual: float
    hom_star_residual: float
    axiom_b_residual: float
    pairs_checked: int


def validate_spec(spec, tol=AXIOM_TOL):
    """Numeric validation of the grading axioms.

    Checks phi_{i,i} = id, that every phi is a *-homomorphism, and the
    two-variable compatibility axiom for every (i, j) and every m below
    i ^ j. The last two run on matrix-unit generators first (see
    fd.check_starhoms and _axiom_b_kappas) and over every canonical basis
    pair when those cannot certify them; the basis-pair checks decide
    every failure. Raises on the first failure; returns the max residuals
    of the checks that decided on success, and records tol on the spec
    as validated_tol. A NaN residual fails.
    """
    L = spec.L
    id_res = 0.0
    for i in range(L.n):
        h = spec.structure_map(i, i)
        r = fd.maxabs(h.matrix - np.eye(spec.components[i].dim))
        if not r <= tol:
            raise AxiomAViolation(
                f"phi[{L.names[i]},{L.names[i]}] differs from the identity "
                f"by {r:.3e}"
            )
        id_res = max(id_res, r)

    # *-homs, one stacked check per (source, target) shape pair; the
    # first failing map in key order is named
    groups = {}
    for key, h in spec.phi.items():
        groups.setdefault((h.source, h.target), []).append(key)
    mult_res = star_res = hom_bound = 0.0
    failing = {}
    for (source, target), keys in groups.items():
        mats = np.stack([spec.phi[key].matrix for key in keys])
        star, mult, bound, failures = fd.check_starhoms(source, target, mats, tol)
        failing.update({keys[p]: e for p, e in failures.items()})
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
    pi = spec.pi
    comps = spec.components
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
            spec.validated_tol = min(spec.validated_tol, tol)
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
                flat = int(block.reshape(-1).argmax())
                a, b = divmod(flat // comps[m].dim, comps[j].dim)
                raise AxiomBViolation(
                    L.names[i], L.names[j], L.names[m],
                    spec.basis_label(i, a), spec.basis_label(j, b), r,
                )
    spec.validated_tol = min(spec.validated_tol, tol)
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

    Every psi_i must already be a *-homomorphism; the compatibility (plain
    target) or intertwining (graded target) condition is checked on all
    basis pairs and failures name the offending pair.
    """
    m = GradedMorphism(spec, target, psi)
    L = spec.L
    if m.graded_target:
        if target.L is not L and target.L.meet != L.meet:
            raise SpecMismatch("graded target lives over a different semilattice")
        for i in range(L.n):
            h = m.psi[i]
            if h.source != spec.components[i] or h.target != target.components[i]:
                raise fd.ShapeMismatch(
                    f"psi[{L.names[i]}] maps {h.source} -> {h.target}"
                )
            fd.validate_starhom(h, tol)
        for i, j in L.comparable_pairs():
            lhs = m.psi[i].matrix @ spec.structure_map(i, j).matrix
            rhs = target.structure_map(i, j).matrix @ m.psi[j].matrix
            r = fd.maxabs(lhs - rhs)
            if not r <= tol:
                raise IncompatibleFamily(
                    f"psi does not intertwine structure maps at pair "
                    f"({L.names[i]}, {L.names[j]}), residual {r:.3e}"
                )
        return m
    for i in range(L.n):
        h = m.psi[i]
        if h.source != spec.components[i] or h.target != target:
            raise fd.ShapeMismatch(f"psi[{L.names[i]}] maps {h.source} -> {h.target}")
        fd.validate_starhom(h, tol)
    q = q_family_from_spec(spec).tensors
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
                raise IncompatibleFamily(
                    f"psi_{{j^k}}(xy) != psi_j(x) psi_k(y) at "
                    f"({spec.basis_label(j, a)}, {spec.basis_label(k, b)}), "
                    f"residual {resid[a, b]:.3e}"
                )
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
    ker_dims = [fd.kernel_dim(h) for h in m.psi]
    image_dims = [fd.rank(h.matrix) for h in m.psi]
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
    spec's validated_tol."""
    M = sorted(set(M))
    if not spec.L.is_subsemilattice(M):
        raise InputError(f"{M} is not meet-closed")
    remap = {old: new for new, old in enumerate(M)}
    table = [[remap[spec.L.meet_of(a, b)] for b in M] for a in M]
    names = [spec.L.names[a] for a in M]
    from .semilattice import Semilattice

    subL = Semilattice(table, names)
    comps = [spec.components[a] for a in M]
    phi = {(i, j): spec.structure_map(M[i], M[j]) for i, j in subL.comparable_pairs()}
    sub = GradedSpec(subL, comps, phi)
    sub.validated_tol = spec.validated_tol
    return sub, remap


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

    # in_ideal[i][a]: basis element a of A_i lies in a selected block
    in_ideal = []
    for i, c in enumerate(spec.components):
        block_of = np.repeat(range(c.nblocks), [d * d for d in c.blocks])
        in_ideal.append(np.isin(block_of, list(selection[i])))
    ideal_basis = [(j, b) for j in range(L.n) for b in np.flatnonzero(in_ideal[j])]
    ideal_dim = len(ideal_basis)

    # leaks[g, p] holds, for graded basis element g = E_a at i and ideal
    # basis element p = E_b at j, the largest unselected coordinate of
    # q_{i,j}(E_a, E_b) and then of q_{j,i}(E_b, E_a), both in A_{i^j};
    # a NaN coordinate makes the leak NaN
    q = q_family_from_spec(spec).tensors
    leaks = np.zeros((spec.total_dim, ideal_dim, 2))
    start = 0
    for j in range(L.n):
        ideal = np.flatnonzero(in_ideal[j])
        if not ideal.size:
            continue
        cols = slice(start, start + ideal.size)
        start += ideal.size
        for i in range(L.n):
            out = ~in_ideal[L.meet_of(i, j)]
            left = np.abs(q[(i, j)][out][:, :, ideal]).max(axis=0, initial=0.0)
            right = np.abs(q[(j, i)][out][:, ideal]).max(axis=0, initial=0.0)
            leaks[spec.span(i), cols] = np.stack([left, right.T], axis=-1)
    bad = np.flatnonzero(~(leaks <= tol))
    if bad.size:
        g, p, _ = np.unravel_index(bad[0], leaks.shape)
        i, a, _ = spec.graded_basis()[g]
        j, b = ideal_basis[p]
        raise NotAnIdeal(
            f"product of {spec.basis_label(i, a)} and "
            f"{spec.basis_label(j, b)} leaves the selected blocks "
            f"by {leaks.flat[bad[0]]:.3e}"
        )
    max_leak = float(leaks.max(initial=0.0))

    # quotient: drop the selected blocks, compress the structure maps
    quot_comps = [
        AlgebraShape([d for blk, d in enumerate(c.blocks) if blk not in selection[i]])
        for i, c in enumerate(spec.components)
    ]
    keep_coords = [np.flatnonzero(~sel) for sel in in_ideal]

    quot_phi = {}
    for (i, j), h in spec.phi.items():
        sub = h.matrix[np.ix_(keep_coords[i], keep_coords[j])]
        dropped = np.flatnonzero(in_ideal[j])
        if dropped.size:
            # well-definedness on the quotient: phi must map the ideal
            # coordinates at j into the ideal coordinates at i
            leak = fd.maxabs(h.matrix[np.ix_(keep_coords[i], dropped)])
            if not leak <= tol:
                raise NotAnIdeal(
                    f"phi[{L.names[i]},{L.names[j]}] maps the ideal outside "
                    f"itself by {leak:.3e}"
                )
        quot_phi[(i, j)] = StarHom(quot_comps[j], quot_comps[i], sub)
    quotient = GradedSpec(L, quot_comps, quot_phi)

    quotient_maps = [
        StarHom(
            spec.components[i],
            quot_comps[i],
            np.eye(spec.components[i].dim, dtype=complex)[keep_coords[i]],
        )
        for i in range(L.n)
    ]
    validate_spec(quotient, tol)
    return IdealGradationReport(ideal_dim, max_leak, quotient, quotient_maps)


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

    Composes along every maximal chain and insists the results agree to
    tol; disagreement is a hard error, since path independence is exactly
    what the compatibility axiom demands on chains.
    """
    covers = covering_pairs(L)
    for i, j in covers:
        if (i, j) not in partial:
            raise MissingHom(
                f"chain closure needs phi for covering pair "
                f"({L.names[i]}, {L.names[j]})"
            )
    up = {}
    for i, j in covers:
        up.setdefault(i, []).append(j)

    def paths(i, j):
        if i == j:
            return [[i]]
        out = []
        for t in up.get(i, []):
            if L.leq(t, j):
                out.extend([[i] + rest for rest in paths(t, j)])
        return out

    full = {}
    for i, j in L.comparable_pairs():
        if i == j:
            full[(i, j)] = fd.identity_hom(components[i])
            continue
        chains = paths(i, j)
        assert chains, (i, j)
        composed = []
        for chain_ in chains:
            h = fd.identity_hom(components[j])
            for a, b in reversed(list(zip(chain_, chain_[1:]))):
                h = fd.compose(partial[(a, b)], h)
            composed.append(h)
        base = composed[0]
        for other in composed[1:]:
            r = fd.maxabs(base.matrix - other.matrix)
            if not r <= tol:
                raise PathDependence(
                    f"chain compositions for ({L.names[i]}, {L.names[j]}) "
                    f"disagree by {r:.3e}"
                )
        if (i, j) in partial:
            given = partial[(i, j)]
            r = fd.maxabs(base.matrix - given.matrix)
            if not r <= tol:
                raise PathDependence(
                    f"given phi for ({L.names[i]}, {L.names[j]}) disagrees "
                    f"with its chain composition by {r:.3e}"
                )
            base = given
        full[(i, j)] = base
    return full
