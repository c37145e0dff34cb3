"""Characters of commutative graded algebras, and the surface invariants
of the polygon-identification example.

The total algebra is *-isomorphic to the sum of its components through
the unitriangular map Pi: x -> (pi_i(x))_i, so on commutative components
the characters are exactly the coordinates of Pi: graded_characters
returns the rows of Pi under the spec's verdict (gr.require_verdict)
rather than checking them again. When every component is the scalars and
every structure map the identity, character i is the indicator of the
upset of i, so the bijection with the nonempty finishing sub-semilattices
is one comparison of Pi with the order matrix, made before validation,
and restriction onto a cofinal sub-semilattice is one comparison of Pi's
columns with the sub-spec's Pi.
A brute-force enumeration through simultaneous diagonalization of a
generic multiplication operator stays as the oracle the tests compare
with. No command path calls it; it stays importable here because the
benchmark's tracer (perfbench/tracing.py) wraps brute_force_characters by
name and counts draws through this module's make_rng, and _product_table
and check_character stay because brute_force_characters calls them.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import findim as fd
from . import graded as gr
from .errors import DegenerateGenerator, InputError, ValidationFailure
from .seeding import make_rng, resolve_seed

CHAR_TOL = 1e-8
JOINT_EIGVEC_TOL = 1e-6
EIG_SEPARATION = 1e-7
RETRY_BUDGET = 8


class NotCommutative(InputError):
    pass


class ComponentNotCommutative(InputError):
    pass


class NotAllScalar(InputError):
    pass


class NotCofinal(InputError):
    pass


class NoLeastElement(InputError):
    pass


class OracleMismatch(ValidationFailure):
    pass


class BadN(InputError):
    pass


@dataclass(frozen=True)
class Character:
    """A multiplicative *-functional, stored by its values on the
    canonical basis of the total algebra.

    tag, when present, is (index i, coordinate t): the character factors
    as coordinate t of pi_i. finishing_set is filled in the all-scalar
    case.
    """

    values: np.ndarray
    tag: tuple = None
    finishing_set: frozenset = None

    def __call__(self, x):
        return complex(np.dot(self.values, gr.to_gvector(x)))


def _product_table(spec):
    """vec(E_g E_h) for all global basis pairs; shape (n, n, n).

    For E_g in A_i and E_h in A_j the product is q_{i,j}(E_g, E_h) in
    A_{i^j}, so each q tensor fills one block of the table.
    """
    n = spec.total_dim
    table = np.zeros((n, n, n), dtype=complex)
    span = spec.span
    for (i, j), t in gr.q_family_from_spec(spec).tensors.items():
        table[span(i), span(j), span(spec.L.meet[i, j])] = t.transpose(1, 2, 0)
    return table


def check_character(spec, values, table=None):
    """Max residual of multiplicativity and *-symmetry on basis pairs;
    the caller compares it with its tolerance."""
    if table is None:
        table = _product_table(spec)
    prod_vals = np.einsum("ghu,u->gh", table, values)
    outer = np.outer(values, values)
    mult = fd.maxabs(prod_vals - outer)
    perm = fd.adjoint_permutation(spec.ambient_shape())
    star = fd.maxabs(np.conj(values[perm]) - values)
    return fd.maxabs([mult, star])


def _sorted(chars):
    """Characters in lexicographic order of their values rounded to six
    decimals, real part before imaginary part, entry by entry; ties keep
    their order."""
    if not chars:
        return []
    values = np.asarray([c.values for c in chars])
    parts = np.stack([values.real, values.imag], axis=-1).reshape(len(chars), -1)
    # lexsort's last key is the primary one
    order = np.lexsort(np.round(parts, 6).T[::-1])
    return [chars[k] for k in order]


def brute_force_characters(spec, seed=None):
    """All characters of the total algebra, found by diagonalizing the
    multiplication operator of a generic self-adjoint element.

    The element is drawn from a deterministic stream; if its spectrum
    fails the separation threshold the draw is retried with a fresh salt,
    up to a fixed budget. Output order is lexicographic on rounded value
    vectors.
    """
    if not gr.total_commutative(spec):
        raise NotCommutative("total algebra is not commutative")
    n = spec.total_dim
    if n == 0:
        return []
    table = _product_table(spec)
    base = resolve_seed(seed)
    last = None
    for attempt in range(RETRY_BUDGET):
        rng = make_rng(base, 1, attempt)
        coeffs = gr.to_gvector(_random_hermitian(spec, rng))
        lmat = np.einsum("g,ghu->uh", coeffs, table)
        eigvals, eigvecs = np.linalg.eig(lmat)
        order = np.argsort(eigvals.real)
        eigvals, eigvecs = eigvals[order], eigvecs[:, order]
        gaps = np.diff(eigvals.real)
        if n > 1 and (gaps.min() < EIG_SEPARATION):
            last = f"eigenvalue gap {gaps.min():.3e} below {EIG_SEPARATION}"
            continue
        chars, failure = _read_characters(spec, table, eigvecs)
        if failure is not None:
            last = failure
            continue
        return _sorted(chars)
    raise DegenerateGenerator(
        f"no usable generic element after {RETRY_BUDGET} draws: {last}"
    )


def _random_hermitian(spec, rng):
    return gr.GradedElement(
        spec,
        [fd.random_element(c, rng, hermitian=True) for c in spec.components],
    )


def _read_characters(spec, table, eigvecs):
    n = spec.total_dim
    chars = []
    for t in range(n):
        w = eigvecs[:, t]
        w = w / np.linalg.norm(w)
        values = np.einsum("bhu,u,h->b", table, np.conj(w), w)
        # w must be a joint eigenvector of every basis multiplication
        resid = np.einsum("bhu,h->bu", table, w) - np.outer(values, w)
        if not fd.maxabs(resid) <= JOINT_EIGVEC_TOL:
            return None, f"eigenvector {t} is not a joint eigenvector"
        r = check_character(spec, values, table=table)
        if not r <= CHAR_TOL:
            return None, f"functional {t} fails character axioms by {r:.3e}"
        chars.append(Character(values=values))
    return chars, None


def graded_characters(spec, tol=CHAR_TOL):
    """One character per index i and coordinate t of A_i: coordinate t of
    pi_i, the row (i, t) of Pi, in row order.

    The rows are characters, pairwise distinct, once the spec is known to
    satisfy the axioms within tol, so they are returned without a product
    table; gr.require_verdict validates it here unless its verdict is
    within tol already.

    Multiplicativity: E_g E_h lies in A_k, k = i ^ j, for E_g in A_i and
    E_h in A_j. For m <= k the row residual |pi_m(E_g E_h) -
    pi_m(E_g) pi_m(E_h)| is axiom (b)'s residual at (i, j, m), which every
    commutative spec decides over all basis pairs (m = k holds by the
    definition of the product); for m not below k both sides vanish
    exactly, since m <= i and m <= j would put m below k.
    *-symmetry: every basis element of a commutative component is
    self-adjoint, so the row residual |conj pi_m(E_g) - pi_m(E_g)| is the
    *-hom residual of the structure map phi_{m,i}. Both are within tol
    (AXIOM_TOL <= CHAR_TOL on every command path).
    Distinctness: the diagonal blocks of Pi are identities within tol and
    block (i', i) is 0 unless i' <= i. Rows (i, t) and (i, t') differ by
    at least 1 - 2 tol at column (i, t); for i' not below i, row (i', t')
    is exactly 0 at column (i, t) where row (i, t) reads 1 within tol.
    """
    if not gr.components_commutative(spec):
        raise ComponentNotCommutative(
            "components must be commutative (all blocks 1x1)"
        )
    gr.require_verdict(spec, tol)
    return [
        Character(values=row.copy(), tag=(i, t))
        for i in range(spec.L.n)
        for t, row in enumerate(spec.pi[spec.span(i)])
    ]


def _require_all_scalar(spec):
    """NotAllScalar unless every component is the scalars and every
    structure map the identity within CHAR_TOL (a NaN fails), naming the
    first offending component, else the first pair in row-major order."""
    for c in spec.components:
        if c.blocks != (1,):
            raise NotAllScalar(f"component {c} is not the scalars")
    # every component is the scalars, so each map is one entry of Pi, and
    # Pi is 0 off the order
    bad = np.argwhere(~(np.abs(spec.pi - spec.L.le) <= CHAR_TOL))
    if bad.size:
        raise NotAllScalar(
            f"structure map for pair {tuple(bad[0].tolist())} is not the identity"
        )


def finishing_correspondence(spec):
    """For an all-scalar spec: pair every character with the index set
    where it equals 1. Pairs come in lexicographic order on rounded value
    vectors.

    Every component must be the scalars and |Pi - L.le| <= CHAR_TOL hold
    entrywise, every structure map the identity within CHAR_TOL; that one
    comparison runs before validation, and NotAllScalar names the first
    pair, row-major, where it fails. Character (i, 0), row i of Pi, is
    then the indicator of the upset of i, row i of L.le, within CHAR_TOL.
    The upsets of single elements are exactly the nonempty finishing
    sub-semilattices (see enumerate_finishing_subsemilattices), and
    distinct indices have distinct upsets, so the comparison checks the
    bijection and the indicator formula that inverts it.
    """
    _require_all_scalar(spec)
    L = spec.L
    chars = graded_characters(spec, CHAR_TOL)
    pairs = []
    for ch in _sorted(chars):
        mset = L.finishing_set(ch.tag[0])
        pairs.append((replace(ch, finishing_set=mset), mset))
    return pairs


@dataclass
class RestrictionReport:
    sub_spec: gr.GradedSpec
    remap: dict
    contraction: dict
    assignments: list
    nondegeneracy_check: str = "unital"


def restriction_spectrum_map(spec, M):
    """Push every character of the spec down to the sub-spec over a
    cofinal sub-semilattice M.

    A character tagged (i, t) goes to the character of the restriction
    tagged (m(i), s), where m(i) is the least element of M above i and s
    is the coordinate that t pulls back to along phi_{i, m(i)}. The
    assignment is verified against plain functional restriction: Pi's
    rows on M's columns against the assigned rows of the sub-spec's Pi.

    Non-degeneracy of the structure maps into M is required; in this
    finite commutative setting the check used is unitality of
    phi_{i, m(i)} (recorded in the report as nondegeneracy_check).
    """
    L = spec.L
    Msorted = L.indices(M)
    if not L.is_subsemilattice(Msorted):
        raise InputError(f"{Msorted} is not a sub-semilattice")
    if not gr.components_commutative(spec):
        raise ComponentNotCommutative(
            "components must be commutative (all blocks 1x1)"
        )
    # m above i is least in M above i iff M above m is all of M above i
    upper = L.le[:, Msorted]
    count = upper.sum(axis=1)
    least = upper & (count[Msorted][None, :] == count[:, None])
    contraction = {}
    for i in range(L.n):
        if not upper[i].any():
            raise NotCofinal(
                f"index {L.names[i]} has no upper bound in {Msorted}"
            )
        if not least[i].any():
            raise NoLeastElement(
                f"M above {L.names[i]} has no least element"
            )
        contraction[i] = m = Msorted[int(least[i].argmax())]
        # phi_{i,m}(1) is its row sums: unital iff each is 1
        ones = spec.pi[spec.span(i), spec.span(m)].sum(axis=1)
        if not fd.maxabs(ones - 1) <= fd.BASIS_TOL:
            raise InputError(
                f"structure map for ({L.names[i]}, {L.names[m]}) is not "
                f"unital; the non-degeneracy substitute fails"
            )
    source_chars = graded_characters(spec, CHAR_TOL)
    sub_spec, remap = gr.restrict_spec(spec, Msorted)
    sub_chars = graded_characters(sub_spec, CHAR_TOL)
    if not source_chars:  # every component is zero
        return RestrictionReport(sub_spec, remap, contraction, [])
    # M's columns of Pi, in the sub-spec's order; row (i, t) pulls back
    # along its part of the columns of m(i), a row of phi_{i, m(i)}
    dims = [c.dim for c in spec.components]
    cols = np.r_[tuple(spec.span(m) for m in Msorted)]
    owner = np.repeat(Msorted, [dims[m] for m in Msorted])
    restricted = spec.pi[:, cols]
    mine = owner == np.repeat(list(contraction.values()), dims)[:, None]
    pullback = np.where(mine, restricted, 0)
    target = np.abs(pullback).argmax(axis=1)
    pulled = (np.abs(pullback - np.eye(len(cols))[target]) <= CHAR_TOL).all(axis=1)
    diff = ~(np.abs(restricted - sub_spec.pi[target]) <= CHAR_TOL)
    bad = np.flatnonzero(~pulled | diff.any(axis=1))
    if bad.size:
        g = bad[0]
        ch, m = source_chars[g], contraction[source_chars[g].tag[0]]
        if not pulled[g]:
            raise OracleMismatch(
                f"character {ch.tag} does not pull back to a point of the "
                f"component at {L.names[m]}"
            )
        old = owner[diff[g].argmax()]
        raise OracleMismatch(
            f"restricting character {ch.tag} disagrees with its "
            f"assigned image {sub_chars[target[g]].tag} on index {L.names[old]}"
        )
    assignments = [(ch, sub_chars[s]) for ch, s in zip(source_chars, target)]
    return RestrictionReport(sub_spec, remap, contraction, assignments)


# ------------------------------------------------- polygon identification

@dataclass
class SurfaceReport:
    n: int
    vertex_orbits: int
    euler_char: int
    genus: int
    pinched: bool


def genus_of_line_arrangement(n):
    """Surface invariants of the 2n-gon with edge pairing
    a_1 ... a_n a_1^{-1} ... a_n^{-1}.

    The edge identification glues vertex j to vertex j + (n - 1) mod 2n,
    so the vertex classes are the orbits of that rotation of Z/2n, of
    which there are gcd(n - 1, 2n) = gcd(n - 1, 2): one for even n, two
    for odd n. With E = n and F = 1 the Euler characteristic gives the
    genus; odd n leaves two vertex classes that the identification then
    pinches together, reported via the flag rather than folded into the
    genus.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise BadN(f"need an integer n >= 2, got {n!r}")
    n = int(n)
    orbits = math.gcd(n - 1, 2 * n)
    euler = orbits - n + 1
    return SurfaceReport(
        n=n,
        vertex_orbits=orbits,
        euler_char=euler,
        genus=(2 - euler) // 2,
        pinched=orbits > 1,
    )
