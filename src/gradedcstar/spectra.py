"""Characters of commutative graded algebras, and the surface invariants
of the polygon-identification example.

Two independent routes to the character space: the graded
parametrization that reads each character as a coordinate of some pi_i,
exact and used by every caller, and a brute-force enumeration through
simultaneous diagonalization of a generic multiplication operator, kept
as the oracle the tests compare it with. In the all-scalar case the
characters additionally biject with the nonempty finishing
sub-semilattices, and restriction onto a cofinal sub-semilattice is
verified functional by functional.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import findim as fd
from . import graded as gr
from .errors import DegenerateGenerator, InputError, ValidationFailure
from .seeding import make_rng, resolve_seed

CHAR_TOL = 1e-8
EIG_SEPARATION = 1e-7
RETRY_BUDGET = 8


class NotCommutative(InputError):
    pass


class ComponentNotCommutative(InputError):
    pass


class CoverageMismatch(ValidationFailure):
    pass


class NotAllScalar(InputError):
    pass


class BijectionFailure(ValidationFailure):
    pass


class NotCofinal(InputError):
    pass


class NoLeastElement(InputError):
    pass


class OracleMismatch(ValidationFailure):
    pass


class NotACharacter(ValidationFailure):
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
        table[span(i), span(j), span(spec.L.meet_of(i, j))] = t.transpose(1, 2, 0)
    return table


def check_character(spec, values, tol=CHAR_TOL, table=None):
    """Max residual of multiplicativity and *-symmetry on basis pairs."""
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


def brute_force_characters(spec, seed=None, tol=CHAR_TOL):
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
        chars, failure = _read_characters(spec, table, eigvecs, tol)
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


def _read_characters(spec, table, eigvecs, tol):
    n = spec.total_dim
    chars = []
    for t in range(n):
        w = eigvecs[:, t]
        w = w / np.linalg.norm(w)
        values = np.einsum("bhu,u,h->b", table, np.conj(w), w)
        # w must be a joint eigenvector of every basis multiplication
        resid = np.einsum("bhu,h->bu", table, w) - np.outer(values, w)
        if not fd.maxabs(resid) <= 1e-6:
            return None, f"eigenvector {t} is not a joint eigenvector"
        r = check_character(spec, values, tol, table=table)
        if not r <= tol:
            return None, f"functional {t} fails character axioms by {r:.3e}"
        chars.append(Character(values=values))
    return chars, None


def graded_characters(spec, tol=CHAR_TOL):
    """One character per index i and coordinate t of A_i: coordinate t of
    pi_i. Checked pairwise distinct, and each checked multiplicative and
    *-symmetric on every basis pair."""
    if not gr.components_commutative(spec):
        raise ComponentNotCommutative(
            "components must be commutative (all blocks 1x1)"
        )
    values = spec.pi
    chars = [
        Character(values=row.copy(), tag=(i, t))
        for i in range(spec.L.n)
        for t, row in enumerate(values[spec.span(i)])
    ]
    # one pairwise-difference reduction; a NaN difference is no coincidence
    gap = np.abs(values[:, None, :] - values[None, :, :]).max(axis=2, initial=0.0)
    same = np.argwhere(np.triu(gap <= tol, 1))
    if same.size:
        a, b = same[0]
        raise CoverageMismatch(
            f"characters {chars[a].tag} and {chars[b].tag} coincide"
        )
    # multiplicativity and *-symmetry of every character on every basis
    # pair at once: chi(E_g E_h) = chi(E_g) chi(E_h), chi(E_g*) = conj chi(E_g)
    prod_vals = np.einsum("ghu,cu->cgh", _product_table(spec), values, optimize=True)
    prod_vals -= values[:, :, None] * values[:, None, :]
    mult = np.abs(prod_vals).reshape(len(chars), -1).max(axis=1, initial=0.0)
    perm = fd.adjoint_permutation(spec.ambient_shape())
    star = np.abs(np.conj(values[:, perm]) - values).max(axis=1, initial=0.0)
    r = np.maximum(mult, star)
    bad = np.flatnonzero(~(r <= tol))
    if bad.size:
        ch = chars[bad[0]]
        raise NotACharacter(
            f"coordinate {ch.tag} of pi fails the character axioms by "
            f"{r[bad[0]]:.3e}"
        )
    return chars


def match_characters(got, expected, tol=CHAR_TOL):
    """Bijective nearest-neighbor matching of two character lists.

    Returns the index pairing; raises CoverageMismatch if counts differ,
    any character has no partner within tol, or a partner is claimed
    twice.
    """
    if len(got) != len(expected):
        raise CoverageMismatch(
            f"{len(got)} characters against {len(expected)} expected"
        )
    taken = {}
    for a, ch in enumerate(got):
        hits = [
            b
            for b, other in enumerate(expected)
            if fd.maxabs(ch.values - other.values) <= tol
        ]
        if len(hits) != 1:
            raise CoverageMismatch(
                f"character {ch.tag or a} matches {len(hits)} oracle "
                f"characters, expected exactly one"
            )
        if hits[0] in taken:
            raise CoverageMismatch(
                f"oracle character {hits[0]} claimed by both "
                f"{taken[hits[0]]} and {a}"
            )
        taken[hits[0]] = a
    return [(taken[b], b) for b in sorted(taken)]


def _require_all_scalar(spec):
    for c in spec.components:
        if c.blocks != (1,):
            raise NotAllScalar(f"component {c} is not the scalars")
    # every component is the scalars, so each map is one number
    pairs = list(spec.phi)
    bad = np.flatnonzero(~np.isclose([spec.phi[p].matrix[0, 0] for p in pairs], 1.0))
    if bad.size:
        raise NotAllScalar(
            f"structure map for pair {pairs[bad[0]]} is not the identity"
        )


def finishing_correspondence(spec, tol=CHAR_TOL):
    """For an all-scalar spec: pair every character with the index set
    where it equals 1, check those sets are exactly the nonempty finishing
    sub-semilattices, and check the indicator formula inverts the map.
    Pairs come in lexicographic order on rounded value vectors."""
    _require_all_scalar(spec)
    L = spec.L
    chars = _sorted(graded_characters(spec, tol))
    expected = set(L.enumerate_finishing_subsemilattices())
    pairs = []
    seen = set()
    for ch in chars:
        offsets = np.asarray(spec.offsets)
        vals = ch.values[offsets]  # value on each e_i (components are 1-dim)
        snapped = np.abs(vals - 1) <= tol
        if not np.all(snapped | (np.abs(vals) <= tol)):
            raise BijectionFailure(
                "a character takes a value away from {0, 1} on a component unit"
            )
        mchi = frozenset(int(i) for i in np.flatnonzero(snapped))
        if not mchi or not L.is_finishing_subsemilattice(mchi):
            raise BijectionFailure(
                f"support set {sorted(mchi)} is not a nonempty finishing "
                f"sub-semilattice"
            )
        indicator = snapped.astype(float)
        if not fd.maxabs(indicator - ch.values) <= tol:
            raise BijectionFailure(
                f"indicator of {sorted(mchi)} does not reproduce the character"
            )
        if mchi in seen:
            raise BijectionFailure(f"set {sorted(mchi)} hit twice")
        seen.add(mchi)
        pairs.append((replace(ch, finishing_set=mchi), mchi))
    if seen != expected:
        raise BijectionFailure(
            f"{len(seen)} character sets against {len(expected)} finishing "
            f"sub-semilattices"
        )
    return pairs


@dataclass
class RestrictionReport:
    sub_spec: gr.GradedSpec
    remap: dict
    contraction: dict
    assignments: list
    nondegeneracy_check: str = "unital"


def restriction_spectrum_map(spec, M, tol=CHAR_TOL):
    """Push every character of the spec down to the sub-spec over a
    cofinal sub-semilattice M.

    A character tagged (i, t) goes to the character of the restriction
    tagged (m(i), s), where m(i) is the least element of M above i and s
    is the coordinate that t pulls back to along phi_{i, m(i)}. The
    assignment is verified against plain functional restriction.

    Non-degeneracy of the structure maps into M is required; in this
    finite commutative setting the check used is unitality of
    phi_{i, m(i)} (recorded in the report as nondegeneracy_check).
    """
    L = spec.L
    Msorted = sorted(set(M))
    if not L.is_subsemilattice(Msorted):
        raise InputError(f"{Msorted} is not a sub-semilattice")
    if not gr.components_commutative(spec):
        raise ComponentNotCommutative(
            "components must be commutative (all blocks 1x1)"
        )
    contraction = {}
    for i in range(L.n):
        upper = [m for m in Msorted if L.leq(i, m)]
        if not upper:
            raise NotCofinal(
                f"index {L.names[i]} has no upper bound in {Msorted}"
            )
        least = upper[0]
        for m in upper[1:]:
            least = L.meet_of(least, m)
        if least not in upper:
            raise NoLeastElement(
                f"M above {L.names[i]} has no least element"
            )
        contraction[i] = least
        if not fd.is_unital_hom(spec.structure_map(i, least)):
            raise InputError(
                f"structure map for ({L.names[i]}, {L.names[least]}) is not "
                f"unital; the non-degeneracy substitute fails"
            )
    sub_spec, remap = gr.restrict_spec(spec, Msorted)
    source_chars = graded_characters(spec, tol)
    sub_chars = {c.tag: c for c in graded_characters(sub_spec, tol)}
    assignments = []
    for ch in source_chars:
        i, t = ch.tag
        m = contraction[i]
        row = spec.structure_map(i, m).matrix[t]
        s = int(np.argmax(np.abs(row)))
        onehot = np.zeros_like(row)
        onehot[s] = 1.0
        if not fd.maxabs(row - onehot) <= tol:
            raise OracleMismatch(
                f"character {ch.tag} does not pull back to a point of the "
                f"component at {L.names[m]}"
            )
        target = sub_chars[(remap[m], s)]
        # the functional restriction must agree with the assignment
        for old in Msorted:
            src_slice = ch.values[spec.span(old)]
            dst_slice = target.values[sub_spec.span(remap[old])]
            if not fd.maxabs(src_slice - dst_slice) <= tol:
                raise OracleMismatch(
                    f"restricting character {ch.tag} disagrees with its "
                    f"assigned image {target.tag} on index {L.names[old]}"
                )
        assignments.append((ch, target))
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

    The edge identification glues vertex j to vertex j + (n - 1) mod 2n;
    vertex classes are found by walking those orbits (the gcd value is
    only a cross-check used in the tests). With E = n and F = 1 the Euler
    characteristic gives the genus; odd n leaves two vertex classes that
    the identification then pinches together, reported via the flag
    rather than folded into the genus.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise BadN(f"need an integer n >= 2, got {n!r}")
    n = int(n)
    total = 2 * n
    step = n - 1
    seen = [False] * total
    orbits = 0
    for start in range(total):
        if seen[start]:
            continue
        orbits += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = (j + step) % total
    euler = orbits - n + 1
    assert (2 - euler) % 2 == 0
    return SurfaceReport(
        n=n,
        vertex_orbits=orbits,
        euler_char=euler,
        genus=(2 - euler) // 2,
        pinched=orbits > 1,
    )
