"""The routes that spectra.graded_characters, finishing_correspondence and
restriction_spectrum_map replaced, kept as test oracles.

graded_characters now returns the rows of Pi once validate_spec has
passed the spec; the reference checks every row pairwise for
distinctness and with check_character over the product table. The
finishing correspondence now compares Pi with the order matrix once; the
reference walks the characters one at a time and tests each support set
against the enumeration. Restriction now reads every contraction off the
order matrix and compares Pi's columns with the sub-spec's Pi at once;
the reference builds each upper set with leq and compares index by index.

On specs that validate_spec passes, each reference returns what the fast
route returns. On specs it rejects, the references still raise the
exceptions below with their old messages, where the fast routes raise
the validation failure.
"""

import numpy as np

from gradedcstar import findim as fd
from gradedcstar import graded as gr
from gradedcstar import spectra as sp
from gradedcstar.errors import InputError, ValidationFailure


class CoverageMismatch(ValidationFailure):
    pass


class BijectionFailure(ValidationFailure):
    pass


class NotACharacter(ValidationFailure):
    pass


def graded_characters_reference(spec, tol=sp.CHAR_TOL):
    """graded_characters one character and one pair at a time: the
    pairwise distinctness loop, then check_character per character."""
    chars = [
        sp.Character(values=spec.pi[g].copy(), tag=(i, a))
        for i, a, g in spec.graded_basis()
    ]
    for a in range(len(chars)):
        for b in range(a + 1, len(chars)):
            if fd.maxabs(chars[a].values - chars[b].values) <= tol:
                raise CoverageMismatch(
                    f"characters {chars[a].tag} and {chars[b].tag} coincide"
                )
    for ch in chars:
        r = sp.check_character(spec, ch.values)
        if not r <= tol:
            raise NotACharacter(
                f"coordinate {ch.tag} of pi fails the character axioms by {r:.3e}"
            )
    return chars


def match_characters(got, expected, tol=sp.CHAR_TOL):
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


def finishing_correspondence_reference(spec, tol=sp.CHAR_TOL):
    """finishing_correspondence one character at a time: snap its values
    on the component units, test the support set against the enumeration
    of finishing sub-semilattices, and check the indicator formula. The
    all-scalar screen is the np.isclose one it had, looser than tol."""
    for c in spec.components:
        if c.blocks != (1,):
            raise sp.NotAllScalar(f"component {c} is not the scalars")
    bad = np.argwhere(~np.isclose(spec.pi, spec.L.le))
    if bad.size:
        raise sp.NotAllScalar(
            f"structure map for pair {tuple(bad[0].tolist())} is not the identity"
        )
    L = spec.L
    chars = sp._sorted(graded_characters_reference(spec, tol))
    expected = set(L.enumerate_finishing_subsemilattices())
    pairs = []
    seen = set()
    for ch in chars:
        vals = ch.values[spec.offsets]
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
        if not fd.maxabs(snapped.astype(float) - ch.values) <= tol:
            raise BijectionFailure(
                f"indicator of {sorted(mchi)} does not reproduce the character"
            )
        if mchi in seen:
            raise BijectionFailure(f"set {sorted(mchi)} hit twice")
        seen.add(mchi)
        pairs.append((sp.Character(ch.values, ch.tag, mchi), mchi))
    if seen != expected:
        raise BijectionFailure(
            f"{len(seen)} character sets against {len(expected)} finishing "
            f"sub-semilattices"
        )
    return pairs


def restriction_reference(spec, M, tol=sp.CHAR_TOL):
    """restriction_spectrum_map one index and one character at a time."""
    L = spec.L
    Msorted = sorted(set(M))
    if not L.is_subsemilattice(Msorted):
        raise InputError(f"{Msorted} is not a sub-semilattice")
    if not gr.components_commutative(spec):
        raise sp.ComponentNotCommutative(
            "components must be commutative (all blocks 1x1)"
        )
    contraction = {}
    for i in range(L.n):
        upper = [m for m in Msorted if L.leq(i, m)]
        if not upper:
            raise sp.NotCofinal(
                f"index {L.names[i]} has no upper bound in {Msorted}"
            )
        least = upper[0]
        for m in upper[1:]:
            least = L.meet[least, m]
        if least not in upper:
            raise sp.NoLeastElement(f"M above {L.names[i]} has no least element")
        contraction[i] = least
        if not fd.is_unital_hom(spec.structure_map(i, least)):
            raise InputError(
                f"structure map for ({L.names[i]}, {L.names[least]}) is not "
                f"unital; the non-degeneracy substitute fails"
            )
    sub_spec, remap = gr.restrict_spec(spec, Msorted)
    source_chars = graded_characters_reference(spec, tol)
    sub_chars = {c.tag: c for c in graded_characters_reference(sub_spec, tol)}
    assignments = []
    for ch in source_chars:
        i, t = ch.tag
        m = contraction[i]
        row = spec.structure_map(i, m).matrix[t]
        s = int(np.argmax(np.abs(row)))
        onehot = np.zeros_like(row)
        onehot[s] = 1.0
        if not fd.maxabs(row - onehot) <= tol:
            raise sp.OracleMismatch(
                f"character {ch.tag} does not pull back to a point of the "
                f"component at {L.names[m]}"
            )
        target = sub_chars[(remap[m], s)]
        for old in Msorted:
            src_slice = ch.values[spec.span(old)]
            dst_slice = target.values[sub_spec.span(remap[old])]
            if not fd.maxabs(src_slice - dst_slice) <= tol:
                raise sp.OracleMismatch(
                    f"restricting character {ch.tag} disagrees with its "
                    f"assigned image {target.tag} on index {L.names[old]}"
                )
        assignments.append((ch, target))
    return sp.RestrictionReport(sub_spec, remap, contraction, assignments)
