"""The chain closure by enumeration, kept as an oracle.

graded.complete_phi_by_chains checks path independence by induction on
interval length. This reference composes along every maximal chain of
every interval and compares each composition with the first chain's, so
its cost grows with the number of chains: use it on small lattices only.
"""

from gradedcstar import findim as fd
from gradedcstar import graded as gr


def complete_phi_by_enumeration(L, components, partial, tol=gr.AXIOM_TOL):
    """phi for every comparable pair, composed along the first maximal
    chain (covers ascending) where no map is given; raises MissingHom and
    PathDependence with the messages of complete_phi_by_chains."""
    covers = gr.covering_pairs(L)
    for i, j in covers:
        if (i, j) not in partial:
            raise gr.MissingHom(
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
        composed = []
        for chain in paths(i, j):
            h = fd.identity_hom(components[j])
            for a, b in reversed(list(zip(chain, chain[1:]))):
                h = fd.compose(partial[(a, b)], h)
            composed.append(h)
        base = composed[0]
        for other in composed[1:]:
            r = fd.maxabs(base.matrix - other.matrix)
            if not r <= tol:
                raise gr.PathDependence(
                    f"chain compositions for ({L.names[i]}, {L.names[j]}) "
                    f"disagree by {r:.3e}"
                )
        if (i, j) in partial:
            given = partial[(i, j)]
            r = fd.maxabs(base.matrix - given.matrix)
            if not r <= tol:
                raise gr.PathDependence(
                    f"given phi for ({L.names[i]}, {L.names[j]}) disagrees "
                    f"with its chain composition by {r:.3e}"
                )
            base = given
        full[(i, j)] = base
    return full
