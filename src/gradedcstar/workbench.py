"""Spec files, example builders, and reports: the operational surface.

A spec document is JSON with three sections: "semilattice" (element
names plus meet table), "components" (name -> block list), and "phi"
(entries {from, to, matrix}). Matrices are dim(target) x dim(source),
row-major over the canonical matrix-unit basis, every entry a [re, im]
pair. Optional "closure": "chains" lets phi be given on covering pairs
only; the loader composes along maximal chains and insists the paths
agree. Groups, actions, and elements use the smaller schemas below.

Serialized floats use Python's shortest round-trip repr, so emitting and
re-parsing a document reproduces every matrix bit for bit.
"""

import cmath
import hashlib
import json

import numpy as np

from . import __version__
from . import findim as fd
from . import graded as gr
from . import products as pr
from . import semilattice as sl
from .errors import InputError
from dataclasses import dataclass, field


class DocumentError(InputError):
    """A document failed to parse; the message names the offending spot."""


class NotASubgroup(InputError):
    pass


class NotIntersectionClosed(InputError):
    pass


# ------------------------------------------------------------- documents

def _pair(z):
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _matrix_to_doc(m):
    m = np.asarray(m)
    return [[_pair(z) for z in row] for row in m]


def _entry_from_doc(obj, where):
    """A [re, im] pair of finite numbers; JSON booleans, NaN and the
    infinities are refused."""
    # type, not isinstance: a JSON boolean is an instance of int
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or type(obj[0]) not in (int, float)
        or type(obj[1]) not in (int, float)
    ):
        raise DocumentError(f"{where}: entries must be [re, im] pairs")
    try:
        z = complex(obj[0], obj[1])
    except OverflowError:  # an integer too large for a double
        z = None
    if z is None or not cmath.isfinite(z):
        raise DocumentError(f"{where}: entries must be finite numbers")
    return z


def _matrix_from_doc(obj, where, rows, cols):
    if not isinstance(obj, list) or len(obj) != rows:
        raise DocumentError(f"{where}: expected {rows} rows")
    out = np.zeros((rows, cols), dtype=complex)
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise DocumentError(f"{where}: row {r} must have {cols} entries")
        for c, v in enumerate(row):
            out[r, c] = _entry_from_doc(v, f"{where}: row {r}, column {c}")
    return out


def _vector_from_doc(obj, where, length):
    if not isinstance(obj, list) or len(obj) != length:
        raise DocumentError(f"{where}: expected {length} entries")
    return np.array(
        [_entry_from_doc(v, f"{where}: entry {k}") for k, v in enumerate(obj)]
    )


def spec_to_document(spec, metadata=None):
    L = spec.L
    doc = {
        "format": "gradedcstar-spec",
        "semilattice": {
            "names": list(L.names),
            "meet": [list(row) for row in L.meet],
        },
        "components": {
            L.names[i]: list(spec.components[i].blocks) for i in range(L.n)
        },
        "phi": [
            {
                "from": L.names[j],
                "to": L.names[i],
                "matrix": _matrix_to_doc(spec.phi[(i, j)].matrix),
            }
            for (i, j) in sorted(spec.phi)
            if i != j
        ],
    }
    if metadata is not None:
        doc["metadata"] = metadata
    return doc


def document_to_spec(doc, tol=gr.AXIOM_TOL):
    """Parse and fully validate a spec document.

    Malformed structure raises DocumentError naming the offending spot;
    a well-formed document whose mathematics fails raises the validation
    error itself.
    """
    spec = parse_spec(doc, tol)
    gr.validate_spec(spec, tol)
    return spec


def parse_spec(doc, tol=gr.AXIOM_TOL):
    """Build the spec a document describes, without the numeric axiom
    checks of validate_spec. Chain closure still insists, to tol, that
    compositions along different chains agree (PathDependence)."""
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    for section in ("semilattice", "components", "phi"):
        if section not in doc:
            raise DocumentError(f"missing section {section!r}")
    sem = doc["semilattice"]
    if not isinstance(sem, dict) or "meet" not in sem:
        raise DocumentError("semilattice: need an object with a meet table")
    names = sem.get("names")
    try:
        L = sl.Semilattice(sem["meet"], names)
    except InputError as exc:
        raise DocumentError(f"semilattice: {exc}") from exc
    if len(set(L.names)) != L.n:
        raise DocumentError("semilattice: names must be distinct")
    index = {name: i for i, name in enumerate(L.names)}

    comp_doc = doc["components"]
    if not isinstance(comp_doc, dict):
        raise DocumentError("components: must map names to block lists")
    if set(comp_doc) != set(L.names):
        missing = sorted(set(L.names) - set(comp_doc))
        extra = sorted(set(comp_doc) - set(L.names))
        raise DocumentError(
            f"components: missing {missing}, unrecognized {extra}"
        )
    components = []
    for i in range(L.n):
        blocks = comp_doc[L.names[i]]
        if not isinstance(blocks, list) or not all(
            isinstance(b, int) and b >= 1 for b in blocks
        ):
            raise DocumentError(
                f"components[{L.names[i]!r}]: block list must hold positive "
                f"integers"
            )
        components.append(fd.AlgebraShape(blocks))

    phi_doc = doc["phi"]
    if not isinstance(phi_doc, list):
        raise DocumentError("phi: must be a list of entries")
    phi = {}
    for k, entry in enumerate(phi_doc):
        where = f"phi[{k}]"
        if not isinstance(entry, dict) or not {"from", "to", "matrix"} <= set(
            entry
        ):
            raise DocumentError(f"{where}: need from, to, and matrix fields")
        for fieldname in ("from", "to"):
            if entry[fieldname] not in index:
                raise DocumentError(
                    f"{where}: unknown index name {entry[fieldname]!r}"
                )
        j = index[entry["from"]]
        i = index[entry["to"]]
        if i == j:
            raise DocumentError(f"{where}: diagonal maps are implicit")
        if not L.leq(i, j):
            raise DocumentError(
                f"{where}: {entry['to']!r} is not below {entry['from']!r}"
            )
        if (i, j) in phi:
            raise DocumentError(f"{where}: duplicate pair")
        mat = _matrix_from_doc(
            entry["matrix"],
            f"{where}: matrix",
            components[i].dim,
            components[j].dim,
        )
        phi[(i, j)] = fd.StarHom(components[j], components[i], mat)

    closure = doc.get("closure")
    if closure == "chains":
        phi = gr.complete_phi_by_chains(L, components, phi, tol)
        phi = {k: v for k, v in phi.items() if k[0] != k[1]}
    elif closure is not None:
        raise DocumentError(f"closure: unrecognized mode {closure!r}")

    return gr.GradedSpec(L, components, phi)


def group_to_document(group):
    return {
        "format": "gradedcstar-group",
        "names": list(group.names),
        "mul": [list(row) for row in group.mul],
    }


def document_to_group(doc):
    if not isinstance(doc, dict) or "mul" not in doc:
        raise DocumentError("group document needs a mul table")
    return pr.FiniteGroup(doc["mul"], doc.get("names"))


def action_to_document(act):
    group, spec = act.group, act.spec
    return {
        "format": "gradedcstar-action",
        "maps": [
            {
                "element": group.names[g],
                "index": spec.L.names[i],
                "matrix": _matrix_to_doc(act.maps[(g, i)].matrix),
            }
            for g in range(group.order)
            for i in range(spec.L.n)
            if g != group.identity
        ],
    }


def document_to_action(doc, group, spec):
    if not isinstance(doc, dict) or "maps" not in doc:
        raise DocumentError("action document needs a maps list")
    gindex = {name: g for g, name in enumerate(group.names)}
    lindex = {name: i for i, name in enumerate(spec.L.names)}
    maps = {}
    for k, entry in enumerate(doc["maps"]):
        where = f"maps[{k}]"
        if not isinstance(entry, dict) or not {
            "element",
            "index",
            "matrix",
        } <= set(entry):
            raise DocumentError(
                f"{where}: need element, index, and matrix fields"
            )
        if entry["element"] not in gindex:
            raise DocumentError(
                f"{where}: unknown group element {entry['element']!r}"
            )
        if entry["index"] not in lindex:
            raise DocumentError(f"{where}: unknown index {entry['index']!r}")
        g = gindex[entry["element"]]
        i = lindex[entry["index"]]
        if (g, i) in maps:
            raise DocumentError(f"{where}: duplicate (element, index) pair")
        dim = spec.components[i].dim
        mat = _matrix_from_doc(entry["matrix"], f"{where}: matrix", dim, dim)
        maps[(g, i)] = fd.StarHom(
            spec.components[i], spec.components[i], mat
        )
    return pr.build_action(group, spec, maps)


def element_to_document(x):
    spec = x.spec
    return {
        "format": "gradedcstar-element",
        "components": {
            spec.L.names[i]: [_pair(z) for z in fd.to_vector(x.comps[i])]
            for i in range(spec.L.n)
        },
    }


def document_to_element(doc, spec):
    if not isinstance(doc, dict) or "components" not in doc:
        raise DocumentError("element document needs a components object")
    lindex = {name: i for i, name in enumerate(spec.L.names)}
    comps = [fd.zero(c) for c in spec.components]
    for name, vec in doc["components"].items():
        if name not in lindex:
            raise DocumentError(f"components: unknown index {name!r}")
        i = lindex[name]
        comps[i] = fd.from_vector(
            spec.components[i],
            _vector_from_doc(
                vec, f"components[{name!r}]", spec.components[i].dim
            ),
        )
    return gr.GradedElement(spec, comps)


def load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc


def save_document(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def document_digest(doc):
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# --------------------------------------------------------------- reports

@dataclass
class CheckResult:
    name: str
    status: str  # "pass", "fail", or "skip"
    residual: float = None
    detail: str = ""


@dataclass
class Report:
    """Deterministic run summary."""

    tool_version: str
    input_digest: str
    seed: int
    checks: list = field(default_factory=list)

    def passed(self):
        return all(c.status != "fail" for c in self.checks)

    def render(self):
        lines = [
            f"tool: gradedcstar {self.tool_version}",
            f"input: sha256:{self.input_digest}",
            f"seed: {self.seed}",
        ]
        for c in self.checks:
            line = f"check {c.name}: {c.status}"
            if c.residual is not None:
                line += f" (max residual {c.residual:.3e})"
            if c.detail:
                line += f" [{c.detail}]"
            lines.append(line)
        lines.append(f"result: {'PASS' if self.passed() else 'FAIL'}")
        return "\n".join(lines)


def new_report(doc, seed):
    return Report(
        tool_version=__version__,
        input_digest=document_digest(doc),
        seed=seed,
    )


# -------------------------------------------------------------- builders

def build_all_scalar(L):
    """Scalar component at every index, identity structure maps."""
    scalar = fd.AlgebraShape([1])
    phi = {
        (i, j): fd.identity_hom(scalar)
        for (i, j) in L.comparable_pairs()
        if i != j
    }
    spec = gr.GradedSpec(L, [scalar] * L.n, phi)
    gr.validate_spec(spec)
    return spec


def _check_subgroup(group, subset):
    elems = sorted(set(int(x) for x in subset))
    if not elems:
        raise NotASubgroup("a subgroup cannot be empty")
    for x in elems:
        if not 0 <= x < group.order:
            raise NotASubgroup(f"element {x} outside the group")
    members = frozenset(elems)
    if group.identity not in members:
        raise NotASubgroup(f"{elems} does not contain the identity")
    for a in members:
        if group.inverse[a] not in members:
            raise NotASubgroup(f"{elems} is not closed under inverses")
        for b in members:
            if group.mul[a][b] not in members:
                raise NotASubgroup(f"{elems} is not closed under products")
    return members


def left_cosets(group, members):
    """Left cosets of a subgroup, ordered by least representative."""
    seen = set()
    cosets = []
    for g in range(group.order):
        if g in seen:
            continue
        coset = frozenset(group.mul[g][h] for h in members)
        seen |= coset
        cosets.append(coset)
    return cosets


def build_coset_spec(group, subgroups):
    """Graded spec of coset-space function algebras, plus translation.

    Components are functions on G/H for each subgroup H in the family,
    which must be closed under pairwise intersection; the semilattice is
    the family ordered by inclusion, structure maps are pullbacks along
    coset projections, and the returned action is left translation.
    """
    subs = [_check_subgroup(group, s) for s in subgroups]
    if len(set(subs)) != len(subs):
        raise InputError("subgroup family has duplicates")
    pos = {s: k for k, s in enumerate(subs)}
    n = len(subs)
    meet = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            inter = subs[a] & subs[b]
            if inter not in pos:
                raise NotIntersectionClosed(
                    f"intersection of {sorted(subs[a])} and "
                    f"{sorted(subs[b])} is outside the family"
                )
            meet[a][b] = pos[inter]
    names = ["{" + ",".join(str(x) for x in sorted(s)) + "}" for s in subs]
    L = sl.Semilattice(meet, names)

    cosets = [left_cosets(group, s) for s in subs]
    components = [fd.AlgebraShape([1] * len(c)) for c in cosets]
    phi = {}
    for (i, j) in L.comparable_pairs():
        if i == j:
            continue
        # subgroup i is contained in subgroup j: each coset of j splits
        # into cosets of i, and the pullback of an indicator is the sum
        # of the indicators of its pieces
        m = np.zeros((len(cosets[i]), len(cosets[j])))
        for col, big in enumerate(cosets[j]):
            for row, small in enumerate(cosets[i]):
                if small <= big:
                    m[row, col] = 1.0
        phi[(i, j)] = fd.StarHom(components[j], components[i], m)
    spec = gr.GradedSpec(L, components, phi)
    gr.validate_spec(spec)

    maps = {}
    for s in range(group.order):
        for i in range(n):
            idx = {c: k for k, c in enumerate(cosets[i])}
            m = np.zeros((len(cosets[i]), len(cosets[i])))
            for k, c in enumerate(cosets[i]):
                shifted = frozenset(group.mul[s][x] for x in c)
                m[idx[shifted], k] = 1.0
            maps[(s, i)] = fd.StarHom(components[i], components[i], m)
    action = pr.build_action(group, spec, maps)
    return spec, action


def coset_pullback_morphism(group, subgroups):
    """The graded morphism from a coset spec into functions on the group.

    Each component map pulls functions on G/H back along the quotient
    G -> G/H. With any comparable pair of distinct subgroups present the
    total map has a nonzero kernel: a function and its pullback to the
    finer coset space map to the same function on G.
    """
    spec, _ = build_coset_spec(group, subgroups)
    subs = [_check_subgroup(group, s) for s in subgroups]
    target = fd.AlgebraShape([1] * group.order)
    psi = []
    for i in range(spec.L.n):
        cosets = left_cosets(group, subs[i])
        m = np.zeros((group.order, len(cosets)))
        for col, coset in enumerate(cosets):
            for g in coset:
                m[g, col] = 1.0
        psi.append(fd.StarHom(spec.components[i], target, m))
    return gr.build_morphism(spec, target, psi)


# ----------------------------------------------------------------- demos

DEMO_NAMES = (
    "all-scalar-diamond",
    "chain-<n>",
    "coset-z4",
    "coset-s3",
    "m2-chain",
)


def _m2_chain_spec():
    m2 = fd.AlgebraShape([2])
    scalar = fd.AlgebraShape([1])
    unital = fd.StarHom(
        scalar, m2, np.array([[1.0], [0.0], [0.0], [1.0]])
    )
    spec = gr.GradedSpec(sl.chain(2), [m2, scalar], {(0, 1): unital})
    gr.validate_spec(spec)
    return spec


def coset_z4_family():
    return pr.cyclic_group(4), [{0}, {0, 2}, {0, 1, 2, 3}]


def coset_s3_family():
    # order matches sorted permutations: 2 swaps the first two points,
    # 3 and 4 are the three-cycles
    return pr.symmetric_group(3), [{0}, {0, 2}, {0, 3, 4}, set(range(6))]


def demo_spec(name):
    if name == "all-scalar-diamond":
        return build_all_scalar(sl.diamond())
    if name.startswith("chain-"):
        try:
            n = int(name[len("chain-") :])
        except ValueError:
            n = 0
        if n < 1:
            raise InputError(f"bad chain length in demo name {name!r}")
        return build_all_scalar(sl.chain(n))
    if name == "coset-z4":
        return build_coset_spec(*coset_z4_family())[0]
    if name == "coset-s3":
        return build_coset_spec(*coset_s3_family())[0]
    if name == "m2-chain":
        return _m2_chain_spec()
    raise InputError(
        f"unknown demo {name!r}; available: {', '.join(DEMO_NAMES)}"
    )
