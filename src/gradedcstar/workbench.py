"""Spec files, example builders, and reports: the operational surface.

A spec document is JSON with three sections: "semilattice" (element
names plus meet table), "components" (name -> block list), and "phi"
(entries {from, to, matrix}). Matrices are dim(target) x dim(source),
row-major over the canonical matrix-unit basis, every entry a [re, im]
pair. Optional "closure": "chains" lets phi be given on covering pairs
only; the loader composes them by induction on interval length and
insists that every chain gives the same map, within graded.AXIOM_TOL.
Groups, actions, and elements use the smaller schemas below.

Serialized floats use Python's shortest round-trip repr, so emitting and
re-parsing a document reproduces every matrix bit for bit.

Documents are outside input: document_to_spec validates the spec and
document_to_action checks the action in full. The builders and demos are
not: their constructions prove the axioms, so each records its verdict
(and build_coset_spec its action) without checking it again; the tests
run validate_spec and products.build_action on every builder output.
"""

import cmath
import functools
import hashlib
import json
import math
from itertools import chain

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
    return [[_pair(z) for z in row] for row in np.asarray(m).tolist()]


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


def _int_table_from_doc(obj, where):
    """A list of rows of JSON integers, as given: checked by type, not
    isinstance, so that booleans and floats are refused."""
    if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
        raise DocumentError(f"{where}: must be a list of rows")
    for r, row in enumerate(obj):
        for c, x in enumerate(row):
            if type(x) is not int:
                raise DocumentError(f"{where}: row {r}, column {c} must be an integer")
    return obj


def _names_from_doc(obj, where):
    """An optional list of names, as given."""
    if obj is not None and not isinstance(obj, list):
        raise DocumentError(f"{where}: names must be a list")
    return obj


def _pairs_from_doc(obj, shape):
    """The complex array of shape `shape` that nested lists of [re, im]
    pairs describe, in one conversion; None if any entry would fail
    _entry_from_doc or the nesting does not match."""
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    if arr.shape != shape + (2,):
        return None
    numbers = obj
    for _ in shape:
        numbers = chain.from_iterable(numbers)
    numbers = list(numbers)
    # type, not isinstance: a JSON boolean is an instance of int, and
    # np.asarray reads booleans and numeric strings as floats
    if not set(map(type, numbers)) <= {int, float}:
        return None
    # a NaN or an infinity makes the sum non-finite; so can an overflow
    # of finite entries, which the per-entry walk then accepts
    try:
        if not math.isfinite(sum(numbers)):
            return None
    except OverflowError:  # a sum of integers too large for a double
        return None
    return arr.view(complex)[..., 0]


def _matrix_from_doc(obj, where, rows, cols):
    if not isinstance(obj, list) or len(obj) != rows:
        raise DocumentError(f"{where}: expected {rows} rows")
    # one entry gains nothing from a vectorized conversion
    out = _pairs_from_doc(obj, (rows, cols)) if rows * cols > 1 else None
    if out is not None:
        return out
    # one entry, or name the offending row or entry
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
    out = _pairs_from_doc(obj, (length,)) if length > 1 else None
    if out is not None:
        return out
    return np.array(
        [_entry_from_doc(v, f"{where}: entry {k}") for k, v in enumerate(obj)],
        dtype=complex,
    )


def spec_to_document(spec, metadata=None):
    L = spec.L
    doc = {
        "format": "gradedcstar-spec",
        "semilattice": {
            "names": list(L.names),
            "meet": L.meet.tolist(),
        },
        "components": {
            L.names[i]: list(spec.components[i].blocks) for i in range(L.n)
        },
        "phi": [
            {
                "from": L.names[j],
                "to": L.names[i],
                "matrix": _matrix_to_doc(spec.pi_block(i, j)),
            }
            for (i, j) in L.comparable_pairs()
            if i != j
        ],
    }
    if metadata is not None:
        doc["metadata"] = metadata
    return doc


def document_to_spec(doc):
    """Parse and fully validate a spec document, at gr.AXIOM_TOL.

    Malformed structure raises DocumentError naming the offending spot;
    a well-formed document whose mathematics fails raises the validation
    error itself.
    """
    spec = parse_spec(doc)
    gr.validate_spec(spec, gr.AXIOM_TOL)
    return spec


def parse_spec(doc):
    """Build the spec a document describes, without the numeric axiom
    checks of validate_spec. Chain closure still insists, to gr.AXIOM_TOL,
    that compositions along different chains agree (PathDependence)."""
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    for section in ("semilattice", "components", "phi"):
        if section not in doc:
            raise DocumentError(f"missing section {section!r}")
    sem = doc["semilattice"]
    if not isinstance(sem, dict) or "meet" not in sem:
        raise DocumentError("semilattice: need an object with a meet table")
    meet = _int_table_from_doc(sem["meet"], "semilattice: meet")
    names = _names_from_doc(sem.get("names"), "semilattice")
    try:
        L = sl.Semilattice(meet, names)
    except InputError as exc:
        raise DocumentError(f"semilattice: {exc}") from exc
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
            type(b) is int and b >= 1 for b in blocks
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
            if not isinstance(entry[fieldname], str) or entry[fieldname] not in index:
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
        phi = gr.complete_phi_by_chains(L, components, phi)
    elif closure is not None:
        raise DocumentError(f"closure: unrecognized mode {closure!r}")

    return gr.GradedSpec(L, components, phi)


def group_to_document(group):
    return {
        "format": "gradedcstar-group",
        "names": list(group.names),
        "mul": group.mul.tolist(),
    }


def document_to_group(doc):
    if not isinstance(doc, dict) or "mul" not in doc:
        raise DocumentError("group document needs a mul table")
    mul = _int_table_from_doc(doc["mul"], "mul")
    return pr.FiniteGroup(mul, _names_from_doc(doc.get("names"), "group"))


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
    if not isinstance(doc, dict) or not isinstance(doc.get("maps"), list):
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
        if not isinstance(entry["element"], str) or entry["element"] not in gindex:
            raise DocumentError(
                f"{where}: unknown group element {entry['element']!r}"
            )
        if not isinstance(entry["index"], str) or entry["index"] not in lindex:
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
    if not isinstance(doc, dict) or not isinstance(doc.get("components"), dict):
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
    """Write a spec document as dumps_spec_document renders it, then a
    newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_spec_document(doc) + "\n")


def dumps_spec_document(doc):
    """json.dumps(doc, indent=2), byte for byte, for a spec document as
    spec_to_document writes it.

    json serves indent=2 only from its pure-Python encoder, so just the
    skeleton, with phi emptied, goes through it. Each phi entry and its
    matrix of floats are filled into templates, the matrix's cached per
    shape, from the floats' reprs; NaN and the infinities then read as
    json writes them."""
    text = json.dumps(dict(doc, phi=[]), indent=2)
    # a raw newline cannot occur inside a JSON string, and only root keys
    # sit at an indent of two
    head, _, tail = text.partition('\n  "phi": []')
    entries = [
        _PHI_ENTRY % (
            json.dumps(e["from"]),
            json.dumps(e["to"]),
            _matrix_text(e["matrix"]),
        )
        for e in doc["phi"]
    ]
    return head + '\n  "phi": ' + _json_list(entries, 1) + tail


_PHI_ENTRY = '{\n      "from": %s,\n      "to": %s,\n      "matrix": %s\n    }'


def _json_list(items, level):
    """A JSON list of rendered items at this nesting level, as indent=2
    lays it out."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * level + "]"


@functools.lru_cache(maxsize=256)
def _matrix_template(rows, cols):
    """The phi matrix of rows x cols [re, im] pairs with a %s per float."""
    return _json_list([_json_list([_json_list(["%s", "%s"], 5)] * cols, 4)] * rows, 3)


def _matrix_text(matrix):
    cols = len(matrix[0]) if matrix else 0
    floats = chain.from_iterable(chain.from_iterable(matrix))
    text = _matrix_template(len(matrix), cols) % tuple(map(float.__repr__, floats))
    return text.replace("nan", "NaN").replace("inf", "Infinity")


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

def _certified(spec):
    """The spec with the verdict that validate_spec(spec) records on it:
    tol AXIOM_TOL and every bound 0.0. For the builders below, whose spec
    satisfies the axioms by construction: pi has entries in {0, 1}, and
    the maps are identities, lambda -> lambda 1 or pullbacks along
    G/H_i -> G/H_j, unital *-homomorphisms that compose exactly. So every
    residual that validate_spec forms is an integer combination of 0/1
    entries, computed exactly in floating point, and 0. On commutative
    components that argument is validate_spec's exact route in code
    (graded._zero_one_table and graded._zero_one_failure), which would
    accept these specs with the same verdict; the m2-chain demo, whose
    bottom block is M_2, rests on the argument alone."""
    spec._set_verdict(gr.AXIOM_TOL, gr.SpecBounds(0.0, 0.0, 0.0, 0.0))
    return spec


def build_all_scalar(L):
    """Scalar component at every index, identity structure maps: pi is
    the order matrix L.le. Certified by construction (_certified)."""
    return _certified(gr.GradedSpec.from_pi(L, [fd.AlgebraShape([1])] * L.n, L.le))


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
    m = np.fromiter(members, np.intp)  # in iteration order, which decides the message
    for inverse, products in zip(group.inverse[m].tolist(), group.mul[m[:, None], m].tolist()):
        if inverse not in members:
            raise NotASubgroup(f"{elems} is not closed under inverses")
        if not members.issuperset(products):
            raise NotASubgroup(f"{elems} is not closed under products")
    return members


def left_cosets(group, members):
    """Left cosets of a subgroup, ordered by least representative."""
    seen = set()
    cosets = []
    for g, row in enumerate(group.mul[:, np.fromiter(members, np.intp)].tolist()):
        if g in seen:
            continue
        coset = frozenset(row)
        seen |= coset
        cosets.append(coset)
    return cosets


def _coset_spec(group, subgroups):
    """The certified coset spec of a subgroup family, with each
    subgroup's left cosets; see build_coset_spec."""
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
    # For subgroup i inside subgroup j each coset of j splits into cosets
    # of i, and the pullback of an indicator is the sum of the indicators
    # of its pieces: block (i, j) of pi is coset containment. A coset of i
    # lies in a coset of j only when subgroup i lies in subgroup j, so the
    # blocks at non-comparable pairs come out 0.
    member = np.zeros((sum(map(len, cosets)), group.order))
    for row, coset in enumerate(c for cs in cosets for c in cs):
        member[row, list(coset)] = 1.0
    pi = member @ member.T == member.sum(axis=1)[:, None]
    return _certified(gr.GradedSpec.from_pi(L, components, pi)), cosets


def build_coset_spec(group, subgroups):
    """Graded spec of coset-space function algebras, plus translation.

    Components are functions on G/H for each subgroup H in the family,
    which must be closed under pairwise intersection; the semilattice is
    the family ordered by inclusion, structure maps are pullbacks along
    coset projections, and the returned action is left translation. The
    spec is certified by construction (_certified), and the action too:
    alpha_s(e_k) = e_{label[s rep_k]} on the indicators e_k of the cosets
    of H_i, for rep_k the least member of coset k, and
      - left translation permutes the cosets of H_i, so each alpha_s is a
        *-automorphism of the functions on G/H_i;
      - s(t g H_i) = (st) g H_i, so s -> alpha_s follows the group table,
        and alpha_e = 1;
      - g H_i lies in g' H_j iff s g H_i lies in s g' H_j, so translation
        preserves coset containment and alpha_s commutes with every
        pullback.
    """
    spec, cosets = _coset_spec(group, subgroups)
    alphas = []  # alphas[i][s]: alpha_s on index i, one gather of labels
    for cs in cosets:
        label = np.empty(group.order, dtype=int)
        for k, coset in enumerate(cs):
            label[list(coset)] = k
        reps = [min(coset) for coset in cs]
        alphas.append(np.eye(len(cs))[:, label[group.mul[:, reps]]].transpose(1, 0, 2))
    maps = {
        (s, i): fd.StarHom(c, c, alphas[i][s])
        for s in range(group.order)
        for i, c in enumerate(spec.components)
    }
    return spec, pr.GradedAction(group, spec, maps)


def coset_pullback_morphism(group, subgroups):
    """The graded morphism from a coset spec into functions on the group.

    Each component map pulls functions on G/H back along the quotient
    G -> G/H. With any comparable pair of distinct subgroups present the
    total map has a nonzero kernel: a function and its pullback to the
    finer coset space map to the same function on G.
    """
    spec, cosets = _coset_spec(group, subgroups)
    target = fd.AlgebraShape([1] * group.order)
    psi = []
    for i, cs in enumerate(cosets):
        m = np.zeros((group.order, len(cs)))
        for col, coset in enumerate(cs):
            m[list(coset), col] = 1.0
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
    # phi_{0,1} is the unital embedding of the scalars in M_2
    pi = np.eye(5)
    pi[:4, 4] = [1.0, 0.0, 0.0, 1.0]
    return _certified(gr.GradedSpec.from_pi(
        sl.chain(2), [fd.AlgebraShape([2]), fd.AlgebraShape([1])], pi
    ))


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
        return _coset_spec(*coset_z4_family())[0]
    if name == "coset-s3":
        return _coset_spec(*coset_s3_family())[0]
    if name == "m2-chain":
        return _m2_chain_spec()
    raise InputError(
        f"unknown demo {name!r}; available: {', '.join(DEMO_NAMES)}"
    )
