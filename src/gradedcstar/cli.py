"""Command line: validate spec documents, compute norms, characters,
restriction tables, K-theory reports, tensor and crossed products,
surface invariants, and built-in demo specs.

Exit codes: 0 success, 1 a mathematical check failed, 2 malformed or
unreadable input, 3 numeric machinery gave up. No command draws random
numbers: output on stdout is deterministic for a fixed input, and the seed
is only recorded in validate's report header. Timing goes to stderr.
"""

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from . import __version__
from . import findim as fd
from . import graded as gr
from . import ktheory as kt
from . import products as pr
from . import spectra as sp
from . import workbench as wb
from .errors import GradedCstarError, NumericFailure, ValidationFailure
from .seeding import resolve_seed


def _load_spec(path):
    return wb.document_to_spec(wb.load_document(path))


def _emit(doc, out_path):
    if out_path:
        wb.save_document(doc, out_path)
        return [f"wrote {out_path}"]
    return [json.dumps(doc, indent=2)]


def _fmt_complex(z, tol=1e-10):
    z = complex(z)
    if abs(z.imag) <= tol:
        return f"{z.real:.6g}"
    return f"{z.real:.6g}{z.imag:+.6g}i"


def _index_tokens(spec, raw):
    lookup = {name: i for i, name in enumerate(spec.L.names)}
    out = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok in lookup:
            out.append(lookup[tok])
        elif tok.isdigit() and int(tok) < spec.L.n:
            out.append(int(tok))
        else:
            raise wb.DocumentError(f"unknown semilattice index {tok!r}")
    return out


def cmd_validate(args):
    doc = wb.load_document(args.spec)
    report = wb.new_report(doc, resolve_seed(args.seed))
    try:
        v = gr.validate_spec(wb.parse_spec(doc))
    except ValidationFailure as exc:
        report.checks.append(
            wb.CheckResult("validate", "fail", detail=str(exc))
        )
        return 1, [report.render()]
    report.checks.extend(
        [
            wb.CheckResult("identity-maps", "pass", v.identity_residual),
            wb.CheckResult("hom-multiplicative", "pass", v.hom_mult_residual),
            wb.CheckResult("hom-star", "pass", v.hom_star_residual),
            wb.CheckResult(
                "compatibility",
                "pass",
                v.axiom_b_residual,
                detail=f"{v.pairs_checked} pairs",
            ),
        ]
    )
    return 0, [report.render()]


def cmd_norm(args):
    spec = _load_spec(args.spec)
    x = wb.document_to_element(wb.load_document(args.element), spec)
    norms = [
        (f"pi[{name}]", fd.op_norm(p))
        for name, p in zip(spec.L.names, gr.pi_images(spec, x))
    ]
    # gnorm is the largest of the per-index norms
    norms.append(("gnorm", fd.maxabs([val for _, val in norms])))
    for label, val in norms:
        if not math.isfinite(val):
            raise NumericFailure(f"{label} is {val}: the element overflows")
    return 0, [f"{label}: {val:.12g}" for label, val in norms]


def cmd_characters(args):
    spec = _load_spec(args.spec)
    all_scalar = all(c.blocks == (1,) for c in spec.components)
    if all_scalar:
        # the correspondence computes the characters; list them by tag
        pairs = sp.finishing_correspondence(spec)
        chars = sorted((ch for ch, _ in pairs), key=lambda ch: ch.tag)
    else:
        chars = sp.graded_characters(spec)
    lines = [f"{len(chars)} characters"]
    for ch in chars:
        i, t = ch.tag
        vals = ", ".join(_fmt_complex(v) for v in ch.values)
        lines.append(f"char ({spec.L.names[i]}, {t}): [{vals}]")
    if all_scalar:
        lines.append(f"{len(pairs)} nonempty finishing sub-semilattices")
        for ch, mset in pairs:
            names = ", ".join(spec.L.names[i] for i in sorted(mset))
            i, t = ch.tag
            lines.append(
                f"finishing {{{names}}} <-> character ({spec.L.names[i]}, {t})"
            )
    return 0, lines


def cmd_restrict(args):
    spec = _load_spec(args.spec)
    M = _index_tokens(spec, args.sub)
    rep = sp.restriction_spectrum_map(spec, M)
    sub_names = rep.sub_spec.L.names
    lines = [
        "restriction onto {" + ", ".join(sub_names) + "}",
    ]
    for src, dst in rep.assignments:
        i, t = src.tag
        m, s = dst.tag
        lines.append(
            f"char ({spec.L.names[i]}, {t}) -> ({sub_names[m]}, {s})"
        )
    return 0, lines


def cmd_k0(args):
    spec = _load_spec(args.spec)
    r = kt.verify_k0(spec)
    lines = [
        f"component ranks: {r.per_component_ranks}",
        f"total rank: {r.total_rank}",
        "generator matrix:",
    ]
    lines.extend(f"  {list(row)}" for row in r.phi_matrix)
    lines.append(f"unimodular: {str(r.unimodular).lower()}")
    lines.append(f"k1 total rank: {r.k1_total_rank}")
    return 0, lines


def cmd_tensor(args):
    a = _load_spec(args.spec_a)
    b = _load_spec(args.spec_b)
    t = pr.tensor_spec(a, b)
    return 0, _emit(wb.spec_to_document(t), args.output)


def cmd_crossed(args):
    spec = _load_spec(args.spec)
    group = wb.document_to_group(wb.load_document(args.group))
    act = wb.document_to_action(wb.load_document(args.action), group, spec)
    out = pr.crossed_product(act)
    return 0, _emit(wb.spec_to_document(out), args.output)


def cmd_genus(args):
    r = sp.genus_of_line_arrangement(args.n)
    return 0, [
        f"n: {r.n}",
        f"vertex orbits: {r.vertex_orbits}",
        f"euler characteristic: {r.euler_char}",
        f"genus: {r.genus}",
        f"pinched: {str(r.pinched).lower()}",
    ]


def cmd_demo(args):
    spec = wb.demo_spec(args.name)
    return 0, _emit(wb.spec_to_document(spec), args.output)


@functools.cache
def build_parser():
    """The command-line parser, built on first use and shared after."""
    parser = argparse.ArgumentParser(
        prog="gradedcstar",
        description="Construct and analyze semilattice-graded C*-algebras.",
    )
    parser.add_argument(
        "--version", action="version", version=f"gradedcstar {__version__}"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="recorded in validate's report header; no command draws random numbers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run the full axiom battery")
    p.add_argument("spec")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("norm", help="norm of an element, per index and total")
    p.add_argument("spec")
    p.add_argument("element")
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("characters", help="characters of a commutative spec")
    p.add_argument("spec")
    p.set_defaults(func=cmd_characters)

    p = sub.add_parser(
        "restrict", help="push characters onto a sub-semilattice"
    )
    p.add_argument("spec")
    p.add_argument(
        "--sub",
        required=True,
        help="comma-separated index names (or numbers) of the sub-semilattice",
    )
    p.set_defaults(func=cmd_restrict)

    p = sub.add_parser("k0", help="projection-rank report")
    p.add_argument("spec")
    p.set_defaults(func=cmd_k0)

    p = sub.add_parser("tensor", help="tensor product of two specs")
    p.add_argument("spec_a")
    p.add_argument("spec_b")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("crossed", help="crossed product by a group action")
    p.add_argument("spec")
    p.add_argument("group")
    p.add_argument("action")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_crossed)

    p = sub.add_parser(
        "genus", help="surface invariants of the 2n-gon identification"
    )
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_genus)

    p = sub.add_parser("demo", help="emit a built-in example spec")
    p.add_argument("name")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        # every result is checked for NaN and infinity, so numpy's own
        # warnings would only repeat those failures on stderr
        with np.errstate(all="ignore"):
            code, lines = args.func(args)
    except GradedCstarError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        elapsed = (time.perf_counter() - start) * 1000.0
        print(f"elapsed: {elapsed:.1f} ms", file=sys.stderr)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
