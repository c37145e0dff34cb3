"""Spans around the package's public functions, from outside the package.

Tracer.install replaces module attributes (and two constructors) with
wrappers that record a span per call: name, start, end, parent span and the
id of the command being run. Calls made inside the package go through the
same module attributes, so nested layers are seen too. Spans stay in
memory and are written out when the run ends; per-layer self times are
derived from them afterwards (a span's duration minus its children's).
"""

import json
import os
import time

import gradedcstar.cli as cli
import gradedcstar.findim as fd
import gradedcstar.graded as gr
import gradedcstar.ktheory as kt
import gradedcstar.products as pr
import gradedcstar.semilattice as sl
import gradedcstar.spectra as sp
import gradedcstar.workbench as wb

# (owner, attribute, layer). A class owner wraps the method in place.
SPANNED = (
    (sl.Semilattice, "__init__", "semilattice.construct"),
    (sl, "product_semilattice", "semilattice.product"),
    (sl.Semilattice, "enumerate_finishing_subsemilattices", "semilattice.finishing_enum"),
    (fd, "validate_starhom", "findim.validate_starhom"),
    (fd, "op_norm", "findim.op_norm"),
    (gr, "validate_spec", "graded.validate_spec"),
    (gr, "gmul", "graded.gmul"),
    (gr, "total_commutative", "graded.total_commutative"),
    (gr, "gnorm", "graded.gnorm"),
    (gr, "q_family_from_spec", "graded.q_family"),
    (gr, "restrict_spec", "graded.restrict_spec"),
    (sp, "graded_characters", "spectra.graded_characters"),
    (sp, "brute_force_characters", "spectra.brute_force"),
    (sp, "finishing_correspondence", "spectra.finishing_correspondence"),
    (sp, "restriction_spectrum_map", "spectra.restriction"),
    (kt, "verify_k0", "ktheory.verify_k0"),
    (kt, "wedderburn", "ktheory.wedderburn"),
    (pr, "tensor_spec", "products.tensor_spec"),
    (pr, "crossed_product", "products.crossed_product"),
    (pr, "build_action", "products.build_action"),
    (pr.FiniteGroup, "__init__", "products.group"),
    (wb, "load_document", "workbench.load_document"),
    (wb, "document_to_spec", "workbench.document_to_spec"),
    (wb, "spec_to_document", "workbench.spec_to_document"),
    (wb, "save_document", "workbench.save_document"),
)

# Counted but not timed: called too often, or too cheap, for a span.
COUNTED = (
    (gr, "pi_rep", "graded.pi_rep_calls"),
    (sp, "make_rng", "spectra.draws"),
    (kt, "make_rng", "ktheory.draws"),
)

ROOT = "cli.main"

# Per-layer metrics, each with its unit. Times and counts are per pass.
LAYER_METRICS = (
    ("semilattice.construct_s", "s/pass"),
    ("semilattice.construct_calls", "count/pass"),
    ("semilattice.product_s", "s/pass"),
    ("semilattice.finishing_enum_s", "s/pass"),
    ("semilattice.finishing_sets", "count/pass"),
    ("findim.validate_starhom_s", "s/pass"),
    ("findim.validate_starhom_calls", "count/pass"),
    ("findim.basis_pairs", "count/pass"),
    ("findim.op_norm_s", "s/pass"),
    ("findim.op_norm_calls", "count/pass"),
    ("graded.validate_spec_s", "s/pass"),
    ("graded.validate_spec_calls", "count/pass"),
    ("graded.validations_per_op", "count/op"),
    ("graded.gmul_s", "s/pass"),
    ("graded.gmul_calls", "count/pass"),
    ("graded.total_commutative_s", "s/pass"),
    ("graded.gnorm_s", "s/pass"),
    ("graded.pi_rep_calls", "count/pass"),
    ("graded.q_family_s", "s/pass"),
    ("graded.restrict_spec_s", "s/pass"),
    ("spectra.graded_characters_s", "s/pass"),
    ("spectra.brute_force_s", "s/pass"),
    ("spectra.finishing_correspondence_s", "s/pass"),
    ("spectra.restriction_s", "s/pass"),
    ("spectra.characters", "count/pass"),
    ("spectra.draws", "count/pass"),
    ("spectra.useful_draw_ratio", "ratio"),
    ("ktheory.verify_k0_s", "s/pass"),
    ("ktheory.wedderburn_s", "s/pass"),
    ("ktheory.wedderburn_calls", "count/pass"),
    ("ktheory.span_dim_sum", "count/pass"),
    ("ktheory.blocks_found", "count/pass"),
    ("ktheory.draws", "count/pass"),
    ("ktheory.useful_draw_ratio", "ratio"),
    ("products.tensor_spec_s", "s/pass"),
    ("products.crossed_product_s", "s/pass"),
    ("products.build_action_s", "s/pass"),
    ("products.group_s", "s/pass"),
    ("workbench.load_document_s", "s/pass"),
    ("workbench.document_to_spec_s", "s/pass"),
    ("workbench.bytes_read", "bytes/pass"),
    ("workbench.spec_to_document_s", "s/pass"),
    ("workbench.save_document_s", "s/pass"),
    ("workbench.bytes_written", "bytes/pass"),
    ("cli.main_s", "s/pass"),
    ("cli.self_s", "s/pass"),
    ("cli.ops", "count/pass"),
    ("trace.overhead_frac", "ratio"),
)

# The self times must add up to the measured command wall time to this share.
# Since self times partition the root spans, this is an identity: it checks
# the tracer's bookkeeping and the cost of the wrapper around cli.main, not
# whether the layers explain the command time.
SELF_SUM_RTOL = 0.01

# At most this share of the command time may lie outside every wrapped
# layer (cli.self_s over cli.main_s). It is about 1-3 % on every workload;
# it rises towards 1 when the package stops calling a layer through the
# module attribute the tracer wraps, so that layer's time lands in cli.main.
CLI_SELF_MAX = 0.5


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.stack = [-1]
        self.op = -1
        self.counts = {}
        self.paths_read = []
        self.paths_written = []
        self._saved = []

    # ---------------------------------------------------------- recording

    def _bump(self, key, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    def _span(self, fn, name, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counter(self, fn, key):
        def wrapper(*args, **kwargs):
            self._bump(key)
            return fn(*args, **kwargs)

        return wrapper

    def _after(self, name):
        """Counts taken from a layer's arguments or result."""
        if name == "semilattice.finishing_enum":
            return lambda args, res: self._bump("semilattice.finishing_sets", len(res))
        if name == "findim.validate_starhom":
            return lambda args, res: self._bump("findim.basis_pairs", args[0].source.dim ** 2)
        if name == "spectra.graded_characters":
            return lambda args, res: self._bump("spectra.characters", len(res))
        if name == "spectra.brute_force":
            return lambda args, res: self._bump("spectra.useful_draws")
        if name == "ktheory.wedderburn":
            def after(args, res):
                self._bump("ktheory.useful_draws")
                self._bump("ktheory.span_dim_sum", res.span_dim)
                self._bump("ktheory.blocks_found", len(res.block_dims))
            return after
        if name == "workbench.load_document":
            return lambda args, res: self.paths_read.append(args[0])
        if name == "workbench.save_document":
            return lambda args, res: self.paths_written.append(args[1])
        return None

    def install(self):
        for owner, attr, name in SPANNED:
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._span(orig, name, self._after(name)))
        for owner, attr, key in COUNTED:
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._counter(orig, key))
        self.main = self._span(cli.main, ROOT)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # ----------------------------------------------------------- analysis

    def self_times(self):
        """Self time per layer: each span's duration less its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for k, (name, start, end, parent, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[k]
        return out

    def check_nesting(self):
        """Every span lies inside its parent and siblings do not overlap."""
        last_end = {}
        for name, start, end, parent, op in self.spans:
            if end < start:
                return f"{name} ends before it starts"
            if parent >= 0:
                _, pstart, pend, _, pop = self.spans[parent]
                if start < pstart or end > pend or op != pop:
                    return f"{name} is not inside its parent"
            if start < last_end.get(parent, float("-inf")):
                return f"{name} overlaps an earlier sibling"
            last_end[parent] = end
        return None

    def metrics(self, passes, op_kinds, op_wall_s, overhead_frac):
        """Per-layer metrics, the self-time sum, and a consistency error."""
        selfs = self.self_times()
        calls = {}
        validate_calls_in_validate = 0
        for name, start, end, parent, op in self.spans:
            calls[name] = calls.get(name, 0) + 1
            if name == "graded.validate_spec" and op_kinds[op] == "validate":
                validate_calls_in_validate += 1
        validate_ops = sum(1 for k in op_kinds if k == "validate")
        inclusive = sum(end - start for name, start, end, _, _ in self.spans if name == ROOT)
        c = self.counts

        def per_pass(v):
            return v / passes

        def ratio(useful, draws):
            return useful / draws if draws else 0.0

        derived = {
            "cli.main_s": per_pass(inclusive),
            "cli.self_s": per_pass(selfs.get(ROOT, 0.0)),
            "cli.ops": per_pass(calls.get(ROOT, 0)),
            "graded.validations_per_op": (
                validate_calls_in_validate / validate_ops if validate_ops else 0.0
            ),
            "spectra.useful_draw_ratio": ratio(c.get("spectra.useful_draws", 0), c.get("spectra.draws", 0)),
            "ktheory.useful_draw_ratio": ratio(c.get("ktheory.useful_draws", 0), c.get("ktheory.draws", 0)),
            "workbench.bytes_read": per_pass(sum(os.path.getsize(p) for p in self.paths_read)),
            "workbench.bytes_written": per_pass(sum(os.path.getsize(p) for p in self.paths_written)),
            "trace.overhead_frac": overhead_frac,
        }
        values = {}
        for metric, _ in LAYER_METRICS:
            layer = metric.rpartition("_")[0]
            if metric in derived:
                values[metric] = derived[metric]
            elif metric.endswith("_s"):
                values[metric] = per_pass(selfs.get(layer, 0.0))
            elif metric.endswith("_calls") and metric not in c:
                values[metric] = per_pass(calls.get(layer, 0))
            else:
                values[metric] = per_pass(c.get(metric, 0))
        self_sum = sum(selfs.values())
        error = self.check_nesting()
        if error is None and abs(self_sum - op_wall_s) > SELF_SUM_RTOL * op_wall_s:
            error = (
                f"self times add up to {self_sum:.6f} s but the traced commands "
                f"took {op_wall_s:.6f} s"
            )
        outside = selfs.get(ROOT, 0.0) / inclusive if inclusive else 1.0
        if error is None and outside > CLI_SELF_MAX:
            error = (
                f"{outside:.1%} of the command time is outside every wrapped layer "
                f"(at most {CLI_SELF_MAX:.0%} allowed)"
            )
        return values, self_sum, error

    def dump(self, path, op_kinds):
        """Write every span, with the command kind of each op id."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "op_kinds": op_kinds,
                    "spans": self.spans,
                },
                fh,
            )
