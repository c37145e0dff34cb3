"""Closed-loop benchmark of the gradedcstar command line.

One client calls gradedcstar.cli.main in this process, one command at a
time, each waiting for the previous one. A workload is a fixed list of
commands (a pass) built from the workload seed. A run repeats whole
passes, as many as fill --seconds on the reference machine, so every
command is sampled in the same proportion on every run.

    python3 perfbench/run.py --workload products --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 20

With --trace 0 the last line of stdout is a JSON object holding every
end-to-end metric; with --trace 1 it holds the per-layer metrics of a
traced run, and the spans go to perfbench/_out/. Run it from the root of
a checkout: the program is imported from src/ there and nowhere else.
"""

import os
import sys

# Pinned before the interpreter starts, by re-executing it when needed:
# - one BLAS thread: on two cores a second thread made k0 no faster and
#   noisier;
# - glibc's mmap and trim thresholds, at the values its own dynamic
#   adjustment moves them to after large frees (32 MiB and twice that).
#   Left to move, they made how medium arrays are allocated depend on
#   which commands ran before, and medians varied by up to a third from
#   run to run.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": "33554432",
    "MALLOC_TRIM_THRESHOLD_": "67108864",
}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    os.execve(sys.executable, [sys.executable] + sys.argv, {**os.environ, **PINNED_ENV})

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
OUT = HERE / "_out"

# Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
) + tuple((f"{k}_p50_ms", "ms") for k in workloads.KINDS)

TAIL_BEYOND = 10

# Every timing is scaled to the speed the host has when it is quiet.
# The host is shared, and its speed swings by about 1.5 times, in
# stretches of a fraction of a second up to minutes. So reference() runs
# right before and right after each timed piece of work, and the work's
# time is multiplied by REFERENCE_S over the mean of the two. The raw
# times go on the '#' line.
REFERENCE_S = 2.7e-3
_REF_MATRIX = np.random.default_rng(0).standard_normal((6, 6))


def reference():
    """Time a fixed mix of the two kinds of work the package does: a
    pure-Python loop and small numpy products. About 2.7 ms on the
    reference machine at its quiet speed."""
    start = time.perf_counter()
    s = 0
    for i in range(30_000):
        s += i * i % 7
    x = _REF_MATRIX
    for _ in range(300):
        x = np.tanh(x @ _REF_MATRIX)
    return time.perf_counter() - start


def with_reference(fn):
    """Run fn() between two runs of reference(). Return its result and the
    factor that scales a time taken within it to the reference speed."""
    before = reference()
    result = fn()
    after = reference()
    return result, 2.0 * REFERENCE_S / (before + after)


Sample = collections.namedtuple("Sample", "kind anchor seconds scaled")


class SetupError(Exception):
    pass


def import_program():
    """Import the package from this checkout's src/ and nowhere else."""
    if not (SRC / "gradedcstar" / "cli.py").is_file():
        raise SetupError(f"no gradedcstar package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gradedcstar.cli

    where = Path(gradedcstar.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SetupError(f"gradedcstar was imported from {where}, not {SRC}")


def start_up():
    """Start the command line's modules in a fresh interpreter: Python,
    numpy and the package, as every invocation of the command pays."""
    subprocess.run(
        [sys.executable, "-c", "import gradedcstar.cli"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
        timeout=120,
    )


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "pinned_env": PINNED_ENV,
    }


def run_op(main, op):
    """Run one command; return (seconds, failure message or None)."""
    out, err = io.StringIO(), io.StringIO()
    failure = None
    # Each command starts from a clean heap, as in a fresh process, so
    # garbage left by earlier commands is not collected on its clock.
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(op.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = None
        failure = "traceback: " + traceback.format_exc().strip().splitlines()[-1]
    elapsed = time.perf_counter() - start
    if failure is None:
        try:
            op.check(code, out.getvalue())
        except Exception as exc:
            failure = f"{type(exc).__name__}: {exc}"
    if failure is not None:
        failure = f"{' '.join(op.argv)}: {failure}; stderr {err.getvalue().strip()[-300:]!r}"
    return elapsed, failure


class Loop:
    """Runs passes and keeps every sample."""

    def __init__(self, main, ops):
        self.main = main
        self.ops = ops
        self.samples = []  # Sample
        self.failures = []
        self.passes = 0
        self.wall = 0.0

    def run_pass(self, on_op=None):
        start = time.perf_counter()
        for op in self.ops:
            if on_op is not None:
                on_op(len(self.samples))
            (elapsed, failure), factor = with_reference(lambda: run_op(self.main, op))
            self.samples.append(Sample(op.kind, op.anchor, elapsed, elapsed * factor))
            if failure is not None:
                self.failures.append(failure)
        self.wall += time.perf_counter() - start
        self.passes += 1

    def run_passes(self, count, on_op=None):
        for _ in range(count):
            self.run_pass(on_op)


def passes_for(workload, seconds):
    """The fewest whole passes that fill the measuring time on the
    reference machine.

    The count depends on --seconds and the workload only, never on how
    fast this run goes, so every run of a workload does the same work and
    reports its tail at the same percentile.
    """
    return max(1, math.ceil(seconds / workloads.PASS_PLAN_S[workload]))


def tail(samples, time_of):
    """The sample at the highest percentile with TAIL_BEYOND samples beyond
    it, ranked by time_of(sample): (seconds, percentile, command kind)."""
    ordered = sorted(samples, key=time_of)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return time_of(ordered[k]), 100.0 * (k + 1) / n, ordered[k].kind


def timings(samples, setup_s, time_of):
    """The timing metrics, with each sample's time given by time_of.

    ops_per_s counts commands per second of command time. A command's
    median latency is taken over its anchor's samples.
    """
    tail_s, tail_pct, tail_kind = tail(samples, time_of)
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(samples) / sum(time_of(s) for s in samples),
        "latency_tail_ms": tail_s * 1e3,
    }
    for kind in workloads.KINDS:
        got = [time_of(s) for s in samples if s.kind == kind and s.anchor]
        values[f"{kind}_p50_ms"] = statistics.median(got) * 1e3
    return values, tail_pct, tail_kind


def end_to_end(loop, setup):
    """The end-to-end metrics, scaled to the reference speed, and notes for
    the '#' line, which give the same timings unscaled."""
    setup_scaled, setup_raw = setup
    values, tail_pct, tail_kind = timings(loop.samples, setup_scaled, lambda s: s.scaled)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw, _, raw_kind = timings(loop.samples, setup_raw, lambda s: s.seconds)
    notes = {
        "latency_tail_percentile": round(tail_pct, 2),
        "latency_tail_kind": tail_kind,
        "samples": len(loop.samples),
        "passes": loop.passes,
        "measured_s": round(loop.wall, 3),
        "host_slowdown": round(sum(s.seconds for s in loop.samples)
                            / sum(s.scaled for s in loop.samples), 4),
        "unscaled": {k: round(v, 6) for k, v in raw.items()},
        "unscaled_tail_kind": raw_kind,
    }
    return values, notes


def set_up(workload, seed, workdir_parent):
    """Start up, write the documents and warm every command up, in
    SETUP_REPEATS rounds.

    Returns the median time of a round, scaled and unscaled, the
    operations of a pass, the work directory holding their documents and
    any warm-up failures.
    """
    import gradedcstar.cli as cli

    scaled, raw, failures = [], [], []
    workdirs = []

    def round_():
        start = time.perf_counter()
        start_up()
        workdirs.append(tempfile.mkdtemp(prefix=f"{workload}-", dir=workdir_parent))
        ops = workloads.build(workload, seed, workdirs[-1])
        for op in workloads.warmup(workdirs[-1]):
            _, failure = run_op(cli.main, op)
            if failure is not None:
                failures.append("warm-up " + failure)
        return ops, time.perf_counter() - start

    for _ in range(SETUP_REPEATS):
        if workdirs:
            shutil.rmtree(workdirs[-1])
        (ops, seconds), factor = with_reference(round_)
        raw.append(seconds)
        scaled.append(seconds * factor)
    setup = (statistics.median(scaled), statistics.median(raw))
    return setup, ops, workdirs[-1], failures


def one_run(args):
    import_program()
    import gradedcstar.cli as cli

    WORK.mkdir(exist_ok=True)
    setup, ops, workdir, failures = set_up(args.workload, args.seed, WORK)
    try:
        loop = Loop(cli.main, ops)
        if not args.trace:
            loop.run_passes(passes_for(args.workload, args.seconds))
            values, notes = end_to_end(loop, setup)
            units = dict(END_TO_END)
        else:
            values, notes = traced(loop, args)
            import tracing

            units = dict(tracing.LAYER_METRICS)
        failures += loop.failures
        attempted = len(loop.samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    error = notes.pop("trace_error", None)
    for msg in failures[:20]:
        print("FAILED " + msg, file=sys.stderr)
    if error:
        print("TRACE CHECK FAILED " + error, file=sys.stderr)
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print("# " + json.dumps({"workload": args.workload, "seed": args.seed, **notes,
                             "environment": environment()}))
    result = {
        "correct": not failures and error is None,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


def traced(loop, args):
    """Untraced passes for half the time, then as many traced passes.

    The per-layer numbers come from the traced passes; the difference in
    scaled command time between the two halves is the tracing overhead.
    """
    import tracing

    loop.run_passes(passes_for(args.workload, args.seconds / 2))
    untraced_passes = loop.passes
    untraced = sum(s.scaled for s in loop.samples)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_loop = Loop(tracer.main, loop.ops)

        def mark(k):
            tracer.op = k

        for _ in range(untraced_passes):
            traced_loop.run_pass(mark)
    finally:
        tracer.uninstall()
    loop.samples += traced_loop.samples
    loop.failures += traced_loop.failures
    kinds = [s.kind for s in traced_loop.samples]
    op_wall = sum(s.seconds for s in traced_loop.samples)
    overhead = sum(s.scaled for s in traced_loop.samples) / untraced - 1.0
    values, self_sum, error = tracer.metrics(untraced_passes, kinds, op_wall, overhead)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(spans_path, kinds)
    notes = {
        "passes": untraced_passes,
        "traced_ops": len(kinds),
        "self_time_sum_s": round(self_sum, 6),
        "traced_command_wall_s": round(op_wall, 6),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "trace_error": error,
    }
    return values, notes


def all_workloads(args):
    """Each workload in a fresh process; print every metric by name."""
    results = {}
    status = 0
    for w in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w}: exit {proc.returncode}")
            status = 1
            continue
        results[w] = json.loads(lines[-1])
        notes = [ln for ln in lines if ln.startswith("# ")]
        print(f"== {w}  correct={results[w]['correct']}  attempted={results[w]['attempted']}"
              f"  failed={results[w]['failed']}")
        if notes:
            print(notes[0])
        for name, m in results[w]["metrics"].items():
            print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
        if not results[w]["correct"]:
            status = 1
    print(json.dumps(results))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="scalar-lattices, matrix-blocks, products, or all")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="planned measuring time; whole passes are run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return all_workloads(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    try:
        return one_run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
