"""Record result sets and compare two of them.

    python3 perfbench/compare.py record --root ../base --root . --runs 10 --out-dir perfbench/_out
    python3 perfbench/compare.py report perfbench/_out/set0-base.json perfbench/_out/set1-repo.json
    python3 perfbench/compare.py report perfbench/_out/set0-base.json

record runs every workload --runs times in each checkout given by --root,
run k with workload seed --seed + k, alternating which checkout goes
first, and writes one result set per checkout, set<i>-<directory>.json.
report with two sets gives, for each workload and end-to-end metric, both
medians and quartiles, the share of pairs the second set won and a
verdict; with one set it gives the quartile spread of each metric as a
share of its median. Under latency_tail_ms it lists which command kinds
held the tail sample in each set.

Verdicts follow the benchmark's rules. A metric is unresolved when either
side's quartile spread exceeds its bound, unless every run of the change
beats every run of the base. It is improved when the change wins at least
nine tenths of the pairs (ties count for neither) and the medians differ
by more than the base's own quartile distance; worse when the change's
median is worse than the base's by more than the bound; else unchanged.
"""

import argparse
import collections
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WIN_SHARE = 0.9


def load_spec():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_one(root, spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: {workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    notes = [ln for ln in lines if ln.startswith("# ")]
    if notes:
        result["notes"] = json.loads(notes[0][2:])
    return result


def record(args):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    roots = [Path(r).resolve() for r in args.root]
    sets = {r: {w: [] for w in workloads} for r in roots}
    for k in range(args.runs):
        order = roots if k % 2 == 0 else roots[::-1]
        for w in workloads:
            for r in order:
                res = run_one(r, spec, w, args.seed + k)
                sets[r][w].append(res)
                print(f"run {k} {w} {r.name}: correct={res['correct']}", file=sys.stderr)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for k, r in enumerate(roots):
        path = out / f"set{k}-{r.name or 'root'}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"root": str(r), "seed": args.seed, "seconds": spec["run_seconds"],
                       "workloads": sets[r]}, fh, indent=1)
        print(path)
    return 0


def values_of(result_set, workload, metric):
    return [r["metrics"][metric]["value"] for r in result_set["workloads"].get(workload, [])
            if metric in r["metrics"]]


def tail_kinds(result_set, workload):
    """How often each command kind held the latency_tail_ms sample."""
    kinds = collections.Counter(r.get("notes", {}).get("latency_tail_kind", "?")
                                for r in result_set["workloads"].get(workload, []))
    return ", ".join(f"{k} x{n}" for k, n in kinds.most_common())


def verdict(base, change, better, bound):
    """Verdict and share of pairs won for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (b - c) > 0)
    won = wins / len(pairs) if pairs else 0.0
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    spread = max((bq3 - bq1) / abs(bmed), (cq3 - cq1) / abs(cmed))
    all_better = all(sign * (b - c) > 0 for b in base for c in change)
    gain = won >= WIN_SHARE and sign * (bmed - cmed) > (bq3 - bq1)
    if spread > bound and not all_better:
        return "unresolved", won
    if gain:
        return "improved", won
    if sign * (cmed - bmed) > bound * abs(bmed):
        return "worse", won
    return "unchanged", won


def report(args):
    spec = load_spec()
    sets = []
    for path in args.sets:
        with open(path, encoding="utf-8") as fh:
            sets.append(json.load(fh))
    status = 0
    for w in (x["name"] for x in spec["workloads"]):
        print(f"== {w}")
        for m in spec["end_to_end"]:
            name = m["name"]
            cols = []
            for s in sets:
                vals = values_of(s, w, name)
                if not vals:
                    break
                q1, med, q3 = quartiles(vals)
                cols.append((vals, q1, med, q3))
            if len(cols) != len(sets):
                print(f"  {name:22s} missing")
                continue
            text = "  ".join(f"{med:11.5g} [{q1:.5g}, {q3:.5g}]" for _, q1, med, q3 in cols)
            if len(sets) == 1:
                vals, q1, med, q3 = cols[0]
                share = (q3 - q1) / abs(med)
                flag = "" if share <= m["bound"] else "  spread above bound"
                print(f"  {name:22s} {text} {m['unit']}  spread {share:.4f} "
                      f"(bound {m['bound']}){flag}")
            else:
                v, won = verdict(cols[0][0], cols[1][0], m["better"], m["bound"])
                if v == "worse":
                    status = 1
                print(f"  {name:22s} {text} {m['unit']}  won {won:.2f}  {v}")
            if name == "latency_tail_ms":
                print("    tail sample from: " + "  vs  ".join(tail_kinds(s, w) for s in sets))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("record", help="run every workload in one or more checkouts")
    p.add_argument("--root", action="append", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=record)
    p = sub.add_parser("report", help="spreads of one result set, or base vs change")
    p.add_argument("sets", nargs="+", metavar="SET")
    p.set_defaults(func=report)
    args = parser.parse_args(argv)
    if args.cmd == "report" and len(args.sets) > 2:
        parser.error("report takes one or two result sets")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
