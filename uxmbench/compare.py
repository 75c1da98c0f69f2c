#!/usr/bin/env python3
"""Parent-versus-change comparison of uxmbench results.

Result records are the files `run.py --out` writes (one JSON object per
run). Three modes:

  compare.py run --parent DIR --change DIR --outdir DIR [--workloads ...]
      Runs both checkouts' benchmarks for 10 pairs per workload in
      alternating order (pair i runs the parent first when i is even, the
      change first when odd), pair i on seed 1001 + i, each run for
      BENCHMARK.json's run_seconds; writes the records to --outdir, then
      compares.

  compare.py files --parent P1.json ... --change C1.json ...
      Compares existing records; the i-th parent and i-th change record of
      a workload form pair i.

  compare.py spread FILES...
      Run-to-run spread of each end-to-end metric (interquartile range over
      median), against the metric's bound.

The rule (choosing-metrics section 8): a metric improved on a workload
only when the change wins at least 9/10 of the pairs (ties count for
neither) and the medians differ by more than the parent's interquartile
range. A workload with fewer than 10 pairs gets no verdict but "too few
pairs", and the comparison fails. Every (workload, end-to-end metric)
pair is also checked against
the bound in BENCHMARK.json: a change median worse than the parent's by
more than the bound is a regression; where the parent's own spread
exceeds the bound the result is "unresolved" unless every change run
beats every parent run. Any rise in failed_frac is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
FIRST_SEED = 1001


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def load(paths):
    """Records grouped by workload, in the order given."""
    by_workload = {}
    for p in paths:
        rec = json.loads(Path(p).read_text())
        if rec.get("trace"):
            continue
        by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def better(a, b, lower_is_better):
    """True if a reads strictly better than b."""
    return a < b if lower_is_better else a > b


def verdict(parent, change, metric):
    """Returns (short verdict, detail) for one workload and metric."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    pv = [r["metrics"][metric["name"]]["value"] for r in parent]
    cv = [r["metrics"][metric["name"]]["value"] for r in change]
    p1, pm, p3 = quartiles(pv)
    c1, cm, c3 = quartiles(cv)
    pairs = list(zip(pv, cv))
    wins = sum(better(c, p, lower) for p, c in pairs)
    iqr = p3 - p1
    worse = (cm - pm) / pm if lower else (pm - cm) / pm
    spread = iqr / pm if pm else float("inf")
    all_better = all(better(c, p, lower) for c in cv for p in pv)
    if wins >= 0.9 * len(pairs) and abs(cm - pm) > iqr and better(cm, pm, lower):
        short = "improved"
    elif spread > bound and not all_better:
        short = "unresolved"
    elif worse > bound:
        short = "REGRESSED"
    else:
        short = "no regression"
    detail = (f"parent median {pm:.6g} [q1 {p1:.6g}, q3 {p3:.6g}], change "
              f"median {cm:.6g} [q1 {c1:.6g}, q3 {c3:.6g}], change worse by "
              f"{worse:+.2%} (bound {bound:.0%}), parent spread {spread:.2%}, "
              f"change wins {wins}/{len(pairs)} pairs")
    return short, detail


def info_metrics(records):
    """Names of the recorded metrics BENCHMARK.json does not gate."""
    return [n for n, m in records[0]["metrics"].items() if not m.get("gated", True)]


def compare(parent_files, change_files):
    spec, metrics = load_spec()
    parent, change = load(parent_files), load(change_files)
    bad = False
    for w in [x["name"] for x in spec["workloads"]]:
        if w not in parent and w not in change:
            continue
        n = min(len(parent.get(w, [])), len(change.get(w, [])))
        if n < PAIRS:
            bad = True
            print(f"{w} ({n} pairs): too few pairs, {PAIRS} needed")
            continue
        p, c = parent[w][:n], change[w][:n]
        cells, details = [], []
        for name, m in metrics.items():
            short, detail = verdict(p, c, m)
            bad |= short == "REGRESSED"
            cells.append(f"{name}={short}")
            details.append(f"    {name}: {detail}")
        for name in info_metrics(p):
            # Not gated (see README "Noise"): shown with the same rule but
            # never counted as a regression.
            short, detail = verdict(p, c, {"name": name, "better": "higher" if
                                           name == "queries_per_s" else "lower",
                                           "bound": 0.25})
            details.append(f"    {name} (not gated, {short}): {detail}")
        pf = max(r["failed_frac"] for r in p)
        cf = max(r["failed_frac"] for r in c)
        if cf > pf:
            bad = True
            cells.append(f"FAILED_FRAC ROSE {pf:.3g} -> {cf:.3g}")
        print(f"{w} ({n} pairs): " + "; ".join(cells))
        print("\n".join(details))
    return 1 if bad else 0


def spread(files):
    spec, metrics = load_spec()
    records = load(files)
    for w, recs in records.items():
        print(f"{w} ({len(recs)} runs)")
        for name, m in metrics.items():
            v = [r["metrics"][name]["value"] for r in recs]
            q1, med, q3 = quartiles(v)
            s = (q3 - q1) / med if med else float("inf")
            flag = "" if s <= m["bound"] / 3 else (
                "  above bound/3" if s <= m["bound"] else "  ABOVE BOUND")
            print(f"    {name:16s} median {med:12.6g}  spread {s:7.2%}  "
                  f"bound {m['bound']:.0%}{flag}")


def run(args):
    spec, _ = load_spec()
    seconds = spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    files = {"parent": [], "change": []}
    for w in workloads:
        for i in range(PAIRS):
            seed = FIRST_SEED + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                tree = Path(getattr(args, side)).resolve()
                rec = out / f"{side}-{w}-{seed}.json"
                cmd = ["python3", str(tree / "uxmbench" / "run.py"), "--workload",
                       w, "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", "0", "--out", str(rec)]
                proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.DEVNULL)
                print(f"{side} {w} seed {seed}: exit {proc.returncode}",
                      file=sys.stderr)
                if rec.exists():
                    files[side].append(rec)
    return compare(files["parent"], files["change"])


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("run")
    r.add_argument("--parent", required=True, help="parent checkout")
    r.add_argument("--change", required=True, help="change checkout")
    r.add_argument("--outdir", required=True)
    r.add_argument("--workloads", nargs="*")
    f = sub.add_parser("files")
    f.add_argument("--parent", nargs="+", required=True)
    f.add_argument("--change", nargs="+", required=True)
    s = sub.add_parser("spread")
    s.add_argument("files", nargs="+")
    args = ap.parse_args()
    if args.mode == "run":
        return run(args)
    if args.mode == "files":
        return compare(args.parent, args.change)
    spread(args.files)
    return 0


if __name__ == "__main__":
    sys.exit(main())
