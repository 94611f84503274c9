#!/usr/bin/env python3
"""Compare pupil_bench results of a parent and a change, or summarise one side.

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR
    python3 benchmark/compare.py --summary DIR [--traced FILE]

Each DIR holds pupil_bench --out files (*.json), one per run; run i of the
parent and run i of the change (in file-name order) form pair i. For every
(workload, metric) the comparison prints each side's median and quartiles,
the share of pairs the change won (ties count for neither) and a verdict:

  improved    the change won >= 9/10 of the pairs and the medians differ by
              more than the parent's own quartile spread
  worse       the change's median is worse than the parent's by more than
              the metric's bound (and its absolute slack, if any)
  unchanged   neither
  unresolved  the parent's own spread exceeds the bound, so "unchanged"
              cannot be claimed (unless every change run beats every
              parent run)
  rerun on a quieter host
              in place of improved or worse for a host metric whose
              slice/period IQR, as recorded by pupil_bench, exceeds the
              bound on either side

Simulated metrics are deterministic per seed: any difference is reported
as a behaviour change, as is a digest mismatch. A higher share of failed
ops is flagged too. Exit status: 1 when anything is worse, failed more or
changed behaviour, else 0.

--summary prints one JSON document with each metric's median, quartiles
and n over DIR's runs, the host's CPU count and model, and (with
--traced) the per-layer table of one traced run.
"""
import glob
import json
import os
import statistics
import sys


def load_runs(directory, traced=False):
    """{workload: [result, ...]} over the (un)traced runs, in file order."""
    runs = {}
    paths = sorted(glob.glob(os.path.join(directory, "*.json")))
    if not paths:
        sys.exit(f"compare.py: no *.json results in {directory}")
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        if doc["traced"] != traced:
            continue
        for result in doc["workloads"]:
            runs.setdefault(result["workload"], []).append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(spec, parent, change, parent_noise, change_noise):
    """Verdict and share of pairs won for one (workload, metric)."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if (c - p) * sign > 0)
    won = wins / len(pairs) if pairs else 0.0
    if spec["kind"] == "sim":
        if parent == change:
            return "unchanged", won
        return "behaviour changed", won
    if spec["kind"] == "layer":
        return "(per-layer: no bound)", won

    bound, slack = spec["bound"], spec["bound_abs"]
    q1, med_p, q3 = quartiles(parent)
    med_c = quartiles(change)[1]
    gain = (med_c - med_p) * sign
    improved = won >= 0.9 and gain > (q3 - q1)
    all_better = all((c - p) * sign > 0 for p in parent for c in change)
    if (q3 - q1) > bound * abs(med_p) and not (improved and all_better):
        return "unresolved", won
    if improved:
        v = "improved"
    elif -gain > bound * abs(med_p) and -gain > slack:
        v = "worse"
    else:
        return "unchanged", won
    if max(parent_noise, change_noise) > bound:
        return "rerun on a quieter host", won
    return v, won


def compare(parent_dir, change_dir):
    status = 0
    for traced in (False, True):
        parent_runs = load_runs(parent_dir, traced)
        change_runs = load_runs(change_dir, traced)
        for workload in sorted(set(parent_runs) | set(change_runs)):
            status |= compare_workload(
                workload + (" (traced)" if traced else ""),
                parent_runs.get(workload, []), change_runs.get(workload, []))
    return status


def compare_workload(workload, ps, cs):
    status = 0
    print(f"\n== {workload}: {len(ps)} parent runs, {len(cs)} change runs")
    if not ps or not cs:
        print("   missing on one side")
        return 1
    p_digests = {r["digest"] for r in ps}
    c_digests = {r["digest"] for r in cs}
    if len(p_digests) > 1 or len(c_digests) > 1:
        print("   !! digests differ between runs of one side "
              "(non-deterministic, or different seeds)")
        status = 1
    if p_digests != c_digests:
        print(f"   !! behaviour changed: digest {sorted(p_digests)} -> "
              f"{sorted(c_digests)}")
        status = 1

    def fail_share(rs):
        return sum(r["ops_failed"] for r in rs) / max(
            1, sum(r["ops"] for r in rs))
    if fail_share(cs) > fail_share(ps):
        print(f"   !! failed ops {fail_share(ps):.4%} -> "
              f"{fail_share(cs):.4%}")
        status = 1

    p_noise = statistics.median(r["noise_iqr_frac"] for r in ps)
    c_noise = statistics.median(r["noise_iqr_frac"] for r in cs)
    print(f"   slice/period IQR (median run): parent {p_noise:.1%}, "
          f"change {c_noise:.1%}")
    names = [n for n in ps[0]["metrics"] if n in cs[0]["metrics"]]
    print(f"   {'metric':18s} {'unit':9s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'delta':>8s} {'won':>5s}  "
          "verdict")
    for name in names:
        spec = ps[0]["metrics"][name]
        parent = [r["metrics"][name]["value"] for r in ps]
        change = [r["metrics"][name]["value"] for r in cs]
        v, won = verdict(spec, parent, change, p_noise, c_noise)
        if v in ("worse", "behaviour changed"):
            status = 1
        pq, cq = quartiles(parent), quartiles(change)
        delta = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
        side = "{:.5g} [{:.5g}, {:.5g}]"
        print(f"   {name:18s} {spec['unit']:9s} "
              f"{side.format(pq[1], pq[0], pq[2]):34s} "
              f"{side.format(cq[1], cq[0], cq[2]):34s} "
              f"{delta:+8.2%} {won:5.0%}  {v}")
    return status


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def summary(directory, traced_path):
    runs = load_runs(directory)
    first = json.load(open(sorted(glob.glob(
        os.path.join(directory, "*.json")))[0]))
    out = {"schema": "pupil-bench-summary-v1", "seed": first["seed"],
           "seconds": first["seconds"], "threads": first["threads"],
           "nproc": first["nproc"], "cpu": cpu_model(), "workloads": {}}
    for workload, rs in sorted(runs.items()):
        entry = {"runs": len(rs), "digests": sorted({r["digest"] for r in rs}),
                 "ops": [r["ops"] for r in rs],
                 "ops_failed": sum(r["ops_failed"] for r in rs),
                 "slice_iqr_frac": [r["noise_iqr_frac"] for r in rs],
                 "metrics": {}}
        for name, spec in rs[0]["metrics"].items():
            q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in rs])
            entry["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                      "n": len(rs), "unit": spec["unit"],
                                      "kind": spec["kind"]}
        out["workloads"][workload] = entry
    if traced_path:
        with open(traced_path) as f:
            for r in json.load(f)["workloads"]:
                out["workloads"].setdefault(r["workload"], {})["layers"] = {
                    "digest": r["digest"],
                    "untraced_digest": r["untraced_digest"],
                    "metrics": {n: {k: m[k] for k in
                                    ("value", "unit", "layer", "moves", "n")}
                                for n, m in r["metrics"].items()}}
    json.dump(out, sys.stdout, indent=1)
    print()


def main(argv):
    if len(argv) >= 2 and argv[0] == "--summary":
        traced = None
        if len(argv) == 4 and argv[2] == "--traced":
            traced = argv[3]
        elif len(argv) != 2:
            sys.exit(__doc__)
        summary(argv[1], traced)
        return 0
    if len(argv) != 2:
        sys.exit(__doc__)
    return compare(argv[0], argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
