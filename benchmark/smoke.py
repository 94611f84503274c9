#!/usr/bin/env python3
"""Benchmark self-test (the benchmark_smoke ctest).

    python3 smoke.py PUPIL_BENCH BENCHMARK_JSON WORKDIR

Runs every workload at --scale 0.05, untraced and traced, and checks that
both runs exit 0 with no failed ops; that the traced pass digest equals
the untraced one; that every metric BENCHMARK.json names is reported with
its unit and direction; and that each traced run wrote a well-formed
Chrome trace whose spans nest by id.
"""
import json
import os
import subprocess
import sys


def run(binary, workdir, traced):
    out = os.path.join(workdir, "traced.json" if traced else "untraced.json")
    cmd = [binary, "--workload", "all", "--seed", "7", "--scale", "0.05",
           "--out", out]
    if traced:
        cmd += ["--trace", os.path.join(workdir, "trace.json")]
    code = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
    if code != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {code}")
    with open(out) as f:
        return {r["workload"]: r for r in json.load(f)["workloads"]}


def check_trace(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    assert events, f"{path}: no events"
    ids = {e["args"]["id"] for e in events}
    for e in events:
        assert e["ph"] == "X" and e["dur"] >= 0 and e["ts"] >= 0, e
        assert e["args"]["parent"] == 0 or e["args"]["parent"] in ids, e


def main(binary, spec_path, workdir):
    os.makedirs(workdir, exist_ok=True)
    with open(spec_path) as f:
        spec = json.load(f)
    plain = run(binary, workdir, traced=False)
    traced = run(binary, workdir, traced=True)
    assert sorted(plain) == sorted(w["name"] for w in spec["workloads"])
    for name in plain:
        p, t = plain[name], traced[name]
        for r in (p, t):
            assert r["correct"] and r["ops"] > 0 and r["ops_failed"] == 0, r
        assert t["digest"] == t["untraced_digest"] == p["digest"], name
        for key, result in (("end_to_end", p), ("per_layer", t)):
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                assert got is not None, f"{name}: {m['name']} missing"
                assert got["unit"] == m["unit"], (name, m, got)
                assert got["better"] == m["better"], (name, m, got)
                assert got["value"] == got["value"], (name, m)  # not NaN
        stem, ext = os.path.splitext(os.path.join(workdir, "trace.json"))
        check_trace(f"{stem}.{name}{ext}")
    print(f"benchmark smoke ok: {', '.join(sorted(plain))}")


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    main(*sys.argv[1:])
