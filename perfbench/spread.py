#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py [--workloads swe,mswe] [--seeds 10]
        [--first-seed 1] [--trace 0|1|both] [--out FILE] [--against FILE]

Runs every workload (all by default) once per seed, untraced (--trace 0,
the default), traced (1) or both. For every workload and metric it prints
the median, the quartiles, and the distance between the quartiles as a
share of the median (Python's statistics.quantiles(values, n=4)), and for
end-to-end metrics whether that share is within a third of the metric's
bound in BENCHMARK.json. `--seeds 1 --trace both` is the quick full check:
every metric of every workload, every output checked.
--out writes the same figures as JSON, one trajectory point (see
perfbench/trajectory/). --against compares each end-to-end median with
the one in an earlier such file: the change in the worse direction must
stay within the metric's bound. Exits 1 if any run fails or any
comparison is out of bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        return None
    result = json.loads(lines[-1])
    config = next((json.loads(l[len("config "):]) for l in lines
                   if l.startswith("config ")), {})
    return result, config


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", choices=("0", "1", "both"), default="0")
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args()
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)["workloads"]

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "trace": args.trace,
              "seeds": list(range(args.first_seed,
                                  args.first_seed + args.seeds)),
              "workloads": {}}
    modes = (0, 1) if args.trace == "both" else (int(args.trace),)
    ok = True
    for workload in args.workloads.split(","):
        values, config = {}, {}
        for seed in report["seeds"]:
            for trace in modes:
                got = run_once(workload, seed, bench["run_seconds"], trace)
                if got is None or not got[0]["correct"]:
                    print(f"{workload} seed {seed} trace {trace}: FAILED")
                    ok = False
                    continue
                result, config = got
                for name, m in result["metrics"].items():
                    values.setdefault(name, (m["unit"], []))[1].append(
                        m["value"])
        rows = {}
        for name, (unit, vals) in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (med, med, med))
            share = (q3 - q1) / med if med else 0.0
            rows[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                          "iqr_share": share, "values": vals}
            verdict = ""
            if name in bounds:
                verdict = "ok" if share <= bounds[name] / 3 else "WIDE"
                verdict += f" (bound {bounds[name]})"
                before = (earlier.get(workload, {}).get("metrics", {})
                          .get(name, {}).get("median"))
                if before:
                    worse = (med - before if lower[name] else before - med)
                    worse /= before
                    within = worse <= bounds[name]
                    ok = ok and within
                    verdict += (f"; vs earlier {before:.6g}: {worse:+.4f} "
                                f"{'ok' if within else 'OUT OF BOUND'}")
            print(f"{workload:10} {name:34} {med:14.6g} {unit:8} "
                  f"iqr/median {share:7.4f} {verdict}")
        for key in ("seed", "trace", "commit"):
            config.pop(key, None)
        report["workloads"][workload] = {"config": config, "metrics": rows}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
