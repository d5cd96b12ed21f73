#!/usr/bin/env python3
"""Build the ccsdsldpc benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload serve-c2 --seed 1 --seconds 30 --trace 0

builds perfbench/ (a Go module that imports the repository's packages
through a `replace ../` directive) into .bench_build/, with the Go build
cache kept there too, then runs the binary with the same arguments. The
last line of standard output is the result object.

Steadiness mode runs one workload (or all of them) several times back to
back, one seed after another, and prints each metric's median, quartiles,
min/max and spread (quartile distance over median) beside the bound in
BENCHMARK.json:

    python3 perfbench/run.py --steady 10 --workload serve-c2 --seconds 30
    python3 perfbench/run.py --steady 5 --workload all --trace 1
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"


def build():
    env = dict(os.environ)
    env.update({
        "GOCACHE": str(BUILD / "gocache"),
        "GOPATH": str(BUILD / "gopath"),
        "GOMODCACHE": str(BUILD / "gopath" / "pkg" / "mod"),
        "XDG_CONFIG_HOME": str(BUILD / "config"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOPROXY": "off",
    })
    BUILD.mkdir(exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", str(BINARY), "."], cwd=HERE, env=env)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")


def run_once(args):
    """Runs the binary, relaying its output; returns (exit code, last stdout line)."""
    proc = subprocess.run([str(BINARY)] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else "")


def steady(ns):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]] if ns.workload == "all" else [ns.workload]
    key = "per_layer" if ns.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[key]}
    seconds = ns.seconds if ns.seconds is not None else spec["run_seconds"]
    for name in names:
        values = {}
        for i in range(ns.steady):
            seed = ns.seed + i
            code, last = run_once(["--workload", name, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", str(ns.trace)])
            if code != 0:
                sys.exit(f"perfbench: {name} seed {seed} exited {code}")
            for metric, v in json.loads(last)["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        print(f"\n{name}: {ns.steady} runs, seeds {ns.seed}..{ns.seed + ns.steady - 1}, {seconds}s each")
        print(f"{'metric':34} {'median':>11} {'q1':>11} {'q3':>11} {'min':>11} {'max':>11} {'spread':>7} {'bound':>6}")
        for metric in sorted(values):
            vs = values[metric]
            q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(metric)
            print(f"{metric:34} {med:11.4g} {q1:11.4g} {q3:11.4g} {min(vs):11.4g} {max(vs):11.4g} "
                  f"{spread:7.3f} {'' if bound is None else bound:>6}")
        sys.stdout.flush()


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--steady", type=int, default=0, metavar="N",
                    help="run N seeds back to back and summarise each metric")
    ns = ap.parse_args()
    build()
    if ns.steady:
        steady(ns)
        return
    args = ["--workload", ns.workload, "--seed", str(ns.seed), "--trace", str(ns.trace)]
    if ns.seconds is not None:
        args += ["--seconds", str(ns.seconds)]
    code, _ = run_once(args)
    sys.exit(code)


if __name__ == "__main__":
    main()
