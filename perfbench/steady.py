"""Steadiness check: two sets of runs per workload, alternating.

    python3 perfbench/steady.py --runs 5 [--workload NAME ...] [--seconds S]

For run ``i`` of each workload, set A (seed ``i + 1``) and set B (seed
``runs + i + 1``) run back to back, the side that goes first alternating
with ``i``.  For every end-to-end metric it prints each set's median and
quartiles, the spread (quartile distance over the median), the spread of
all runs together, and the gap between the two medians, each against the
metric's bound in ``BENCHMARK.json``; then each set's failed share.
"""

import argparse
import json
import pathlib
import subprocess
import sys
from fractions import Fraction

from harness import quartiles

ROOT = pathlib.Path.cwd()


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve().parent / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def report(workload, sets, metrics):
    print(f"\n== {workload}")
    print(f"{'metric':22s} {'bound':>6s} {'set':>3s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>7s}")
    verdicts = []
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for label, results in sets.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = quartiles(values)
            medians.append(q2)
            print(f"{name:22s} {bound:6.2f} {label:>3s} {q2:10.4f} {q1:10.4f} "
                  f"{q3:10.4f} {spread(values):7.1%}  runs: "
                  + " ".join(f"{value:.4g}" for value in values))
        both = [r["metrics"][name]["value"] for rs in sets.values() for r in rs]
        gap = (medians[1] - medians[0]) / medians[0] if medians[0] else 0.0
        worst = max(spread([r["metrics"][name]["value"] for r in rs])
                    for rs in sets.values())
        ok = worst <= bound and abs(gap) <= bound
        verdicts.append(ok)
        print(f"{'':22s} {'':6s} all spread {spread(both):.1%}; B vs A median "
              f"{gap:+.1%}; {'ok' if ok else 'OUT OF BOUND'}"
              f"{'' if worst <= bound / 3 else ' (spread > bound/3)'}")
    shares = {label: {Fraction(r["failed"], r["attempted"]) for r in rs}
              for label, rs in sets.items()}
    print("failed share per set: " + "; ".join(
        f"{label}: {', '.join(str(s) for s in sorted(v))}" for label, v in shares.items()))
    correct = all(r["correct"] for rs in sets.values() for r in rs)
    same_share = len(set().union(*shares.values())) == 1
    print(f"all correct: {correct}; one failed share: {same_share}")
    return all(verdicts) and correct and same_share


def main(argv=None):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workload", action="append", dest="workloads",
                        choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workloads or [w["name"] for w in config["workloads"]]
    steady = True
    for workload in workloads:
        sets = {"A": [], "B": []}
        for index in range(args.runs):
            order = ("A", "B") if index % 2 == 0 else ("B", "A")
            for label in order:
                seed = index + 1 + (args.runs if label == "B" else 0)
                sets[label].append(run_once(workload, seed, args.seconds))
        steady &= report(workload, sets, config["end_to_end"])
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
