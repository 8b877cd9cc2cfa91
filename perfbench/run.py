"""End-to-end benchmark of the reproduction: one workload per run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload report-paper --seed 1 --seconds 30 --trace 0

It builds nothing (the program is pure Python under ``src/``), works in
``.perfbench/`` inside the checkout, and prints as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run repeats the workload untraced and then traced (``boot.py``) and
prints the per-layer metrics plus the tracing overhead.  See README.md.
"""

import argparse
import json
import os
import pathlib
import shutil
import sys
from dataclasses import dataclass

import cli_workloads  # noqa: E402
import layers  # noqa: E402
import service_load  # noqa: E402
from harness import Ledger, Program  # noqa: E402

#: name -> unit of every end-to-end metric (all lower-is-better).  The
#: warm passes are checked but not reported: on the host this was built
#: on their times spread 39% over ten runs (see README.md).
END_TO_END = {
    "setup_s": "s",
    "cold_wall_s": "s",
    "peak_rss_mb": "MB",
    "cold_latency_s": "s",
}


def _cli(function):
    def run(ctx, program):
        return function(ctx, program), {}

    return run


WORKLOADS = {
    "report-paper": _cli(cli_workloads.report_paper),
    "sweep-structures": _cli(cli_workloads.sweep_structures),
    "service-mixed": service_load.service_mixed,
}


@dataclass
class Context:
    seed: int
    seconds: float
    tiny: bool
    ledger: Ledger
    #: A traced run does its workload twice, so the CLI workloads make one
    #: cold and one warm pass each time, whatever ``seconds`` says.
    traced: bool = False


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=30.0,
        help="how long to measure: the CLI workloads repeat passes until "
             "it has passed; service-mixed runs seconds/2 rounds, about as long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="smallest inputs (the benchmark's own tests); not for measuring")
    return parser.parse_args(argv)


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"no program source at {root / 'src' / 'repro'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".perfbench" / f"{args.workload}-{os.getpid()}"
    ctx = Context(args.seed, args.seconds, args.tiny, Ledger(), bool(args.trace))
    run = WORKLOADS[args.workload]
    try:
        if args.trace:
            base, _ = run(ctx, Program(root, work / "base", traced=False))
            traced_program = Program(root, work / "traced", traced=True)
            traced, service_layer = run(ctx, traced_program)
            processes = layers.load_processes(traced_program.spans_dir)
            for name in layers.missing_boundaries(processes):
                print(f"boundary not found in the program: {name}", file=sys.stderr)
            values = dict.fromkeys(layers.PER_LAYER, 0.0)
            values.update(layers.summarize(processes))
            values.update(service_layer)
            for name in ("cold_wall_s", "cold_latency_s"):
                values[f"overhead.{name}"] = traced[name] - base[name]
            metrics = {name: _metric(values[name], unit)
                       for name, (unit, _) in layers.PER_LAYER.items()}
        else:
            values, _ = run(ctx, Program(root, work, traced=False))
            metrics = {name: _metric(values[name], unit)
                       for name, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for note in ctx.ledger.notes:
        print(note, file=sys.stderr)
    print(json.dumps({
        "correct": ctx.ledger.correct,
        "attempted": ctx.ledger.attempted,
        "failed": ctx.ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
