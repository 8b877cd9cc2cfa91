"""The two CLI workloads: ``report-paper`` and ``sweep-structures``.

A run measures for ``--seconds``: it opens with set-up probes (launches
of the no-op ``repro store stats`` on an empty store), then makes a cold
pass in fresh processes on a new empty store, a warm pass against the
first cold pass's store (now warm) and more probes, and repeats while
time remains: the whole cycle for the sweep, the warm pass and probes
for the report, whose one cold pass takes most of a run.  Warm passes are
checked, not timed.  Cold times are the best of their samples (see
``harness.best``); ``setup_s`` is the median of the probes.
"""

import json
import random
import shutil
import time

import checks
from harness import best, class_best, fresh_dir, median

#: Set-up probes at the start of a run and after each warm pass.
PROBES = 3

#: Every paper table and figure (the registry minus the hierarchy
#: extension figures), in the registry's order.
PAPER_FIGURES = (
    "table1 fig01 fig02 table2 fig05 fig07 fig08 fig09 fig10 fig11 fig13 "
    "fig14 fig15 fig16 fig17 fig18 fig19 fig20 fig21 fig22 fig23 fig24 "
    "fig25 table3"
).split()
#: The figures the checks read, for the tiny size the benchmark's tests use.
CHECKED_FIGURES = ["fig07", "fig10", "fig11", "fig17", "fig18", "fig19"]

STRUCTURE_VARIANTS = [
    ("bare", []),
    ("victim", ["--victim-entries", "4"]),
    ("miss", ["--miss-entries", "4"]),
    ("stream", ["--stream-buffers", "4"]),
    ("all", ["--victim-entries", "4", "--miss-entries", "4", "--stream-buffers", "4"]),
]
#: The sweep's programs: the corpus minus liver, whose trace does not
#: shrink with ``--scale`` (27 904 references at any scale) and would be
#: two thirds of a reduced-scale sweep, and linpack, empty below scale 0.1.
SWEEP_WORKLOADS = ["ccom", "grr", "yacc", "met"]


def _store_snapshot(store):
    """Every record file with its size and modification time."""
    return {
        str(path.relative_to(store)): (path.stat().st_size, path.stat().st_mtime_ns)
        for path in sorted(store.rglob("*"))
        if path.is_file()
    }


def _tree(directory):
    if not directory.is_dir():
        return {}
    return {
        path.name: path.read_bytes() for path in sorted(directory.iterdir())
        if path.is_file()
    }


def _passes(program, ctx, run_cold, run_warm, repeat_cold):
    """Probes, then cold pass, warm pass and probes while time remains.

    ``repeat_cold`` repeats the cold pass too; otherwise only the warm
    pass and probes repeat.  A traced run makes one cold and one warm
    pass, so its layer counts do not depend on the host's speed.  Returns
    the median set-up probe.
    """
    empty = fresh_dir(program.work / "empty-store")
    probes = []

    def probe():
        for _ in range(PROBES):
            probes.append(program.run(["store", "stats"], empty).wall)

    started = time.perf_counter()
    probe()
    cold = warm = 0
    while True:
        if cold == 0 or repeat_cold:
            run_cold(cold)
            cold += 1
        run_warm(warm)
        warm += 1
        probe()
        if ctx.traced or time.perf_counter() - started >= ctx.seconds:
            return median(probes)


def report_paper(ctx, program):
    """``repro report`` of the paper's tables and figures, cold and warm."""
    ledger = ctx.ledger
    scale = "0.05" if ctx.tiny else "1.0"
    figures = CHECKED_FIGURES if ctx.tiny else PAPER_FIGURES

    def command(out):
        return ["report", "--out", str(out), "--scale", scale, "--jobs", "1",
                "--figures", *figures]

    cold, first = [], {}

    def run_cold(index):
        store = fresh_dir(program.work / "store")
        out = program.work / "cold"
        done = program.run(command(out), store)
        cold.append(done)
        ledger.op(done.ok, "cold report: " + done.stderr[-300:])
        first.update(store=store, snapshot=_store_snapshot(store),
                     output=(done.stdout.replace(str(out), "<out>"), _tree(out)))

    def run_warm(index):
        out = program.work / f"warm{index}"
        done = program.run(command(out), first["store"])
        ledger.op(done.ok, "warm report: " + done.stderr[-300:])
        output = (done.stdout.replace(str(out), "<out>"), _tree(out))
        given = done.ok and cold[0].ok
        ledger.check(output == first["output"],
                     f"warm report {index} differs from the cold report", given)
        ledger.check(_store_snapshot(first["store"]) == first["snapshot"],
                     f"warm report {index} computed and stored new results", given)
        shutil.rmtree(out, ignore_errors=True)

    setup_s = _passes(program, ctx, run_cold, run_warm, repeat_cold=False)
    _check_report(ctx, first["output"][1], float(scale), cold[0].ok)
    # One command is one operation, so its latency is the cold pass's
    # wall time: the same number as ``cold_wall_s``, not a second reading.
    return {
        "setup_s": setup_s,
        "cold_wall_s": cold[0].wall,
        "peak_rss_mb": cold[0].rss_mb,
        "cold_latency_s": cold[0].wall,
    }


def _check_report(ctx, files, scale, made):
    """Properties of the method, and a seeded sample of points recomputed
    by the independent simulator in ``oracle.py``.  ``made``: whether the
    cold report that wrote ``files`` succeeded."""
    ledger = ctx.ledger
    tables = {}
    for figure in CHECKED_FIGURES:
        raw = files.get(f"{figure}.csv")
        if ledger.check(raw is not None, f"{figure}.csv missing from the report", made):
            tables[figure] = checks.parse_csv(raw.decode("utf-8"))
    if len(tables) < len(CHECKED_FIGURES):
        ledger.check(False, "report properties: figures missing", made)
        ledger.check(False, "report properties: figures missing", made)
        for _ in range(3):
            ledger.check(False, "recomputed points: figures missing", made)
        return
    problems = checks.hasse_order(*tables["fig17"])
    ledger.check(not problems, "; ".join(problems[:3]))
    problems = checks.inclusion_properties(tables)
    ledger.check(not problems, "; ".join(problems[:3]))

    from oracle import trace_columns
    from repro.trace.corpus import BENCHMARK_NAMES, load

    traces = {name: load(name, scale=scale) for name in BENCHMARK_NAMES}
    columns = {name: trace_columns(trace) for name, trace in traces.items()}
    rng = random.Random(ctx.seed)
    for _ in range(2):
        figure = rng.choice(["fig10", "fig11"])
        xs, _ = tables[figure]
        x, workload = rng.choice(xs), rng.choice(BENCHMARK_NAMES)
        problems = checks.miss_fraction_point(
            figure, tables[figure], x, workload, columns[workload])
        ledger.check(not problems, "; ".join(problems))
    figure = rng.choice(["fig18", "fig19"])
    x = rng.choice(tables[figure][0])
    suite = [(columns[name], traces[name].instruction_count) for name in BENCHMARK_NAMES]
    problems = checks.traffic_point(figure, tables[figure], x, suite)
    ledger.check(not problems, "; ".join(problems))


def sweep_structures(ctx, program):
    """Five system sweeps over the size axis, bare and with structures."""
    ledger = ctx.ledger
    scale = "0.02"
    workloads = SWEEP_WORKLOADS[:2] if ctx.tiny else SWEEP_WORKLOADS
    base = ["sweep", "--kind", "system", "--l2-size", "64KB",
            "--metric", "effective_miss_ratio", "--json", "--scale", scale,
            "--jobs", "1"]
    for workload in workloads:
        base += ["--workload", workload]

    def sweep(flags, store):
        done = program.run(base + flags, store)
        try:
            payload = json.loads(done.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            payload = None
        ledger.op(done.ok and payload is not None, "sweep: " + done.stderr[-300:])
        series = payload and (payload.get("x_values"), payload.get("series"))
        return done, payload, series

    cold = {}  # variant -> first cold payload
    cold_walls = {name: [] for name, _ in STRUCTURE_VARIANTS}
    cold_rss, stores = [], []

    def run_cold(index):
        stores.append(fresh_dir(program.work / f"store{index}"))
        for name, flags in STRUCTURE_VARIANTS:
            done, payload, series = sweep(flags, stores[-1])
            cold_walls[name].append(done.wall)
            cold_rss.append(done.rss_mb)
            if index == 0:
                cold[name] = payload
            else:
                first = cold[name] and (cold[name]["x_values"], cold[name]["series"])
                ledger.check(series == first,
                             f"cold sweep {name} ({index}) differs from cold sweep 0",
                             given=payload is not None and cold[name] is not None)

    def run_warm(index):
        for name, flags in STRUCTURE_VARIANTS:
            done, payload, series = sweep(flags, stores[0])
            first = cold[name] and (cold[name]["x_values"], cold[name]["series"])
            given = payload is not None and cold[name] is not None
            ledger.check(series == first,
                         f"warm sweep {name} ({index}) differs from its cold sweep", given)
            ledger.check(given and payload["telemetry"]["computed"] == 0,
                         f"warm sweep {name} ({index}) computed results", given)

    setup_s = _passes(program, ctx, run_cold, run_warm, repeat_cold=True)
    _check_sweeps(ctx, cold, float(scale))
    # A pass is the five variants, each taken at its best; the latency
    # averages the variants (the bare sweep is ~5x faster than the rest).
    # Every variant runs once per pass, so it is ``cold_wall_s / 5``.
    return {
        "setup_s": setup_s,
        "cold_wall_s": sum(best(walls) for walls in cold_walls.values()),
        "peak_rss_mb": max(cold_rss),
        "cold_latency_s": class_best(cold_walls),
    }


def _check_sweeps(ctx, cold, scale):
    ledger = ctx.ledger
    bare = cold["bare"]
    for name, _ in STRUCTURE_VARIANTS[1:]:
        variant = cold[name]
        if bare is None or variant is None:
            ledger.check(False, f"{name}: no sweep output to compare", given=False)
            continue
        bare_series = {k: v for k, v in bare["series"].items() if k != "average"}
        series = {k: v for k, v in variant["series"].items() if k != "average"}
        problems = checks.not_above_bare(name, bare_series, series)
        ledger.check(not problems, "; ".join(problems[:3]))

    from oracle import trace_columns
    from repro.trace.corpus import load

    rng = random.Random(ctx.seed)
    for _ in range(2):
        if bare is None:
            ledger.check(False, "bare sweep missing", given=False)
            continue
        workloads = sorted(k for k in bare["series"] if k != "average")
        workload = rng.choice(workloads)
        index = rng.randrange(len(bare["x_values"]))
        columns = trace_columns(load(workload, scale=scale))
        problems = checks.bare_miss_ratio(
            bare["series"], bare["x_values"], workload, index, columns)
        ledger.check(not problems, "; ".join(problems))
