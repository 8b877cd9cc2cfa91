"""The benchmark's own tests: ``python3 -m pytest perfbench -q`` from the root.

Every workload runs end to end at its tiny size, and each output check is
shown to fail on a corrupted result.
"""

import copy
import json
import pathlib
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
from harness import Ledger  # noqa: E402
from oracle import dm_misses, trace_columns  # noqa: E402
from run import END_TO_END  # noqa: E402


def _run(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return done


def _result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["report-paper", "sweep-structures", "service-mixed"])
def test_workload_runs_end_to_end(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "1", "--tiny"))
    assert result["correct"], result
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values()), result
    if workload == "service-mixed":
        # One known fault per round of 37 operations: an address >= 2**63.
        assert Fraction(result["failed"], result["attempted"]) == Fraction(1, 37)
    else:
        assert result["failed"] == 0


def test_traced_run_reports_every_layer_metric():
    result = _result(_run("--workload", "sweep-structures", "--seconds", "1",
                          "--tiny", "--trace", "1"))
    metrics = result["metrics"]
    assert set(metrics) == set(layers.PER_LAYER)
    assert metrics["hierarchy.composed_runs"]["value"] > 0
    assert metrics["hierarchy.vector_runs"]["value"] > 0
    assert metrics["cli.import_s"]["value"] > 0


def test_benchmark_config_lists_the_printed_metrics():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in config["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in config["per_layer"]] == list(layers.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "report-paper", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_known_failure_keeps_correct_but_a_bad_check_does_not():
    ledger = Ledger()
    ledger.op(False, "known", known=True)
    assert ledger.correct and ledger.failed == 1
    ledger.check(False, "output of a failed job", given=False)
    assert ledger.correct and ledger.failed == 2
    ledger.check(False, "wrong output")
    assert not ledger.correct and ledger.failed == 3 and ledger.attempted == 3


def test_a_failed_service_job_is_counted_not_fatal(monkeypatch):
    """Every sweep of an ingested capture fails: the round still ends, the
    sweeps and the replays they would have had count as failed, and no
    output is called wrong."""
    from concurrent.futures import ThreadPoolExecutor

    import service_load
    from run import Context

    counts = {"refs": 1, "reads": 1, "writes": 0}
    monkeypatch.setattr(service_load, "capture", lambda rng, refs: (b"t", b"d", counts))

    def upload(url, body, fmt, samples):
        if body == service_load.HIGH_ADDRESS_CAPTURE:
            return 400, {"error": "address must be non-negative"}
        return 201, {"hash": "h", **counts}

    def run_job(url, payload, accepted_event=None):
        if accepted_event is not None:
            accepted_event.set()
        if payload["workloads"][0].startswith("ingested:"):
            return service_load.JobResult(False, error="injected failure")
        return service_load.JobResult(True, results=[{"read_misses": 1}], specs=[{}])

    monkeypatch.setattr(service_load, "upload", upload)
    monkeypatch.setattr(service_load, "run_job", run_job)
    ctx = Context(seed=1, seconds=1, tiny=True, ledger=Ledger())
    current = service_load.Round(ctx, "http://unused", service_load.Payloads(0.05), 0,
                                 service_load.Samples())
    with ThreadPoolExecutor(2) as pool:
        current.run(pool)
    # 36 of a round's 37 operations (the oracle check runs after the load):
    # 4 failed sweeps, 2 replays each of the job they did not make, and
    # the known fault.
    assert (ctx.ledger.attempted, ctx.ledger.failed) == (36, 9)
    assert ctx.ledger.correct, ctx.ledger.notes


# -- each check fails on a corrupted result ---------------------------------

FIG17 = ([1.0, 2.0], {"fetch-on-write": [10.0, 9.0], "write-validate": [7.0, 6.0],
                      "write-around": [8.0, 6.5], "write-invalidate": [8.0, 7.0]})


def test_hasse_order():
    assert checks.hasse_order(*FIG17) == []
    bad = copy.deepcopy(FIG17)
    bad[1]["write-invalidate"][1] = 9.5  # above fetch-on-write
    assert checks.hasse_order(*bad)


def test_inclusion_properties():
    tables = {
        "fig18": ([1.0, 2.0, 4.0], {"read misses": [0.3, 0.2, 0.1],
                                    "write misses": [0.1, 0.1, 0.05]}),
        "fig07": ([0.0, 1.0, 2.0], {"ccom": [0.0, 40.0, 50.0]}),
    }
    assert checks.inclusion_properties(tables) == []
    bad = copy.deepcopy(tables)
    bad["fig18"][1]["read misses"][2] = 0.21  # misses rise with size
    assert checks.inclusion_properties(bad)
    bad = copy.deepcopy(tables)
    bad["fig07"][1]["ccom"][2] = 39.0  # fewer writes removed with more entries
    assert checks.inclusion_properties(bad)


@pytest.fixture(scope="module")
def ccom():
    from repro.trace.corpus import load

    trace = load("ccom", scale=0.05)
    return trace, trace_columns(trace)


def test_recomputed_report_point(ccom):
    trace, cols = ccom
    reads, writes = dm_misses(*cols, 4 * 1024, 16)
    good = 100.0 * writes / (reads + writes)
    off_by_one = 100.0 * (writes + 1) / (reads + writes + 1)
    table = ([4.0], {"ccom": [float(f"{good:.6g}")]})
    assert checks.miss_fraction_point("fig10", table, 4.0, "ccom", cols) == []
    table = ([4.0], {"ccom": [float(f"{off_by_one:.6g}")]})
    assert checks.miss_fraction_point("fig10", table, 4.0, "ccom", cols)


def test_recomputed_traffic_point(ccom):
    trace, cols = ccom
    reads, writes = dm_misses(*cols, 8 * 1024, 16)
    count = trace.instruction_count
    table = ([8.0], {"read misses": [reads / count], "write misses": [writes / count]})
    assert checks.traffic_point("fig18", table, 8.0, [(cols, count)]) == []
    table[1]["read misses"][0] *= 1.001
    assert checks.traffic_point("fig18", table, 8.0, [(cols, count)])


def test_bare_sweep_point(ccom):
    trace, cols = ccom
    reads, writes = dm_misses(*cols, 2 * 1024, 16)
    series = {"ccom": [(reads + writes) / len(trace)]}
    assert checks.bare_miss_ratio(series, [2], "ccom", 0, cols) == []
    series = {"ccom": [(reads + writes + 1) / len(trace)]}  # one fetch too many
    assert checks.bare_miss_ratio(series, [2], "ccom", 0, cols)


def test_structure_variant_above_bare():
    bare = {"ccom": [0.2, 0.1]}
    assert checks.not_above_bare("victim", bare, {"ccom": [0.15, 0.1]}) == []
    assert checks.not_above_bare("victim", bare, {"ccom": [0.15, 0.1000001]})


def test_service_result_against_the_reference_engine():
    from repro.cache.config import CacheConfig
    from repro.cache.fastsim import simulate_trace
    from repro.exec.keys import ExperimentSpec
    from repro.trace.corpus import load
    from service_load import oracle_check

    spec = ExperimentSpec(kind="cache", workload="ccom", scale=0.05, seed=7,
                          config=CacheConfig(size=2048))
    stats = simulate_trace(load("ccom", scale=0.05, seed=7), spec.config).to_dict()
    ledger = Ledger()
    oracle_check(ledger, (spec.to_dict(), stats))
    assert ledger.correct
    stats["read_misses"] += 1
    oracle_check(ledger, (spec.to_dict(), stats))
    assert not ledger.correct


def test_identical_outputs():
    stats = {"read_misses": 5, "write_misses": 2}
    assert checks.same("replay", stats, dict(stats)) == []
    assert checks.same("replay", stats, {**stats, "write_misses": 3})
