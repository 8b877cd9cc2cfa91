"""Per-layer metrics from the span files a traced run leaves behind.

A layer's time is its spans' *self* time: each span's duration minus the
durations of the spans opened directly inside it.  Counts are summed over
every traced process of the run; ``cli.import_s`` is the median over
those processes.
"""

import json
import pathlib

from harness import median

#: Every per-layer metric: name -> (unit, better).  Kept in step with
#: ``BENCHMARK.json``; the run prints all of them on every workload, with
#: 0 where the workload does not reach a layer.
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "trace.generate_s": ("s", "lower"),
    "trace.generated_refs": ("refs", "lower"),
    "trace.ingest_s": ("s", "lower"),
    "trace.ingest_refs_per_s": ("refs/s", "higher"),
    "trace.catalog_s": ("s", "lower"),
    "cache.rdsim_s": ("s", "lower"),
    "cache.rdsim_runs": ("runs", "higher"),
    "cache.vector_s": ("s", "lower"),
    "cache.vector_runs": ("runs", "higher"),
    "cache.reference_s": ("s", "lower"),
    "cache.reference_runs": ("runs", "lower"),
    "buffers.write_cache_s": ("s", "lower"),
    "buffers.write_cache_refs_per_s": ("refs/s", "higher"),
    "buffers.write_buffer_s": ("s", "lower"),
    "buffers.victim_buffer_s": ("s", "lower"),
    "hierarchy.vector_s": ("s", "lower"),
    "hierarchy.vector_runs": ("runs", "higher"),
    "hierarchy.composed_s": ("s", "lower"),
    "hierarchy.composed_runs": ("runs", "lower"),
    "hierarchy.composed_refs_per_s": ("refs/s", "higher"),
    "exec.pool_self_s": ("s", "lower"),
    "exec.store_read_s": ("s", "lower"),
    "exec.store_reads": ("count", "lower"),
    "exec.store_write_s": ("s", "lower"),
    "exec.store_writes": ("count", "lower"),
    "exec.computed": ("count", "lower"),
    "exec.store_hits": ("count", "higher"),
    "exec.memory_hits": ("count", "higher"),
    "core.figure_self_s": ("s", "lower"),
    "core.headline_self_s": ("s", "lower"),
    "core.report_write_s": ("s", "lower"),
    "service.submit_s": ("s", "lower"),
    "service.result_s": ("s", "lower"),
    "service.queue_wait_s": ("s", "lower"),
    "service.run_s": ("s", "lower"),
    "service.upload_s": ("s", "lower"),
    "service.jobs_per_s": ("1/s", "higher"),
    "service.coalesced": ("count", "higher"),
    "overhead.cold_wall_s": ("s", "lower"),
    "overhead.cold_latency_s": ("s", "lower"),
}

#: metric -> (span name, what): self time, summed runs, or refs per
#: second of the spans' own duration.
_FROM_SPANS = {
    "trace.generate_s": ("trace.generate", "self"),
    "trace.generated_refs": ("trace.generate", "refs"),
    "trace.ingest_s": ("trace.ingest", "self"),
    "trace.ingest_refs_per_s": ("trace.ingest", "rate"),
    "trace.catalog_s": ("trace.catalog", "self"),
    "cache.rdsim_s": ("cache.rdsim", "self"),
    "cache.rdsim_runs": ("cache.rdsim", "runs"),
    "cache.vector_s": ("cache.vector", "self"),
    "cache.vector_runs": ("cache.vector", "runs"),
    "cache.reference_s": ("cache.reference", "self"),
    "cache.reference_runs": ("cache.reference", "runs"),
    "buffers.write_cache_s": ("buffers.write_cache", "self"),
    "buffers.write_cache_refs_per_s": ("buffers.write_cache", "rate"),
    "buffers.write_buffer_s": ("buffers.write_buffer", "self"),
    "buffers.victim_buffer_s": ("buffers.victim_buffer", "self"),
    "hierarchy.vector_s": ("hierarchy.vector", "self"),
    "hierarchy.vector_runs": ("hierarchy.vector", "runs"),
    "hierarchy.composed_s": ("hierarchy.composed", "self"),
    "hierarchy.composed_runs": ("hierarchy.composed", "runs"),
    "hierarchy.composed_refs_per_s": ("hierarchy.composed", "rate"),
    "exec.pool_self_s": ("exec.pool", "self"),
    "exec.store_read_s": ("exec.store_read", "self"),
    "exec.store_reads": ("exec.store_read", "runs"),
    "exec.store_write_s": ("exec.store_write", "self"),
    "exec.store_writes": ("exec.store_write", "runs"),
    "core.figure_self_s": ("core.figure", "self"),
    "core.headline_self_s": ("core.headline", "self"),
    "core.report_write_s": ("core.report_write", "self"),
}

_POOL_COUNTERS = {
    "exec.computed": "computed",
    "exec.store_hits": "store_hits",
    "exec.memory_hits": "memory_hits",
}


def _duration(span):
    return span[2] - span[1] if span[2] else 0.0


def self_times(spans):
    """Per-span self time, for spans as written by ``boot.py`` (a span
    still open when its process exited has end 0 and counts as 0)."""
    own = [_duration(span) for span in spans]
    for span in spans:
        parent = span[3]
        if 0 <= parent < len(spans):
            own[parent] -= _duration(span)
    return own


def load_processes(spans_dir: pathlib.Path):
    if not spans_dir.is_dir():
        return []
    return [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(spans_dir.glob("*.json"))
    ]


def summarize(processes):
    """Per-layer metrics (everything except ``service.*`` and overhead)."""
    totals = {}
    for process in processes:
        spans = process["spans"]
        for span, own in zip(spans, self_times(spans)):
            entry = totals.setdefault(span[0], [0.0, 0.0, 0, 0])
            entry[0] += own
            entry[1] += _duration(span)
            entry[2] += span[5]
            entry[3] += span[6]
    metrics = {}
    for metric, (span_name, what) in _FROM_SPANS.items():
        own, inclusive, runs, refs = totals.get(span_name, (0.0, 0.0, 0, 0))
        if what == "self":
            metrics[metric] = max(own, 0.0)
        elif what == "runs":
            metrics[metric] = runs
        elif what == "refs":
            metrics[metric] = refs
        else:
            metrics[metric] = refs / inclusive if inclusive > 0 else 0.0
    for metric, counter in _POOL_COUNTERS.items():
        metrics[metric] = sum(int(p["pool"].get(counter, 0)) for p in processes)
    metrics["cli.import_s"] = median([p["import_s"] for p in processes])
    return metrics


def missing_boundaries(processes):
    """Boundaries the bootstrap could not find in the program."""
    return sorted({name for p in processes for name in p.get("missing", [])})
