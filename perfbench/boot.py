"""Traced launcher: ``python boot.py <repro args>`` in place of ``python -m repro``.

It imports the program, wraps the public functions at each layer
boundary (table ``BOUNDARIES``) so that every call records a span, then
calls ``repro.cli.main``.  Spans are kept in memory and written as one
JSON file per process to ``$PERFBENCH_SPANS`` when the process exits,
together with the time from ``$PERFBENCH_T0`` (set by the parent just
before the spawn) to ``repro.cli`` being imported, and the pool's own
telemetry counters.  Nothing in the program is changed on disk.
"""

import atexit
import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time

T0 = float(os.environ.get("PERFBENCH_T0") or time.time())

import repro.cli  # noqa: E402  (the import being timed)

IMPORT_S = time.time() - T0


def _len(value):
    try:
        return len(value)
    except TypeError:
        return 0


def _writes(args, kwargs, result):
    trace = args[1] if len(args) > 1 else kwargs.get("trace")
    return getattr(trace, "write_count", 0)


def _trace_refs(args, kwargs, result):
    trace = args[1] if len(args) > 1 else kwargs.get("trace")
    return _len(trace)


#: (module, attribute path, span name, runs(args, kwargs, result), refs(...)).
BOUNDARIES = [
    ("repro.trace.workloads.base", "Workload.build", "trace.generate",
     None, lambda a, k, r: _len(r)),
    ("repro.trace.ingest", "ingest_trace", "trace.ingest",
     None, lambda a, k, r: _len(r)),
    ("repro.trace.catalog", "iter_trace_chunks", "trace.ingest", None, None),
    ("repro.trace.catalog", "TraceCatalog.add", "trace.catalog", None, None),
    ("repro.trace.catalog", "TraceCatalog.load", "trace.catalog", None, None),
    ("repro.cache.rdsim", "simulate_ladder_info", "cache.rdsim",
     lambda a, k, r: r[1].profiled_runs, None),
    ("repro.cache.vecsim", "simulate_batch", "cache.vector",
     lambda a, k, r: _len(r), None),
    ("repro.cache.vecsim", "simulate_direct_mapped", "cache.vector",
     lambda a, k, r: 1, None),
    ("repro.cache.vecsim", "simulate_with_outcomes", "cache.vector",
     lambda a, k, r: 1, None),
    ("repro.cache.fastsim", "_simulate_reference", "cache.reference",
     lambda a, k, r: 1, None),
    ("repro.buffers.write_cache", "WriteCache.run_writes", "buffers.write_cache",
     None, _writes),
    ("repro.buffers.write_buffer", "CoalescingWriteBuffer.simulate",
     "buffers.write_buffer", None, None),
    ("repro.buffers.victim_buffer", "dirty_victim_times", "buffers.victim_buffer",
     None, None),
    ("repro.buffers.victim_buffer", "DirtyVictimBuffer.simulate",
     "buffers.victim_buffer", None, None),
    ("repro.hierarchy.hiersim", "simulate_hierarchy_batch_info", "hierarchy.vector",
     lambda a, k, r: r[1]["hier_vector_runs"], None),
    ("repro.hierarchy.hiersim", "simulate_hierarchy", "hierarchy.vector",
     lambda a, k, r: 1, None),
    ("repro.hierarchy.system", "CacheSystem.run", "hierarchy.composed",
     lambda a, k, r: 1, _trace_refs),
    ("repro.exec.pool", "ExperimentPool.run_many", "exec.pool", None, None),
    ("repro.exec.store", "ResultStore.get", "exec.store_read",
     lambda a, k, r: 1, None),
    ("repro.exec.store", "ResultStore.put", "exec.store_write",
     lambda a, k, r: 1, None),
    ("repro.core.figures", "get_figure", "core.figure", None, None),
    ("repro.core.headline", "headline_claims", "core.headline", None, None),
    ("repro.core.report", "generate_report", "core.report_write", None, None),
    ("repro.service.app", "ExperimentService._run_job", "service.job", None, None),
]

#: Spans: [name, start, end (0 while open), parent index or -1, request id,
#: runs, refs].
SPANS = []
MISSING = []
_local = threading.local()


def _stack():
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _open(name):
    stack = _stack()
    parent = stack[-1] if stack else -1
    request = getattr(_local, "request", "")
    span = [name, time.perf_counter(), 0.0, parent, request, 0, 0]
    SPANS.append(span)
    stack.append(len(SPANS) - 1)
    return span


def _close(span):
    span[2] = time.perf_counter()
    _stack().pop()


def _wrap(original, name, runs, refs):
    if inspect.isgeneratorfunction(original):
        # Generators do their work inside next(): one span per step.
        @functools.wraps(original)
        def stepper(*args, **kwargs):
            inner = original(*args, **kwargs)
            while True:
                span = _open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    _close(span)
                    return
                except BaseException:
                    _close(span)
                    raise
                span[6] = _len(item)
                _close(span)
                yield item

        return stepper

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span = _open(name)
        if name == "service.job" and len(args) > 1:
            _local.request = getattr(args[1], "id", "")
        try:
            result = original(*args, **kwargs)
        except BaseException:
            _close(span)
            raise
        finally:
            if name == "service.job":
                _local.request = ""
        _close(span)
        if runs is not None:
            span[5] = runs(args, kwargs, result)
        if refs is not None:
            span[6] = refs(args, kwargs, result)
        return result

    return wrapper


def _install():
    replaced = {}
    for module_name, path, name, runs, refs in BOUNDARIES:
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            MISSING.append(f"{module_name}.{path}")
            continue
        wrapper = _wrap(original, name, runs, refs)
        setattr(owner, attr, wrapper)
        if not outer:
            replaced[id(original)] = (original, wrapper)
    # Names bound by ``from module import function`` elsewhere.
    import repro.exec.runners  # noqa: F401  (binds the hierarchy batch entry)

    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def _dump():
    target = os.environ.get("PERFBENCH_SPANS")
    if not target:
        return
    try:
        from repro.exec.pool import aggregate_telemetry

        pool = aggregate_telemetry().to_dict()
    except Exception:  # the counters are optional; the spans are not
        pool = {}
    payload = {
        "pid": os.getpid(),
        "argv": sys.argv[1:],
        "import_s": IMPORT_S,
        "missing": MISSING,
        "pool": pool,
        "spans": SPANS,
    }
    path = os.path.join(target, f"{os.getpid()}.json")
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(path + ".tmp", path)


def main():
    _install()
    atexit.register(_dump)
    sys.argv[0] = "repro"
    sys.exit(repro.cli.main(sys.argv[1:]))


if __name__ == "__main__":
    main()
