"""The ``service-mixed`` workload: ``repro serve`` under a closed loop.

Two client threads drive one server (``--jobs 1``) through rounds of a
fixed mix.  Every round has the same operations; only the seeds of the
generated inputs change with ``--seed`` and the round number:

client A                                  client B
  cache size grid, fresh trace seed         system grid (L1 sizes + 64KB L2),
                                              fresh trace seed
  cache size grid on a held trace           cache size grid on a held trace
  upload capture (text) + sweep it          upload capture (text, gzip) + sweep
  same refs again (din, gzip) + sweep       same refs again (din) + sweep
  -- both submit one cold job at once (it coalesces) --
  upload a capture with an address >= 2**63 (a known fault: always 400)
  -- replay section: each client resubmits its first three jobs twice --

A job counts as cold when its terminal event shows computed or
coalesced runs, as warm when it was served from the memo or the store.
Latency is submit to the terminal event of ``/v1/jobs/{id}/events``; the
cold latency takes the best sample per job class (one position in the
mix) and weights the classes by their sample counts (``harness.class_best``).
``cold_wall_s`` is the best over rounds of the wall time from a round's
start to its replay section.  Warm jobs are checked, not timed.
``setup_s`` is the median time from spawn to the first 200 from
``/v1/health`` over the server's own start and one start of a second
server on an empty store after each round, so that the samples are
spread over the run.
"""

import gzip
import json
import os
import random
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import checks
from harness import best, class_best, fresh_dir, http, median, reap

#: Rounds of the mix per second of ``--seconds``: a round and the set-up
#: probe after it take about 2 s on a 2-core host.  The round count, not
#: a clock, ends the load, so every run does the same work and the
#: server's memory, which grows with every round, is comparable.
ROUNDS_PER_SECOND = 0.5
#: Each client replays its first three jobs this many times per round.
REPLAYS = 2
READY_TIMEOUT = 60.0
SIZES_KB = [1, 2, 4, 8, 16, 32, 64, 128]
#: (write hit, write miss) pairs for the held-trace grids; with four line
#: sizes and both flush settings they give 48 distinct cold grids.
POLICIES = [
    ("write-through", "fetch-on-write"),
    ("write-through", "write-validate"),
    ("write-through", "write-around"),
    ("write-through", "write-invalidate"),
    ("write-back", "fetch-on-write"),
    ("write-back", "write-validate"),
]
LINES = [8, 16, 32, 64]
#: A capture whose first address needs 64 unsigned bits.  Fixed, not
#: seeded: today's ingest parses addresses as int64 and rejects it.
HIGH_ADDRESS_CAPTURE = b"r fffffffffffffff0 4\nw 1000 4\nr 1004 4\n"


@dataclass
class JobResult:
    ok: bool
    latency: float = 0.0
    cold: bool = False
    results: Optional[list] = None
    specs: Optional[list] = None
    submit_s: float = 0.0
    result_s: float = 0.0
    queue_wait_s: float = 0.0
    run_s: float = 0.0
    error: str = ""


@dataclass
class Samples:
    """Latency samples of one load, gathered from both client threads.

    ``cold`` maps each job class (one position in the round's mix) to the
    latencies of its cold jobs.
    """

    cold: Dict[str, List[float]] = field(default_factory=dict)
    uploads: List[float] = field(default_factory=list)
    submit: List[float] = field(default_factory=list)
    result: List[float] = field(default_factory=list)
    queue_wait: List[float] = field(default_factory=list)
    run: List[float] = field(default_factory=list)
    jobs: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)

    def add_job(self, job: JobResult, label: str) -> None:
        if not job.ok:
            return
        with self.lock:
            self.jobs += 1
            self.submit.append(job.submit_s)
            self.result.append(job.result_s)
            if job.cold:  # a warm job neither waits nor runs for long
                self.cold.setdefault(label, []).append(job.latency)
                self.queue_wait.append(job.queue_wait_s)
                self.run.append(job.run_s)


class Payloads:
    """Job payloads built with the program's own config classes."""

    def __init__(self, scale: float):
        from repro.cache.config import CacheConfig
        from repro.cache.policies import WriteHitPolicy, WriteMissPolicy
        from repro.hierarchy.system import HierarchyConfig, LevelConfig

        self.scale = scale
        self._cache = CacheConfig
        self._hit, self._miss = WriteHitPolicy, WriteMissPolicy
        self._hierarchy, self._level = HierarchyConfig, LevelConfig

    def _configs(self, line=16, hit="write-back", miss="fetch-on-write"):
        return [
            self._cache(size=kb * 1024, line_size=line,
                        write_hit=self._hit(hit), write_miss=self._miss(miss))
            for kb in SIZES_KB if kb * 1024 >= line
        ]

    def cache_grid(self, workload, seed=1991, line=16, hit="write-back",
                   miss="fetch-on-write", flush=True):
        return {
            "kind": "cache", "workloads": [workload], "scale": self.scale,
            "seed": seed, "flush": flush,
            "configs": [c.to_dict() for c in self._configs(line, hit, miss)],
        }

    def system_grid(self, workload, seed):
        l2 = self._level(cache=self._cache(size=64 * 1024))
        configs = [self._hierarchy(levels=(self._level(cache=c), l2))
                   for c in self._configs()]
        return {
            "kind": "system", "workloads": [workload], "scale": self.scale,
            "seed": seed, "configs": [c.to_dict() for c in configs],
        }


def capture(rng: random.Random, refs: int):
    """A seeded reference stream and its text and din encodings.

    Both encodings carry the same references (4-byte, aligned, with
    instruction counts), so the catalog must give them one content hash.
    """
    base = rng.randrange(1, 1 << 20) << 12
    text, din = [], []
    reads = writes = 0
    for _ in range(refs):
        address = base + (rng.randrange(1 << 14) << 2)
        write = rng.random() < 0.3
        icount = rng.randint(1, 4)
        writes += write
        reads += not write
        text.append(f"{'w' if write else 'r'} {address:x} 4 {icount}\n")
        din.extend(f"2 {base:x}\n" for _ in range(icount - 1))
        din.append(f"{1 if write else 0} {address:x}\n")
    counts = {"refs": refs, "reads": reads, "writes": writes}
    return "".join(text).encode(), "".join(din).encode(), counts


class Server:
    """One ``repro serve`` child: start, readiness, stop."""

    def __init__(self, program, store):
        self.program, self.store = program, store
        self.proc = None
        self.url = ""

    def start(self) -> float:
        """Spawn and wait for the first 200 from ``/v1/health``."""
        self.proc, err_path, started = self.program.spawn(
            ["serve", "--port", "0", "--jobs", "1"], self.store)
        deadline = started + READY_TIMEOUT
        text = ""
        while not self.url:
            text = err_path.read_text(errors="replace")
            if "listening on " in text:
                self.url = text.split("listening on ", 1)[1].split()[0]
            elif self._exited() or time.perf_counter() > deadline:
                raise RuntimeError("repro serve did not start: " + text[-300:])
            else:
                time.sleep(0.002)
        while http("GET", self.url + "/v1/health", timeout=5)[0] != 200:
            if self._exited() or time.perf_counter() > deadline:
                raise RuntimeError("repro serve never became healthy: " + text[-300:])
            time.sleep(0.002)
        return time.perf_counter() - started

    def _exited(self) -> bool:
        """Whether the child has exited, without reaping it (``reap``
        must still read its resource usage)."""
        return os.waitid(os.P_PID, self.proc.pid,
                         os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None

    @property
    def running(self) -> bool:
        return self.proc is not None and self.proc.returncode is None

    def stop(self) -> float:
        """SIGTERM (graceful drain) and reap; returns peak RSS in MB."""
        self.proc.send_signal(signal.SIGTERM)
        rss = reap(self.proc, timeout=60.0)
        self.url = ""
        return rss


def run_job(url: str, payload: dict, accepted_event=None) -> JobResult:
    """Submit, follow the event stream to the terminal event, fetch result.

    ``accepted_event`` is set once the submission has been answered.
    """
    import urllib.request

    started = time.perf_counter()
    try:
        status, body = http("POST", url + "/v1/jobs", json.dumps(payload).encode())
    finally:
        if accepted_event is not None:
            accepted_event.set()
    accepted = time.perf_counter()
    if status != 202:
        return JobResult(False, error=f"submit: HTTP {status} {body.get('error', '')}")
    job_id = body["id"]
    running = finished = None
    final = {}
    try:
        with urllib.request.urlopen(
            f"{url}/v1/jobs/{job_id}/events", timeout=120
        ) as stream:
            for raw in stream:
                now = time.perf_counter()
                event = json.loads(raw)
                if event.get("type") != "job":
                    continue
                if event.get("state") == "running" and running is None:
                    running = now
                if event.get("state") in ("done", "failed"):
                    finished, final = now, event
                    break
    except (OSError, ValueError) as error:
        return JobResult(False, error=f"events: {error!r}")
    if finished is None or final.get("state") != "done":
        return JobResult(False, error=str(final.get("error")))
    fetch = time.perf_counter()
    status, result = http("GET", f"{url}/v1/jobs/{job_id}/result")
    fetched = time.perf_counter()
    telemetry = final.get("telemetry", {})
    running = running if running is not None else finished
    return JobResult(
        ok=status == 200 and result.get("state") == "done",
        error=f"result: HTTP {status} {result.get('error', '')}",
        latency=finished - started,
        cold=telemetry.get("computed", 0) > 0 or final.get("coalesced", 0) > 0,
        results=result.get("results"),
        specs=result.get("specs"),
        submit_s=accepted - started,
        result_s=fetched - fetch,
        queue_wait_s=running - accepted,
        run_s=finished - running,
    )


def upload(url: str, body: bytes, fmt: str, samples: Samples):
    started = time.perf_counter()
    status, record = http("POST", f"{url}/v1/traces?format={fmt}&name=capture", body)
    if status in (200, 201):
        with samples.lock:
            samples.uploads.append(time.perf_counter() - started)
    return status, record


class Round:
    """One round of the mix for both clients; see the module docstring."""

    def __init__(self, ctx, url, payloads, index, samples):
        self.ctx, self.url, self.payloads = ctx, url, payloads
        self.samples = samples
        rng = random.Random(f"{ctx.seed}:{index}")
        self.fresh = [rng.randrange(10**6, 10**9) for _ in range(3)]
        combos = [(line, hit, miss, flush) for line in LINES
                  for hit, miss in POLICIES for flush in (True, False)]
        random.Random(ctx.seed).shuffle(combos)
        self.held = [combos[(2 * index) % len(combos)],
                     combos[(2 * index + 1) % len(combos)]]
        refs = 2000 if ctx.tiny else 20000
        self.captures = [capture(rng, refs), capture(rng, refs)]
        self.oracle_pick = rng.random()
        self.stamps = []
        self.barrier = threading.Barrier(
            2, action=lambda: self.stamps.append(time.perf_counter()), timeout=120)
        self.coalesced = [None, None]
        self.a_accepted = threading.Event()
        self.sampled = None  # (spec payload, stats payload) for the oracle

    def job(self, payload, label, accepted_event=None):
        result = run_job(self.url, payload, accepted_event)
        self.samples.add_job(result, label)
        self.ctx.ledger.op(
            result.ok,
            f"job {payload['kind']} {payload['workloads']} seed {payload['seed']}: "
            f"{result.error}")
        return result

    def uploads(self, client, gzip_first):
        """Upload one capture as text then as din, gzipping the first or
        the second, each followed by a sweep of what it ingested."""
        ledger = self.ctx.ledger
        text, din, counts = self.captures[client]
        bodies = {"text": text, "din": din}
        hashes, sweeps = [], []
        for position, fmt in enumerate(("text", "din")):
            body = bodies[fmt]
            if gzip_first == (position == 0):
                body = gzip.compress(body, mtime=0)
            status, record = upload(self.url, body, fmt, self.samples)
            uploaded = ledger.op(status in (200, 201), f"upload {fmt}: HTTP {status} {record}")
            got = {key: record.get(key) for key in counts}
            ledger.check(got == counts, f"upload {fmt} counted {got}, wrote {counts}",
                         given=uploaded)
            hashes.append(record.get("hash"))
            if record.get("hash"):
                payload = self.payloads.cache_grid(f"ingested:{record['hash']}")
                sweeps.append(self.job(payload, f"{'AB'[client]}.ingested-{position}"))
            else:
                ledger.op(False, "sweep of a failed upload")
                sweeps.append(None)
        ledger.check(hashes[0] == hashes[1],
                     f"one capture in two forms got hashes {hashes}",
                     given=None not in hashes)
        return sweeps[0]

    def client(self, which):
        try:
            self._client(which)
        except BaseException:
            self.barrier.abort()  # never leave the other client waiting
            raise

    def _client(self, which):
        p = self.payloads
        line, hit, miss, flush = self.held[which]
        if which == 0:
            first = p.cache_grid("ccom", seed=self.fresh[0])
            held = p.cache_grid("yacc", line=line, hit=hit, miss=miss, flush=flush)
        else:
            first = p.system_grid("grr", seed=self.fresh[1])
            held = p.cache_grid("met", line=line, hit=hit, miss=miss, flush=flush)
        # Client B submits only once A's first job has been accepted: two
        # first submissions at once to a fresh server race the lazy
        # registration of experiment kinds (see CHANGES.md).
        name = "AB"[which]
        if which == 0:
            first_result = self.job(first, "A.fresh", accepted_event=self.a_accepted)
        else:
            self.a_accepted.wait(timeout=120)
            first_result = self.job(first, "B.fresh")
        held_result = self.job(held, f"{name}.held")
        # Only jobs that finished are replayed; a failed one's replays
        # count as failed below, so every round attempts the same.
        jobs = [(payload, result) for payload, result
                in ((first, first_result), (held, held_result)) if result.ok]
        ingested = self.uploads(which, gzip_first=which == 1)
        if ingested is not None and ingested.ok:
            jobs.append((p.cache_grid(ingested.specs[0]["workload"]), ingested))
        if first_result.ok and (self.oracle_pick < 0.5) == (which == 0):
            index = int(self.oracle_pick * 1000) % len(first_result.specs)
            self.sampled = (first_result.specs[index], first_result.results[index])
        self.barrier.wait()
        self.coalesced[which] = self.job(
            p.system_grid("yacc", seed=self.fresh[2]), f"{name}.coalesce")
        if which == 0:
            status, record = upload(self.url, HIGH_ADDRESS_CAPTURE, "text", self.samples)
            self.ctx.ledger.op(
                status in (200, 201),
                f"upload of an address >= 2**63: HTTP {status} {record.get('error')}",
                known=True)
        self.barrier.wait()  # replay section starts
        problems = []
        for _ in range(REPLAYS):
            for position, (payload, original) in enumerate(jobs):
                replay = self.job(payload, f"{name}.replay-{position}")
                if replay.ok:
                    problems += checks.same(
                        f"client {name} replay of {payload['kind']} {payload['workloads']}",
                        original.results, replay.results)
            for _ in range(3 - len(jobs)):
                self.ctx.ledger.op(False, "replay of a failed job")
        self.ctx.ledger.check(not problems, "; ".join(problems))
        self.barrier.wait()  # replay section ends

    def run(self, pool):
        started = time.perf_counter()
        futures = [pool.submit(self.client, which) for which in (0, 1)]
        for future in futures:
            future.result()
        a, b = self.coalesced
        given = bool(a and a.ok and b and b.ok)
        problems = checks.same("coalesced pair", a.results, b.results) if given else []
        self.ctx.ledger.check(not problems, "coalesced pair: " + "; ".join(problems),
                              given=given)
        return self.stamps[1] - started if len(self.stamps) > 1 else 0.0


def oracle_check(ledger, sampled):
    """One sampled service result against the reference engines."""
    if sampled is None:
        ledger.check(False, "no service result sampled for the oracle", given=False)
        return
    from repro.cache.fastsim import simulate_trace
    from repro.exec.keys import ExperimentSpec
    from repro.hierarchy.system import CacheSystem
    from repro.trace.corpus import load

    spec = ExperimentSpec.from_dict(sampled[0])
    trace = load(spec.workload, scale=spec.scale, seed=spec.seed)
    if spec.kind == "cache":
        stats = simulate_trace(trace, spec.config, flush=spec.flush, backend="reference")
    else:
        system = CacheSystem(spec.config)
        system.run(trace, flush=spec.flush)
        stats = system.system_stats()
    expected = json.loads(json.dumps(stats.to_dict()))
    ledger.check(expected == sampled[1],
                 f"service result for {spec.kind} {spec.workload} differs from "
                 "the reference engine")


def service_mixed(ctx, program):
    ledger = ctx.ledger
    store = fresh_dir(program.work / "store")
    payloads = Payloads(0.05 if ctx.tiny else 0.25)
    server = Server(program, store)
    probe = Server(program, program.work / "probe-store")
    samples = Samples()
    rounds = []
    load_s = 0.0
    try:
        setups = [server.start()]
        with ThreadPoolExecutor(2) as pool:
            for _ in range(max(1, round(ctx.seconds * ROUNDS_PER_SECOND))):
                current = Round(ctx, server.url, payloads, len(rounds), samples)
                started = time.perf_counter()
                rounds.append((current, current.run(pool)))
                load_s += time.perf_counter() - started
                fresh_dir(probe.store)
                setups.append(probe.start())
                probe.stop()
        _, telemetry = http("GET", server.url + "/v1/telemetry")
    finally:
        # A server that did not start is still a child to stop and reap.
        rss = server.stop() if server.running else 0.0
        if probe.running:
            probe.stop()
    for current, _ in rounds:
        oracle_check(ledger, current.sampled)
    layer = {
        "service.submit_s": median(samples.submit),
        "service.result_s": median(samples.result),
        "service.queue_wait_s": median(samples.queue_wait),
        "service.run_s": median(samples.run),
        "service.upload_s": median(samples.uploads),
        "service.jobs_per_s": samples.jobs / load_s,
        "service.coalesced": telemetry.get("service", {}).get("coalesced", 0),
    }
    metrics = {
        "setup_s": median(setups),
        "cold_wall_s": best([cold for _, cold in rounds]),
        "peak_rss_mb": rss,
        "cold_latency_s": class_best(samples.cold),
    }
    return metrics, layer
