"""Process control, operation accounting and statistics for the benchmark.

The program runs in child processes: ``python -m repro ...`` untraced, or
``perfbench/boot.py ...`` traced (see ``boot.py``).  Every child's wall
time is taken around spawn and reap, and its own peak RSS comes from
``os.wait4`` on that child (``RUSAGE_CHILDREN`` would report the largest
child ever reaped instead).
"""

import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import List, Optional

HERE = pathlib.Path(__file__).resolve().parent

#: Seconds any one program command may take before it is killed.
COMMAND_TIMEOUT = 150.0


def median(values):
    return statistics.median(values) if values else 0.0


def best(values):
    """Best of a run's repeated samples of one operation.

    The host this benchmark was built on slows down intermittently, by up
    to 1.7x for tens of seconds, on both cores at once; its fastest speed
    holds steady.  Over five minutes of one fixed loop, the minimum of
    each 10 s window varied by 5% (quartile distance over median) across
    windows, the median by 27%.  So repeated samples report their minimum.
    """
    return min(values) if values else 0.0


def class_best(groups):
    """Typical time of one operation in a mix of operation classes.

    ``groups`` maps each class (one position in a fixed mix) to its
    samples.  Each class contributes its best sample, weighted by its
    sample count, so no statistic is taken across classes whose times
    differ by an order of magnitude.
    """
    total = sum(len(values) for values in groups.values())
    if not total:
        return 0.0
    return sum(len(values) * best(values) for values in groups.values()) / total


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass
class Ledger:
    """Operations attempted and failed in one run, with what went wrong.

    An operation is a CLI command, a service job, an upload or an output
    check.  ``known`` failures are faults of the program that fail every
    time on fixed inputs; ``correct`` is false only when a check found a
    wrong output.
    """

    attempted: int = 0
    failed: int = 0
    bad_checks: int = 0
    notes: List[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def op(self, ok: bool, what: str, known: bool = False) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.notes.append(("known fault: " if known else "failed: ") + what)
        return ok

    def check(self, ok: bool, what: str, given: bool = True) -> bool:
        """``given`` false: the output to check is missing because the
        operation that makes it failed (counted already), so the check
        fails without calling any output wrong."""
        with self._lock:
            self.attempted += 1
            if not given:
                self.failed += 1
                self.notes.append("check without its output: " + what)
            elif not ok:
                self.failed += 1
                self.bad_checks += 1
                self.notes.append("check failed: " + what)
        return given and ok

    @property
    def correct(self) -> bool:
        return self.bad_checks == 0


@dataclass
class Done:
    """One finished program command."""

    wall: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.returncode == 0


def reap(proc: subprocess.Popen, timeout: float = COMMAND_TIMEOUT) -> float:
    """Wait for ``proc`` with ``os.wait4``; returns its peak RSS in MB."""
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


class Program:
    """How to launch the program from a checkout, traced or not.

    ``work`` is this run's scratch directory inside the checkout; traced
    children write their spans under ``work/spans``.
    """

    def __init__(self, root: pathlib.Path, work: pathlib.Path, traced: bool):
        self.root = root
        self.work = work
        self.traced = traced
        self.spans_dir = work / "spans"
        self._serial = 0

    def argv(self, args):
        if self.traced:
            return [sys.executable, str(HERE / "boot.py"), *args]
        return [sys.executable, "-m", "repro", *args]

    def env(self, store: pathlib.Path) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["REPRO_RESULT_DIR"] = str(store)
        env["REPRO_JOBS"] = "1"
        for name in ("REPRO_FAULT_PLAN", "REPRO_SIM_BACKEND", "REPRO_SIM_PROFILE"):
            env.pop(name, None)
        if self.traced:
            self.spans_dir.mkdir(parents=True, exist_ok=True)
            env["PERFBENCH_SPANS"] = str(self.spans_dir)
            env["PERFBENCH_T0"] = repr(time.time())
        return env

    def _logs(self):
        self._serial += 1
        base = self.work / "logs"
        base.mkdir(parents=True, exist_ok=True)
        return base / f"{self._serial}.out", base / f"{self._serial}.err"

    def run(self, args, store: pathlib.Path) -> Done:
        """Run one command to its end; wall time spans spawn to reap."""
        out_path, err_path = self._logs()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            env = self.env(store)
            started = time.perf_counter()
            proc = subprocess.Popen(
                self.argv(args), stdout=out, stderr=err, env=env, cwd=self.work
            )
            rss = reap(proc)
            wall = time.perf_counter() - started
        return Done(
            wall,
            rss,
            proc.returncode,
            out_path.read_text(errors="replace"),
            err_path.read_text(errors="replace"),
        )

    def spawn(self, args, store: pathlib.Path):
        """Start a long-lived command; returns ``(proc, stderr_path, t0)``."""
        out_path, err_path = self._logs()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            env = self.env(store)
            started = time.perf_counter()
            proc = subprocess.Popen(
                self.argv(args), stdout=out, stderr=err, env=env, cwd=self.work
            )
        return proc, err_path, started


def http(method: str, url: str, body: Optional[bytes] = None, timeout: float = 60.0):
    """One HTTP exchange; returns ``(status, decoded JSON body or {})``."""
    headers = {"Accept": "application/json"}
    if body is not None and method == "POST" and not url.endswith("/v1/jobs"):
        headers["Content-Type"] = "application/octet-stream"
    elif body is not None:
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=body, method=method, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            status, raw = response.status, response.read()
    except urllib.error.HTTPError as error:
        status, raw = error.code, error.read()
    except (urllib.error.URLError, ConnectionError, TimeoutError):
        return 0, {}
    try:
        return status, json.loads(raw.decode("utf-8")) if raw else {}
    except ValueError:
        return status, {}


def fresh_dir(path: pathlib.Path) -> pathlib.Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
