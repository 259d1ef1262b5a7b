"""Shared plumbing: the run context, subprocesses of the program, statistics.

Every file the benchmark writes lives under ``<checkout>/.bench_work``;
the program under test runs from ``<checkout>/src`` as ``python3 -m repro``,
exactly the entry point the ``repro`` console script calls.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


class BenchError(Exception):
    """The benchmark cannot run (missing program, a process that never came up)."""


@dataclass
class Metric:
    """One reported number; ``value`` is ``None`` when it could not be measured."""

    value: float | None
    unit: str
    samples: int = 0
    note: str = ""


@dataclass
class Outcome:
    """What one workload run measured and whether its outputs were right."""

    metrics: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: reason -> how often it happened
    problems: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        """Count ``count`` failed operations (0: a failed check that is no
        single operation) and remember why."""
        self.failed += count
        self.problems[problem] = self.problems.get(problem, 0) + 1

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


class Context:
    """One run: seed, time budget, a private work directory and process table."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.procs: list[Proc] = []

    def __enter__(self) -> "Context":
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        os.environ["TMPDIR"] = str(self.dir)
        os.environ["SQLITE_TMPDIR"] = str(self.dir)
        return self

    def __exit__(self, *exc_info) -> None:
        for proc in self.procs:
            proc.stop()
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass

    def path(self, *parts: str) -> Path:
        path = self.dir.joinpath(*parts)
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def env(self, spans: Path | None = None) -> dict:
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        if spans is not None:
            env["PERFBENCH_SPANS"] = str(spans)
        return env

    def repro(self, args: list[str], log: str, spans: Path | None = None) -> "Proc":
        """Start ``repro <args>``; traced runs go through the shim launcher."""
        if spans is None:
            argv = [sys.executable, "-m", "repro", *args]
        else:
            argv = [sys.executable, str(HERE / "launch.py"), *args]
        proc = Proc(argv, self.path("logs", log), self.env(spans))
        self.procs.append(proc)
        return proc


class Proc:
    """A subprocess of the program with its output in a log file."""

    def __init__(self, argv: list[str], log: Path, env: dict):
        self.argv = argv
        self.log = log
        self._handle = open(log, "wb")
        self.popen = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=self._handle, stderr=subprocess.STDOUT
        )

    def output(self) -> str:
        return self.log.read_text(errors="replace")

    def wait_for(self, marker: str, timeout: float = 60.0) -> str:
        """The first output line containing ``marker``; raises if the
        process exits or stays silent past ``timeout``."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in self.output().splitlines():
                if marker in line:
                    return line
            if self.popen.poll() is not None:
                break
            time.sleep(0.01)
        raise BenchError(
            f"{' '.join(self.argv[1:4])} did not print {marker!r}"
            f" (exit {self.popen.poll()}):\n{self.output()[-2000:]}"
        )

    def wait(self, timeout: float = 170.0) -> int:
        try:
            code = self.popen.wait(timeout)
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError(f"{' '.join(self.argv[1:4])} ran past {timeout} s")
        self._handle.close()
        return code

    def stop(self, grace: float = 15.0) -> int:
        """SIGTERM, then SIGKILL after ``grace`` seconds; always reaps."""
        if self.popen.poll() is None:
            self.popen.send_signal(signal.SIGTERM)
            try:
                self.popen.wait(grace)
            except subprocess.TimeoutExpired:
                self.popen.kill()
        code = self.popen.wait()
        self._handle.close()
        return code


class Pace:
    """The host's speed over the measured windows of a run.

    A shared host runs at two speeds about 1.45x apart, switching every few
    seconds, and the share of time at the slower one drifts over minutes;
    it also withholds from 1 to 18 % of the guest's CPU time (steal),
    which varies as much.  Every latency quantile of the program follows
    both, p10 as much as p50, and no longer run averages them out.
    ``perfbench/pace.py`` times a fixed piece of interpreter work every
    20 ms in a process of its own (about 1.5 % of one CPU) while the
    workload runs, and reads the CPUs' steal ticks with each sample.  A
    latency divided by ``ref_ms`` of the window it was measured in is the
    program's cost in units of the host's current speed, which slow spells
    move far less; a change to the program moves it as much as the latency.
    """

    def __init__(self, ctx: Context):
        self.file = ctx.path("pace.txt")
        self.proc = Proc(
            [sys.executable, str(HERE / "pace.py"), str(self.file)],
            ctx.path("logs", "pace.log"), dict(os.environ),
        )
        ctx.procs.append(self.proc)
        self.proc.wait_for("pace ready")

    def per_ref(self, windows: list[tuple[float, float]], groups: list[list[float]]):
        """Stop sampling; (``ref_ms``, ``p50_per_ref``) for the latencies
        ``groups[i]`` measured inside ``windows[i]``.

        A window's ref_ms is its samples' mean time, their fastest and
        slowest tenth left out, over the share of CPU time the host did not
        steal meanwhile.  The mean, not the median: with two speeds the
        median jumps from one to the other where the mean follows the share
        of time at each; the tenths drop samples another process preempted.
        Speed and steal change from one second to the next, so each latency
        is divided by its own window's ref_ms; p50_per_ref is the median of
        those ratios, and the ref_ms reported the median window's."""
        self.proc.stop()
        rows = [tuple(map(float, line.split())) for line in self.file.read_text().splitlines()]
        refs, ratios = [], []
        for (start, end), group in zip(windows, groups):
            inside = [row for row in rows if start <= row[0] <= end]
            times = sorted(row[1] for row in inside)
            cut = len(times) // 10
            kept = times[cut:len(times) - cut]
            if not kept:
                continue
            ticks = inside[-1][3] - inside[0][3]
            stolen = (inside[-1][2] - inside[0][2]) / ticks if ticks else 0.0
            refs.append(sum(kept) / len(kept) / (1 - stolen))
            ratios += [latency / refs[-1] for latency in group]
        if not ratios:
            reason = "unmeasured: no pace sample in the measured windows"
            return Metric(None, "ms", 0, reason), Metric(None, "ms/ms", 0, reason)
        ref_ms = Metric(median(refs), "ms", len(refs), "perfbench/pace.py, median window")
        p50 = median(ratios)
        if p50 == math.inf:
            return ref_ms, Metric(None, "ms/ms", len(ratios), "unmeasured: failed requests fill the median")
        return ref_ms, Metric(p50, "ms/ms", len(ratios), "median of latency / its window's ref_ms")


def run_repro(ctx: Context, args: list[str], log: str, spans: Path | None = None) -> None:
    """Run one ``repro`` command to completion; it must exit 0."""
    proc = ctx.repro(args, log, spans)
    code = proc.wait()
    if code != 0:
        raise BenchError(f"repro {' '.join(args[:2])} exited {code}:\n{proc.output()[-2000:]}")


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def children_peak_rss_mb() -> float:
    """Largest resident set of any finished, reaped subprocess of this run.

    The pace sampler is one of them; at about 55 MB it stays below every
    ``repro`` process (about 120 MB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def file_bytes(path: Path) -> int:
    """Bytes on disk of a SQLite store file and its write-ahead log."""
    return sum(p.stat().st_size for p in (path, Path(f"{path}-wal")) if p.exists())
