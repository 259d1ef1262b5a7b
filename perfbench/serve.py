"""``serve_warm`` and ``serve_cold``: ``repro serve --jobs 2`` over HTTP.

The target is the server as users start it: ``--jobs 2`` and a file store,
every other flag at its default (``--port 0`` only picks a free port).  The
load comes from this process: an open loop with two sender threads, each
owning one keep-alive connection.  Arrivals follow a Poisson schedule drawn
from the seed; each request is timed from the moment it was due, so a stall
is charged to every request queued behind it.  Between the open-loop
blocks, bursts send requests back to back on one connection (a closed
loop: a client that waits for each answer); a second sender would only
contend with the server for the two CPUs and make burst times swing.  A
failed request (refused connection, non-200, wrong verdict, a server that
has exited) counts as missing the latency limit.
"""

from __future__ import annotations

import gc
import http.client
import json
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import mean, median

import layers
import shims
from common import Context, Metric, Outcome, Pace, children_peak_rss_mb, file_bytes, percentile


@dataclass(frozen=True)
class Profile:
    """Traffic of one serve workload.  The rates are chosen, not measured
    on this program; the reasons are at ``WARM`` and ``COLD``."""

    ref_rate: int  # offered req/s at which p50/p90/p99 are read
    ref_share: float  # share of --seconds spent at the reference rate
    rounds: int  # reference blocks, each followed by one back-to-back burst
    burst: int  # requests per closed-loop burst; wall_s is the mean burst time
    ladder: tuple[int, ...]  # higher offered rates, for max_rate_rps
    step_samples: int  # requests per ladder step, >= 10 beyond limit_pct
    limit_pct: int  # the percentile the latency limit applies to
    limit_ms: float
    warmup: int
    instances: int  # warm: the pre-warmed pool (store > SQLite's page cache)


#: One connection answered back to back at about 825 req/s at the seed.
#: The reference rate is about an eighth of that, so p50 reads the time to
#: serve a request rather than queueing; the ladder brackets the 825.  The
#: 1500-instance pool makes the store outgrow SQLite's default page cache
#: (2.6 MB against 2.05 MB; both sizes are printed).  A shared host's speed
#: flips between two levels for seconds at a time: the mean of sixteen short
#: bursts spread over the run follows the share of time at each level,
#: where a median of a few long ones jumps between them.
WARM = Profile(100, 0.5, 16, 500, (250, 500, 750, 1000, 1250), 1000, 99, 20.0, 200, 1500)
assert len(WARM.ladder) <= WARM.rounds
#: A cold request costs a check-worker spawn and the 20 ms batching window
#: on top of a few ms of kernel.  There is no capacity figure to start from
#: (the server exits after its first dispatched check), so the reference
#: rate is a guess well inside two workers' reach, doubling up the ladder.
COLD = Profile(10, 0.5, 2, 20, (20, 40, 80), 100, 90, 250.0, 10, 0)
HEADERS = {"Content-Type": "application/json"}


@dataclass
class Sample:
    due: float
    sent: float
    done: float
    status: int
    body: bytes
    error: str


class Load:
    """The request generator: at most two threads and two connections."""

    def __init__(self, port: int, server):
        self.port = port
        self.server = server

    def run(self, bodies: list[bytes], offsets: list[float] | None) -> list[Sample]:
        """Send ``bodies`` at ``offsets`` seconds from now (open loop, two
        connections), or back to back on one connection when ``offsets`` is
        ``None``."""
        samples: list[Sample | None] = [None] * len(bodies)
        lock = threading.Lock()
        cursor = [0]
        base = time.monotonic() + 0.05

        def sender() -> None:
            conn = None
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(bodies):
                    break
                if offsets is not None:
                    due = base + offsets[index]
                    delay = due - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                sent = time.monotonic()
                if offsets is None:
                    due = sent
                status, body, error = 0, b"", ""
                code = self.server.popen.poll()
                if code is not None:
                    error = f"server exited with code {code}"
                else:
                    try:
                        if conn is None:
                            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
                        conn.request("POST", "/check", bodies[index], HEADERS)
                        response = conn.getresponse()
                        body = response.read()
                        status = response.status
                    except (OSError, http.client.HTTPException) as exc:
                        error = repr(exc)
                        conn.close()
                        conn = None
                samples[index] = Sample(due, sent, time.monotonic(), status, body, error)
            if conn is not None:
                conn.close()

        if offsets is None:
            sender()
            return samples  # type: ignore[return-value]
        other = threading.Thread(target=sender)
        other.start()
        sender()  # this thread is the second sender: two threads in all
        other.join()
        return samples  # type: ignore[return-value]


def _schedule(rng: random.Random, rate: float, count: int) -> list[float]:
    offsets, t = [], 0.0
    for _ in range(count):
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


class Workload:
    """Inputs, expected answers and servers of one serve workload run."""

    def __init__(self, ctx: Context, warm: bool):
        from repro.io.hg_format import format_hypergraph

        from inputs import small_instances

        self.ctx = ctx
        self.warm = warm
        self.p = p = WARM if warm else COLD
        block = max(p.step_samples, int(p.ref_rate * p.ref_share * ctx.seconds)) // p.rounds
        self.blocks = [block] * p.rounds
        self.total = (
            p.warmup + p.rounds * (block + p.burst) + p.step_samples * len(p.ladder)
        )
        # warm: a fixed pool asked again and again; cold: every request is a
        # new instance, so no request shares work with another
        count = p.instances if warm else self.total
        self.instances = small_instances(ctx.seed, count, "W" if warm else "C")
        self.texts = [format_hypergraph(h) for h in self.instances]
        self.widths: list[int] = []
        self.keys: list[tuple] = []  # (instance index, method, k) per request
        self.bodies: list[bytes] = []
        self.expected: dict[tuple, str] = {}
        self.schedule = random.Random(ctx.seed + 1)
        self.cursor = p.warmup
        self.warmups: list[tuple] = []  # (keys, samples) of every warm-up

    def prewarm(self, store: Path) -> None:
        """Write the instances' hw into the store with an in-process engine."""
        from repro.engine import DecompositionEngine, JobSpec, ResultStore

        with DecompositionEngine(store=ResultStore(store), jobs=1) as engine:
            report = engine.run_batch([JobSpec.width(h, 6) for h in self.instances])
        self.widths = [r.width_result.value for r in report.results]

    def _requests(self) -> None:
        """Warm: exact rows, bounds-implied k, and cross-kind asks (ghw
        method, answered by hw rows), a third each so that every store
        answer path counts alike.  Cold: a fresh instance each."""
        rng = random.Random(self.ctx.seed)
        for i in range(self.total):
            if self.warm:
                index = rng.randrange(len(self.instances))
                width = self.widths[index]
                mix = rng.randrange(3)
                if mix == 0:
                    key = (index, "hd", rng.randint(1, width))
                elif mix == 1:
                    key = (index, "hd", width + rng.randint(1, 2))
                else:
                    key = (index, "balsep", width + rng.randint(0, 1))
            else:
                key = (i, ("hd", "balsep")[i % 2], rng.randint(1, 3))
            self.keys.append(key)
            self.bodies.append(json.dumps(
                {"hypergraph": self.texts[key[0]], "k": key[2], "method": key[1]}
            ).encode())

    def expect(self, key: tuple) -> str:
        """The verdict of an in-process ``DecompositionEngine(jobs=1)``."""
        if key not in self.expected:
            from repro.engine import DecompositionEngine

            with DecompositionEngine(jobs=1) as engine:
                outcome = engine.check(self.instances[key[0]], key[2], method=key[1])
            self.expected[key] = outcome.verdict
        return self.expected[key]

    def start(self, name: str, spans: Path | None):
        """Store, server and warm-up; returns (set-up seconds, server, load, store).

        Building the request bodies (once, after the first prewarm tells
        the widths) is input generation and is not timed.
        """
        start = time.monotonic()
        store = self.ctx.path(name, "store.db")
        if self.warm:
            self.prewarm(store)
        untimed = 0.0
        if not self.bodies:
            mark = time.monotonic()
            self._requests()
            untimed = time.monotonic() - mark
        server = self.ctx.repro(
            ["serve", "--port", "0", "--jobs", "2", "--cache", str(store)],
            f"{name}-serve.log", spans,
        )
        line = server.wait_for("repro service on http://")
        load = Load(int(line.split("http://127.0.0.1:")[1].split()[0]), server)
        # lazy set-up (imports, first JSON, page cache) finishes before
        # timing; the answers are checked with the rest once timing is over
        warm_up = self.p.warmup
        self.warmups.append((self.keys[:warm_up], load.run(self.bodies[:warm_up], None)))
        return time.monotonic() - start - untimed, server, load, store

    def take(self, count: int):
        """The next ``count`` request bodies and keys, in generation order."""
        first = self.cursor
        self.cursor += count
        return self.bodies[first:first + count], self.keys[first:first + count]

    def verify(self, keys: list[tuple], samples: list[Sample], out: Outcome) -> list[bool]:
        """Per request: 200, the in-process verdict and (warm) a store answer."""
        ok = []
        for key, sample in zip(keys, samples):
            out.attempted += 1
            reason = ""
            if sample.status != 200:
                reason = sample.error or f"HTTP {sample.status}"
            else:
                payload = json.loads(sample.body)
                if payload.get("verdict") != self.expect(key):
                    reason = f"verdict {payload.get('verdict')} != {self.expect(key)} for {key}"
                elif self.warm and payload.get("source") != "store":
                    reason = f"source {payload.get('source')} for {key}"
            if reason:
                out.fail(1, reason)
            ok.append(not reason)
        return ok


def stop(server, out: Outcome) -> None:
    """SIGTERM the server; a server that already exited is reported."""
    exited = server.popen.poll()
    code = server.stop()
    if exited is not None:
        out.fail(0, f"the server exited by itself mid-run, code {exited}")
    elif code != 0:
        out.fail(0, f"the server exited {code} on SIGTERM")


def _step(samples: list[Sample], ok: list[bool], p: Profile, rate: int, blocks: int = 1) -> dict:
    """Latency from due time; a failed request counts as infinitely late.

    The backlog grew when, within a block of the step, the generator's
    lateness in the last quarter exceeds the first quarter's by more than
    half the latency limit."""
    lat = [1000 * (s.done - s.due) if good else float("inf") for s, good in zip(samples, ok)]
    late = [1000 * (s.sent - s.due) for s in samples]
    size = len(samples) // blocks
    growth = []
    for b in range(blocks):
        chunk = late[b * size:(b + 1) * size]
        quarter = max(1, len(chunk) // 4)
        growth.append(median(chunk[-quarter:]) - median(chunk[:quarter]))
    busy = sum(
        max(x.done for x in samples[b * size:(b + 1) * size])
        - min(x.due for x in samples[b * size:(b + 1) * size])
        for b in range(blocks)
    )
    step = {
        "rate": rate,
        "n": len(samples),
        "lat": lat,
        "late_p50": percentile(late, 50),
        "late_max": max(late),
        "growth": max(growth),
        "served": sum(ok) / busy,
        "failed": len(ok) - sum(ok),
    }
    step["limit"] = percentile(lat, p.limit_pct)
    step["passed"] = (
        step["failed"] == 0 and step["limit"] <= p.limit_ms and step["growth"] <= p.limit_ms / 2
    )
    return step


def _rounds(work: Workload, load: Load, ladder: tuple[int, ...] = ()):
    """Reference blocks, each followed by a burst and (while they last) one
    ladder step, so the host's slow spells spread over every measurement.

    Returns ([(keys, samples)] per block, burst seconds, [(keys, samples)]
    per burst, [(rate, keys, samples)] per ladder step)."""
    p = work.p
    blocks, seconds, bursts, steps = [], [], [], []
    for index, block in enumerate(work.blocks):
        bodies, keys = work.take(block)
        blocks.append((keys, load.run(bodies, _schedule(work.schedule, p.ref_rate, block))))
        bodies, keys = work.take(p.burst)
        start = time.monotonic()
        bursts.append((keys, load.run(bodies, None)))
        seconds.append(time.monotonic() - start)
        if index < len(ladder) and load.server.popen.poll() is None:
            rate = ladder[index]
            bodies, keys = work.take(p.step_samples)
            steps.append((rate, keys, load.run(bodies, _schedule(work.schedule, rate, p.step_samples))))
    return blocks, seconds, bursts, steps


def _checked(work: Workload, parts: list[tuple], out: Outcome) -> tuple[list, list]:
    """Verify ``[(keys, samples)]`` once measuring is over; returns the
    samples and their success flags, concatenated."""
    samples, ok = [], []
    for keys, got in parts:
        samples += got
        ok += work.verify(keys, got, out)
    return samples, ok


def _quiet_heap() -> None:
    """Collect and freeze this process's heap, so the generator's garbage
    collections stay short while it keeps time."""
    gc.collect()
    gc.freeze()


def _latency(step: dict, pct: int, p: Profile) -> Metric:
    value = percentile(step["lat"], pct)
    if value == float("inf"):
        return Metric(None, "ms", step["n"], "unmeasured: failed requests fill this percentile")
    return Metric(value, "ms", step["n"], f"p{pct} at {p.ref_rate} req/s, from due time")


def run(ctx: Context, quick: bool = False) -> tuple[Outcome, float | None]:
    """Three set-ups (the last server stays up), then the reference rounds
    with the rate ladder interleaved; returns (outcome, p50 ms).

    ``quick`` keeps one set-up and the rounds: the untraced half of a
    traced run."""
    warm = ctx.workload == "serve_warm"
    work = Workload(ctx, warm)
    p = work.p
    out = Outcome()
    setups = []
    server = None
    for attempt in range(1 if quick else 3):
        if server is not None:
            stop(server, out)
        elapsed, server, load, store = work.start(f"setup{attempt}", None)
        setups.append(elapsed)
    pace = Pace(ctx)
    _quiet_heap()
    blocks, bursts, burst_parts, ladder = _rounds(work, load, () if quick else p.ladder)
    stop(server, out)
    gc.unfreeze()
    _checked(work, work.warmups, out)
    ref = _step(*_checked(work, blocks, out), p, p.ref_rate, len(blocks))
    size = len(ref["lat"]) // len(blocks)
    ref_ms, per_ref = pace.per_ref(
        [(min(s.due for s in got), max(s.done for s in got)) for _, got in blocks],
        [ref["lat"][b * size:(b + 1) * size] for b in range(len(blocks))],
    )
    _, burst_ok = _checked(work, burst_parts, out)
    steps = [ref] + [
        _step(samples, work.verify(keys, samples, out), p, rate) for rate, keys, samples in ladder
    ]
    m = out.metrics
    m["setup_s"] = Metric(
        median(setups), "s", len(setups), ("prewarm + " if warm else "") + "server start + warm-up"
    )
    if all(burst_ok):
        m["wall_s"] = Metric(mean(bursts), "s", len(bursts), f"{p.burst} requests back to back on one connection, mean burst")
    else:
        m["wall_s"] = Metric(None, "s", len(bursts), "unmeasured: failed requests in the bursts")
    for pct in (50, 90, 99):
        m[f"p{pct}_ms"] = _latency(ref, pct, p)
    m["ref_ms"] = ref_ms
    m["p50_per_ref"] = per_ref
    passing = [s for s in steps if s["passed"]]
    if passing:
        m["max_rate_rps"] = Metric(
            passing[-1]["served"], "1/s", passing[-1]["n"],
            f"served at the {passing[-1]['rate']} req/s step (p{p.limit_pct} <= {p.limit_ms:g} ms)",
        )
    else:
        m["max_rate_rps"] = Metric(None, "1/s", ref["n"], "unmeasured: no step met the limit")
    m["peak_rss_mb"] = Metric(children_peak_rss_mb(), "MB", len(setups), "largest repro process")
    for s in steps:
        out.notes.append(
            f"{s['rate']:>5} req/s: n={s['n']} p50={percentile(s['lat'], 50):.2f} ms"
            f" p{p.limit_pct}={s['limit']:.2f} ms served={s['served']:.1f}/s failed={s['failed']}"
            f" generator late p50={s['late_p50']:.2f} ms max={s['late_max']:.1f} ms"
            f" backlog growth={s['growth']:.2f} ms -> {'pass' if s['passed'] else 'FAIL'}"
        )
    if warm:
        out.notes.append(
            f"store {file_bytes(store) / 1e6:.2f} MB on disk ({len(work.instances)} instances)"
            " vs SQLite's default page cache of 2.05 MB"
        )
    return out, m["p50_ms"].value


def traced(ctx: Context, untraced_p50: float | None, out: Outcome) -> dict[str, Metric]:
    """The reference rounds with the shims in this process (the prewarm's
    store writes) and in the server (through the launcher); failures are
    counted into ``out``."""
    work = Workload(ctx, ctx.workload == "serve_warm")
    p = work.p
    spans_dir = ctx.dir / "spans"
    before = len(shims.SPANS)
    _, server, load, store = work.start("traced", spans_dir)
    _quiet_heap()
    blocks, _, bursts, _ = _rounds(work, load)
    gc.unfreeze()
    _checked(work, work.warmups, out)
    ref_samples, ref_ok = _checked(work, blocks, out)
    ref = _step(ref_samples, ref_ok, p, p.ref_rate, len(blocks))
    burst_samples, burst_ok = _checked(work, bursts, out)
    samples, ok = ref_samples + burst_samples, ref_ok + burst_ok
    stats = None
    if server.popen.poll() is None:
        conn = http.client.HTTPConnection("127.0.0.1", load.port, timeout=30)
        conn.request("GET", "/stats")
        stats = json.loads(conn.getresponse().read())
        conn.close()
    stop(server, out)
    # the server's spans from the first reference request on, plus set-up's
    # store writes (the prewarm); set-up's own engine work is not measured
    begin = min(s.sent for s in samples)
    spans = [s for s in shims.load(spans_dir) if s[1] >= begin]
    spans += [s for s in shims.SPANS[before:] if s[0] == "store.put"]
    metrics = layers.compute(spans, stats=stats, store=store)
    good = [s for s, g in zip(samples, ok) if g]
    window = (begin, max(s.done for s in samples))
    checks = [s for s in spans if s[0] == "scheduler.check" and window[0] <= s[1] <= window[1]]
    names = ("service.server.self_ms", "trace.unattributed_ms", "trace.unattributed_share", "trace.overhead_ratio")
    if not good or not checks or untraced_p50 is None:
        reason = "unmeasured: " + next(iter(out.problems), "no request succeeded")
        for name in names:
            metrics[name] = Metric(None, layers.CATALOGUE[name][0], 0, reason)
        for name, metric in metrics.items():
            if metric.note == "bypassed" and not name.startswith("experiment."):
                metric.value, metric.note = None, reason
        return metrics
    client = sum(1000 * (s.done - s.sent) for s in good) / len(good)
    inner = 1000 * sum(c[2] - c[1] for c in checks) / len(checks)
    n = len(good)
    metrics[names[0]] = Metric(client - inner, "ms", n, "client latency - BatchScheduler.check")
    metrics[names[1]] = Metric(client - inner, "ms", n, "HTTP has no public per-request entry: equals server.self_ms")
    metrics[names[2]] = Metric((client - inner) / client, "ratio", n)
    metrics[names[3]] = Metric(
        percentile(ref["lat"], 50) / untraced_p50, "ratio", n, "traced / untraced p50_ms"
    )
    return metrics
