"""The host's pace: time one fixed piece of interpreter work every 20 ms.

    python3 perfbench/pace.py <out-file>

Prints ``pace ready`` once the first sample is taken, samples until
SIGTERM, then writes one line per sample to ``<out-file>`` and exits 0:
``<monotonic seconds> <sample milliseconds> <steal ticks> <total ticks>``,
the last two being every CPU's clock ticks so far from ``/proc/stat``.

A sample follows 300 random entries of a shuffled list of a million ints
(about 36 MB, past the CPU's caches), a new stretch of entries each time.
Its time moves with the CPU's speed and with the load on the memory
system, which other tenants of a shared host change; it runs no code of
the program.  ``common.Pace`` divides latencies by it.  On the host this
was written on, its mean followed the server's latency more closely than
a loop of arithmetic that stays in the caches (run-to-run spread of the
ratio 0.036-0.107 against 0.065-0.123 in three batches).  What the host
withholds from the guest's CPUs altogether (steal) does not show in one
short sample; the tick counts let ``common.Pace`` add it.
"""

from __future__ import annotations

import random
import signal
import sys
import time

PERIOD_S = 0.02
SIZE = 1_000_000
STEPS = 300
STARTS = 100_000


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) clock ticks of all CPUs so far; (0, 0) without ``/proc``."""
    try:
        with open("/proc/stat") as stat:
            ticks = [int(field) for field in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return ticks[7], sum(ticks)


def main(path: str) -> int:
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    rng = random.Random(0)
    table = list(range(SIZE))
    rng.shuffle(table)
    starts = [rng.randrange(SIZE) for _ in range(STARTS)]
    samples = []
    at = 0
    while not stopping:
        begin = time.perf_counter()
        checksum = 0
        for i in starts[at:at + STEPS]:
            checksum += table[table[i]]
        samples.append((time.monotonic(), 1000 * (time.perf_counter() - begin), *cpu_ticks()))
        at = (at + STEPS) % (STARTS - STEPS)
        if len(samples) == 1:
            print("pace ready", flush=True)
        time.sleep(PERIOD_S)
    with open(path, "w") as out:
        out.writelines(f"{t:.6f} {ms:.6f} {steal} {total}\n" for t, ms, steal, total in samples)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
