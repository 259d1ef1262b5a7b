#!/usr/bin/env python
"""Cold ``Check(H, k)`` microbench: bitset kernel vs frozenset reference.

Runs the fixed workload of :mod:`repro.perf.harness` (repository-style
instances across the hw / ghw / balsep methods), writes ``BENCH_kernel.json``
(per-case wall time, components/covers call counts, per-case speedup), and
optionally gates against a committed baseline.  Unless ``--no-dispatch`` is
given, the report also carries a ``"dispatch"`` section: an engine
``run_batch`` of ≥ 50 small instances through ≥ 2 worker processes over
the :class:`repro.core.bitset.PackedHypergraph` wire format, timed, with
every verdict cross-checked against the frozen reference kernel.

Usage::

    PYTHONPATH=src python benchmarks/bench_micro_kernel.py             # full
    PYTHONPATH=src python benchmarks/bench_micro_kernel.py --quick \
        --baseline benchmarks/BENCH_kernel.baseline.json               # CI

Exit status is non-zero on any verdict mismatch between the kernels, any
dispatch verdict mismatch vs the reference kernel, telemetry overhead above
the 1.05x gate, or any baseline regression (> 2x plus a 50 ms floor).
"""

import sys

from repro.perf.harness import main

if __name__ == "__main__":
    sys.exit(main())
