"""Shared fixture for the ablation benches.

The ablations time kernels on benchmark instances; they share one synthetic
benchmark per pytest session, built at a reduced scale.  The paper's
tables themselves come from ``repro experiment report``.

Scale and seed can be tuned via environment variables
``HYPERBENCH_SCALE`` (default 0.2) and ``HYPERBENCH_SEED`` (default 42).
"""

from __future__ import annotations

import os

import pytest

from repro.benchmark.build import build_default_benchmark
from repro.benchmark.repository import HyperBenchRepository

SCALE = float(os.environ.get("HYPERBENCH_SCALE", "0.2"))
SEED = int(os.environ.get("HYPERBENCH_SEED", "42"))


@pytest.fixture(scope="session")
def repository() -> HyperBenchRepository:
    """The default synthetic benchmark, built once per session."""
    return build_default_benchmark(scale=SCALE, seed=SEED)
