"""Lazily-computed results view over an experiment directory.

`ExperimentResults` is the read side of the pipeline (the shape follows
fuzzbench's ``experiment_results.py``): every table, figure and aggregate
is a cached property, computed on first access from the experiment's
journals and result store — nothing is computed for a report that does not
ask for it.

The view replays rather than reimplements: it rebuilds the corpus from the
manifest, restores the journalled statistics, and then runs the analysis
protocols (`run_hw_analysis`, `run_ghw_analysis`,
`run_fractional_analysis`) exactly as the runner ran them, wave by wave,
against a replay engine whose every answer comes from the experiment's
store.  In complete mode a store miss raises
:class:`~repro.experiment.runner.ExperimentError` instead of silently
computing fresh; ``partial=True`` relaxes that for in-flight experiments
(missing checks then run in-process, sequentially).

Deterministic mode (the manifest's default) wraps the store in a proxy
that zeroes all replayed runtimes, making rendered reports byte-identical
across independent runs of the same manifest — wall-clock seconds never
are.  Pass ``deterministic=False`` to keep the measured timings.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property

from repro.analysis.experiments import StudyResult, assemble_study
from repro.analysis.fractional_analysis import run_fractional_analysis
from repro.analysis.ghw_analysis import run_ghw_analysis
from repro.analysis.hw_analysis import run_hw_analysis
from repro.benchmark.repository import HyperBenchRepository
from repro.core.properties import HypergraphStatistics, compute_statistics
from repro.engine.engine import DecompositionEngine
from repro.engine.jobs import PORTFOLIO
from repro.engine.shards import open_result_store
from repro.experiment.corpus import Manifest, build_corpus
from repro.experiment.runner import (
    ExperimentError,
    ExperimentPaths,
    MetaJournal,
    experiment_status,
)

__all__ = ["ExperimentResults"]


class _ZeroSecondsStore:
    """Store proxy reporting every replayed verdict at 0.0 seconds.

    Verdicts, decompositions and per-algorithm metadata pass through
    unchanged; only the timing columns of the rendered tables are affected.
    """

    def __init__(self, store):
        self._store = store

    def get(self, *args, **kwargs):
        stored = self._store.get(*args, **kwargs)
        if stored is None:
            return None
        extra = stored.extra
        if extra and "per" in extra:
            extra = {
                **extra,
                "per": {
                    name: [row[0], 0.0, *row[2:]]
                    for name, row in extra["per"].items()
                },
            }
        return dataclasses.replace(stored, seconds=0.0, extra=extra)

    def __getattr__(self, name):
        return getattr(self._store, name)


class _ReplayEngine(DecompositionEngine):
    """Sequential engine that answers from the store; ``strict`` forbids work."""

    def __init__(self, store, strict: bool):
        super().__init__(store=store, jobs=1)
        self.strict = strict

    def _execute(self, method, hypergraph, k, timeout, trace=None):
        if self.strict:
            raise ExperimentError(
                f"no stored result for {method} k={k} on {hypergraph.name!r} "
                "— the experiment is incomplete; `repro experiment resume` "
                "it or read it with partial=True"
            )
        return super()._execute(method, hypergraph, k, timeout, trace)

    def _run_cold(self, specs, cold):
        # a portfolio job's racers would reach _execute by their own method
        # names; name the missing race instead
        races = [specs[i] for i in cold if specs[i].kind == PORTFOLIO]
        if self.strict and races:
            raise ExperimentError(
                f"no stored portfolio verdict for k={races[0].k} on "
                f"{races[0].hypergraph.name!r} — the experiment is incomplete; "
                "`repro experiment resume` it or read it with partial=True"
            )
        return super()._run_cold(specs, cold)


class ExperimentResults:
    """Read-side view: tables/figures as lazy properties over the journals.

    >>> results = ExperimentResults("exp/")            # doctest: +SKIP
    >>> results.study.results["table1"].rendered       # doctest: +SKIP
    """

    def __init__(
        self,
        root,
        deterministic: bool | None = None,
        partial: bool = False,
    ):
        self.paths = ExperimentPaths.at(root)
        if not self.paths.manifest.exists():
            raise ExperimentError(f"no experiment at {self.paths.root}")
        self.manifest = Manifest.from_file(self.paths.manifest)
        self.deterministic = (
            self.manifest.deterministic if deterministic is None else deterministic
        )
        self.partial = partial
        self.status = experiment_status(self.paths)
        if not partial and not self.status.complete:
            missing = [p for p, done in self.status.phases.items() if not done]
            raise ExperimentError(
                f"experiment at {self.paths.root} is incomplete "
                f"(missing phases: {', '.join(missing) or 'all'}); "
                "`repro experiment resume` it or pass partial=True"
            )

    # ------------------------------------------------------------ plumbing

    @cached_property
    def _records(self) -> list[dict]:
        return MetaJournal(self.paths.meta).load()

    @cached_property
    def _engine(self) -> _ReplayEngine:
        store = open_result_store(self.paths.store)
        if self.deterministic:
            store = _ZeroSecondsStore(store)
        return _ReplayEngine(store, strict=not self.partial)

    def close(self) -> None:
        if "_engine" in self.__dict__:
            self._engine.close()

    def __enter__(self) -> "ExperimentResults":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ analyses

    @cached_property
    def repository(self) -> HyperBenchRepository:
        """The corpus with journalled statistics restored (no bounds yet)."""
        repository = build_corpus(self.manifest)
        stats = {
            r["name"]: r.get("stats")
            for r in self._records
            if r.get("type") == "stats"
        }
        for entry in repository:
            payload = stats.get(entry.name)
            if payload is not None:
                entry.statistics = HypergraphStatistics(**payload)
            else:
                # never journalled (partial experiments) — compute live,
                # it's deterministic
                entry.statistics = compute_statistics(entry.hypergraph)
        return repository

    @cached_property
    def hw(self):
        """The Figure 4 sweep, replayed (fills the repository's hw bounds)."""
        return run_hw_analysis(
            self.repository,
            max_k=self.manifest.max_k,
            timeout=self.manifest.timeout,
            run_batch=self._engine.run_batch,
        )

    @cached_property
    def ghw(self):
        """The Tables 3/4 races, replayed (requires the hw bounds)."""
        self.hw
        return run_ghw_analysis(
            self.repository,
            ks=tuple(self.manifest.ghw_ks),
            timeout=self.manifest.timeout,
            run_batch=self._engine.run_batch,
        )

    @cached_property
    def fractional(self):
        """The Tables 5/6 study, replayed (requires the hw sweep's HDs)."""
        self.hw
        return run_fractional_analysis(
            self.repository,
            hw_values=tuple(self.manifest.hw_values),
            timeout=self.manifest.effective_frac_timeout,
            run_batch=self._engine.run_batch,
        )

    @cached_property
    def study(self) -> StudyResult:
        """All paper artefacts (:func:`~repro.analysis.experiments.assemble_study`)."""
        self.hw, self.ghw  # protocol order: ghw reads hw bounds
        return assemble_study(self.repository, self.hw, self.ghw, self.fractional)

    # ----------------------------------------------------------- aggregates

    @cached_property
    def class_counts(self) -> dict[str, int]:
        """Instances per benchmark class (from the corpus, not the store)."""
        counts: dict[str, int] = {}
        for entry in self.repository:
            key = str(entry.benchmark_class)
            counts[key] = counts.get(key, 0) + 1
        return counts

    @cached_property
    def family_counts(self) -> dict[str, int]:
        """Instances per corpus family."""
        counts: dict[str, int] = {}
        for entry in self.repository:
            key = str(entry.extra.get("family"))
            counts[key] = counts.get(key, 0) + 1
        return counts

    @cached_property
    def method_verdicts(self) -> dict[str, dict[str, int]]:
        """Journalled verdict counts per method (hd, portfolio, fracimprove)."""
        from repro.engine.jobs import Journal

        counts: dict[str, dict[str, int]] = {}
        if self.paths.jobs.exists():
            for key, payload in Journal(self.paths.jobs).load().items():
                method = key[2] if key[0] == "check" else key[0]
                per = counts.setdefault(method, {})
                verdict = payload.get("verdict", "?")
                per[verdict] = per.get(verdict, 0) + 1
        return counts

    @cached_property
    def unresolved(self) -> list[str]:
        """Instances with no hw upper bound after the full sweep."""
        return list(self.hw.unresolved)

    def render_all(self) -> str:
        return self.study.render_all()
