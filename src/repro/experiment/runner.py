"""The resumable experiment runner: corpus → batched engine waves.

An experiment lives in one directory::

    expdir/
      manifest.json   what to run (corpus sections + protocol knobs)
      meta.jsonl      instance fingerprints, statistics, phase markers
      jobs.jsonl      the engine's batch journal (one line per finished job)
      store.db        the content-addressed ResultStore (file or shard dir)

Both journals are append-only and flushed per record, so a SIGKILL at any
point loses at most the line being written.  ``meta.jsonl`` is read with a
tolerant loader that skips torn lines; ``jobs.jsonl`` is the engine's own
:class:`~repro.engine.jobs.Journal`, which compacts damage away on load.
Resume is therefore not a special mode: :meth:`ExperimentRunner.run` always
replays the phases in order — corpus (fingerprint-verified against the
journal, so manifest or generator drift fails loudly instead of mixing two
corpora), statistics, the Figure 4 hw sweep, the Tables 3/4 portfolio
waves, the Table 6 fractional wave — and every wave goes through
``run_batch``, which skips journalled jobs, answers what the store already
knows, and executes only the remainder.  The hw, ghw and frac phases are
the analysis protocols themselves (:func:`~repro.analysis.hw_analysis.run_hw_analysis`,
:func:`~repro.analysis.ghw_analysis.run_ghw_analysis`,
:func:`~repro.analysis.fractional_analysis.run_fractional_analysis`) handed
the runner's journalled ``run_batch``, so which checks each phase asks, and
in which order, is written once.

The runner deliberately records *no* analysis results of its own: tables
are derived later by :class:`repro.experiment.results.ExperimentResults`,
which runs the same protocols again against a store-replay engine.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.analysis.fractional_analysis import run_fractional_analysis
from repro.analysis.ghw_analysis import run_ghw_analysis
from repro.analysis.hw_analysis import run_hw_analysis
from repro.benchmark.repository import HyperBenchRepository
from repro.core.properties import HypergraphStatistics, compute_statistics
from repro.engine.fingerprint import fingerprint
from repro.engine.jobs import JobSpec, Journal, append_record
from repro.errors import ReproError
from repro.experiment.corpus import Manifest, build_corpus

__all__ = [
    "PHASES",
    "ExperimentError",
    "ExperimentPaths",
    "ExperimentRunner",
    "ExperimentStatus",
    "MetaJournal",
    "RunSummary",
    "experiment_status",
]

#: Phase order; a phase marker in meta.jsonl means the phase fully finished.
PHASES = ("corpus", "stats", "hw", "ghw", "frac")


class ExperimentError(ReproError):
    """An experiment directory is inconsistent, incomplete, or drifted."""


@dataclass(frozen=True)
class ExperimentPaths:
    """The fixed layout of an experiment directory."""

    root: Path

    @classmethod
    def at(cls, root: "str | Path | ExperimentPaths") -> "ExperimentPaths":
        if isinstance(root, ExperimentPaths):
            return root
        return cls(Path(root))

    @property
    def manifest(self) -> Path:
        return self.root / "manifest.json"

    @property
    def meta(self) -> Path:
        return self.root / "meta.jsonl"

    @property
    def jobs(self) -> Path:
        return self.root / "jobs.jsonl"

    @property
    def store(self) -> Path:
        return self.root / "store.db"


class MetaJournal:
    """Append-only experiment metadata (instances, statistics, phases).

    Unlike the engine's job journal this one is never compacted or
    rewritten: a half-written tail line (the SIGKILL case) is skipped on
    load and simply re-appended by the next run.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def load(self) -> list[dict]:
        if not self.path.exists():
            return []
        records: list[dict] = []
        for line in self.path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail from a crash mid-append
            if isinstance(record, dict) and "type" in record:
                records.append(record)
        return records

    def append(self, record: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        append_record(self.path, record)


@dataclass
class RunSummary:
    """What one :meth:`ExperimentRunner.run` call did (including replays)."""

    instances: int = 0
    waves: int = 0
    total_jobs: int = 0
    resumed: int = 0
    cache_hits: int = 0
    executed: int = 0

    def book(self, report) -> None:
        self.waves += 1
        self.total_jobs += report.total
        self.resumed += report.resumed
        self.cache_hits += report.cache_hits
        self.executed += report.executed


class ExperimentRunner:
    """Drive one experiment directory to completion (idempotently).

    ``engine`` is a :class:`repro.engine.DecompositionEngine` whose store
    must be the experiment's ``store.db``; an optional ``dispatcher``
    (:class:`repro.engine.remote.Dispatcher`, the queue executor behind the
    engine's one batch path) runs the cold jobs on queue workers for
    multi-host execution — the waves are the same, so a run can even
    switch between the two between interruptions.
    """

    def __init__(
        self,
        paths: "str | Path | ExperimentPaths",
        engine,
        dispatcher=None,
        manifest: Manifest | None = None,
    ):
        self.paths = ExperimentPaths.at(paths)
        self.engine = engine
        self.dispatcher = dispatcher
        if manifest is None:
            if not self.paths.manifest.exists():
                raise ExperimentError(
                    f"no manifest at {self.paths.manifest}; pass one or run "
                    "`repro experiment run` first"
                )
            manifest = Manifest.from_file(self.paths.manifest)
        self.manifest = manifest

    # ------------------------------------------------------------- plumbing

    def _run_batch(self, specs: list[JobSpec], journal: Journal, summary: RunSummary):
        """Run one wave on the dispatcher (or the engine); returns its report."""
        if not specs:
            return None
        runner = self.dispatcher if self.dispatcher is not None else self.engine
        report = runner.run_batch(specs, journal=journal)
        summary.book(report)
        return report

    # ----------------------------------------------------------------- run

    def run(self) -> RunSummary:
        """Run (or resume) the experiment; safe to call any number of times."""
        self.paths.root.mkdir(parents=True, exist_ok=True)
        if not self.paths.manifest.exists():
            self.manifest.save(self.paths.manifest)
        meta = MetaJournal(self.paths.meta)
        records = meta.load()
        done_phases = {r["phase"] for r in records if r.get("type") == "phase"}
        summary = RunSummary()

        repository = self._corpus_phase(meta, records, done_phases)
        summary.instances = len(repository)
        self._stats_phase(meta, records, done_phases, repository)

        journal = Journal(self.paths.jobs)
        timeout = self.manifest.timeout

        def run_batch(specs):
            return self._run_batch(specs, journal, summary)

        run_hw_analysis(repository, self.manifest.max_k, timeout, run_batch=run_batch)
        self._mark(meta, done_phases, "hw")
        run_ghw_analysis(
            repository, tuple(self.manifest.ghw_ks), timeout, run_batch=run_batch
        )
        self._mark(meta, done_phases, "ghw")
        run_fractional_analysis(
            repository,
            tuple(self.manifest.hw_values),
            self.manifest.effective_frac_timeout,
            run_batch=run_batch,
        )
        self._mark(meta, done_phases, "frac")
        return summary

    def _mark(self, meta: MetaJournal, done_phases: set, phase: str) -> None:
        if phase not in done_phases:
            meta.append({"type": "phase", "phase": phase})
            done_phases.add(phase)

    # -------------------------------------------------------------- phases

    def _corpus_phase(
        self, meta: MetaJournal, records: list[dict], done_phases: set
    ) -> HyperBenchRepository:
        repository = build_corpus(self.manifest)
        known = {r["name"]: r for r in records if r.get("type") == "instance"}
        for entry in repository:
            fp = fingerprint(entry.hypergraph)
            prior = known.get(entry.name)
            if prior is None:
                meta.append(
                    {
                        "type": "instance",
                        "name": entry.name,
                        "class": str(entry.benchmark_class),
                        "family": entry.extra.get("family"),
                        "fingerprint": fp,
                    }
                )
            elif prior.get("fingerprint") != fp:
                raise ExperimentError(
                    f"instance {entry.name!r} drifted: journalled fingerprint "
                    f"{prior.get('fingerprint')!r} != rebuilt {fp!r} — the "
                    "manifest or a generator changed since the experiment "
                    "started; use a fresh directory"
                )
        self._mark(meta, done_phases, "corpus")
        return repository

    def _stats_phase(
        self,
        meta: MetaJournal,
        records: list[dict],
        done_phases: set,
        repository: HyperBenchRepository,
    ) -> None:
        known = {r["name"]: r.get("stats") for r in records if r.get("type") == "stats"}
        for entry in repository:
            payload = known.get(entry.name)
            if payload is not None:
                entry.statistics = HypergraphStatistics(**payload)
                continue
            entry.statistics = compute_statistics(entry.hypergraph)
            meta.append(
                {
                    "type": "stats",
                    "name": entry.name,
                    "stats": asdict(entry.statistics),
                }
            )
        self._mark(meta, done_phases, "stats")


# ------------------------------------------------------------------- status


@dataclass
class ExperimentStatus:
    """A cheap, read-only snapshot of an experiment directory."""

    root: Path
    exists: bool = False
    instances: int = 0
    phases: dict[str, bool] = field(default_factory=dict)
    #: journalled finished jobs per spec kind
    jobs: dict[str, int] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.exists and all(self.phases.get(p, False) for p in PHASES)


def experiment_status(paths: "str | Path | ExperimentPaths") -> ExperimentStatus:
    """Inspect an experiment directory without opening its store."""
    paths = ExperimentPaths.at(paths)
    status = ExperimentStatus(root=paths.root)
    if not paths.manifest.exists():
        return status
    status.exists = True
    records = MetaJournal(paths.meta).load()
    done = {r["phase"] for r in records if r.get("type") == "phase"}
    status.phases = {phase: phase in done for phase in PHASES}
    status.instances = sum(1 for r in records if r.get("type") == "instance")
    if paths.jobs.exists():
        for key in Journal(paths.jobs).load():
            kind = key[0]
            status.jobs[kind] = status.jobs.get(kind, 0) + 1
    return status
