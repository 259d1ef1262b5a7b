"""``repro.experiment`` — the corpus → runner → report pipeline.

The paper's evaluation as one reproducible, resumable surface (the ROADMAP's
"scenario diversity" item): a JSON :class:`~repro.experiment.corpus.Manifest`
describes the corpus and protocol, the
:class:`~repro.experiment.runner.ExperimentRunner` fans it through
``DecompositionEngine.run_batch`` (its cold jobs optionally executed by a
queue :class:`~repro.engine.remote.Dispatcher`) with crash-safe journals, the
:class:`~repro.experiment.results.ExperimentResults` view lazily replays the
original analysis protocols against the persisted store, and
:mod:`~repro.experiment.report` renders Tables 1–6 / Figures 3–5 as
markdown, HTML, CSV or JSON.  CLI: ``repro experiment run|resume|status|
report``; docs: ``docs/EXPERIMENTS.md``.
"""

from repro.experiment.corpus import (
    FAMILIES,
    CorpusSection,
    Family,
    Manifest,
    build_corpus,
    default_manifest,
)
from repro.experiment.report import (
    ARTEFACT_ORDER,
    REPORT_FORMATS,
    render_csv,
    render_html,
    render_json,
    render_markdown,
    write_report,
)
from repro.experiment.results import ExperimentResults
from repro.experiment.runner import (
    PHASES,
    ExperimentError,
    ExperimentPaths,
    ExperimentRunner,
    ExperimentStatus,
    MetaJournal,
    RunSummary,
    experiment_status,
)

__all__ = [
    "ARTEFACT_ORDER",
    "FAMILIES",
    "PHASES",
    "REPORT_FORMATS",
    "CorpusSection",
    "ExperimentError",
    "ExperimentPaths",
    "ExperimentResults",
    "ExperimentRunner",
    "ExperimentStatus",
    "Family",
    "Manifest",
    "MetaJournal",
    "RunSummary",
    "build_corpus",
    "default_manifest",
    "experiment_status",
    "render_csv",
    "render_html",
    "render_json",
    "render_markdown",
    "write_report",
]
