"""The experiment pipeline: corpus → runner → results → report.

The load-bearing proofs live here:

* **Round trip**: the statistics journalled in ``meta.jsonl`` restore to
  exactly what ``compute_statistics`` returns, so the results view's
  Table 2 and Figure 5 read the same metrics the run computed.
* **Resume**: an experiment interrupted at an arbitrary point — engine
  crash mid-wave, torn journal tails, SIGKILLed subprocess — and resumed
  must produce a byte-identical report to an uninterrupted run.  The
  hypothesis test draws the crash point and the torn-byte counts; the
  subprocess test delivers a real SIGKILL through the CLI.

Golden files under ``tests/golden/`` pin the rendered bytes of a fixed
tiny experiment, so report rendering cannot drift silently.
"""

from __future__ import annotations

import json
import signal
import os
import threading
from pathlib import Path

import pytest
import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.properties import compute_statistics
from repro.engine import DecompositionEngine, Dispatcher, JobQueue, QueueWorker
from repro.engine.shards import open_result_store
from repro.errors import ReproError
from repro.experiment import (
    CorpusSection,
    ExperimentError,
    ExperimentPaths,
    ExperimentResults,
    ExperimentRunner,
    Manifest,
    MetaJournal,
    build_corpus,
    experiment_status,
    render_csv,
    render_html,
    render_json,
    render_markdown,
    write_report,
)

from tests.conftest import spawn_cli, wait_for_lines

GOLDEN = Path(__file__).parent / "golden"

#: Fast without timeouts (every check terminates in milliseconds), covering
#: the structured, model-layer (repro.cq / repro.csp) and random families.
TINY_MANIFEST = Manifest(
    name="tiny",
    seed=5,
    deterministic=True,
    timeout=None,
    max_k=4,
    sections=[
        CorpusSection("cycle", 3, params={"size": [3, 8]}),
        CorpusSection("grid", 2, params={"size": [2, 3]}),
        CorpusSection("clique", 2, params={"size": [4, 6]}),
        CorpusSection("csp", 2, params={"variables": 6, "constraints": 7}),
        CorpusSection(
            "cq",
            params={
                "queries": [
                    "ans(X,Z) :- r(X,Y), s(Y,Z), t(Z,X).",
                    "ans(A) :- p(A,B), q(B,C).",
                ]
            },
        ),
    ],
)


def run_experiment(root: Path, manifest: Manifest, engine=None) -> None:
    paths = ExperimentPaths.at(root)
    root.mkdir(parents=True, exist_ok=True)
    owned = engine is None
    if engine is None:
        engine = DecompositionEngine(store=open_result_store(paths.store))
    try:
        ExperimentRunner(paths, engine, manifest=manifest).run()
    finally:
        if owned:
            engine.close()


@pytest.fixture(scope="module")
def tiny_experiment(tmp_path_factory) -> Path:
    """One clean, complete run of the tiny manifest (shared, read-only)."""
    root = tmp_path_factory.mktemp("exp") / "tiny"
    run_experiment(root, TINY_MANIFEST)
    return root


@pytest.fixture(scope="module")
def tiny_report(tiny_experiment) -> dict[str, str]:
    with ExperimentResults(tiny_experiment) as results:
        return {
            "md": render_markdown(results),
            "html": render_html(results),
            "csv": render_csv(results),
            "json": render_json(results),
        }


# ------------------------------------------------------------------- corpus


class TestCorpus:
    def test_corpus_is_deterministic(self):
        a = build_corpus(TINY_MANIFEST)
        b = build_corpus(TINY_MANIFEST)
        assert [e.name for e in a] == [e.name for e in b]
        for x, y in zip(a, b):
            assert x.hypergraph.edges == y.hypergraph.edges

    def test_generator_families_honor_count(self):
        manifest = Manifest(
            sections=[
                CorpusSection("cycle", 4),
                CorpusSection("grid", 3),
                CorpusSection("sql", 2),
            ]
        )
        corpus = build_corpus(manifest)
        assert len(corpus) == 9

    def test_family_tag_rides_into_exports(self):
        corpus = build_corpus(TINY_MANIFEST)
        entry = next(iter(corpus))
        assert entry.extra["family"] == "cycle"
        assert entry.as_record()["family"] == "cycle"
        header = corpus.to_csv().splitlines()[0]
        assert "family" in header.split(",")

    def test_unknown_family_rejected(self):
        with pytest.raises(ReproError, match="unknown corpus family"):
            CorpusSection.from_dict({"family": "nope", "count": 1})

    def test_inline_cq_family_needs_queries(self):
        with pytest.raises(ReproError, match="queries"):
            build_corpus(Manifest(sections=[CorpusSection("cq", 1)]))

    def test_manifest_roundtrip(self, tmp_path):
        manifest = TINY_MANIFEST
        path = tmp_path / "m.json"
        manifest.save(path)
        assert Manifest.from_file(path) == manifest
        assert Manifest.from_dict(json.loads(path.read_text())) == manifest


# ------------------------------------------------------------------- runner


class TestRunner:
    def test_run_is_idempotent(self, tiny_experiment, tiny_report):
        # a second run over a complete directory executes nothing
        paths = ExperimentPaths.at(tiny_experiment)
        engine = DecompositionEngine(store=open_result_store(paths.store))
        try:
            summary = ExperimentRunner(
                paths, engine, manifest=TINY_MANIFEST
            ).run()
        finally:
            engine.close()
        assert summary.executed == 0
        assert summary.resumed == summary.total_jobs
        with ExperimentResults(tiny_experiment) as results:
            assert render_markdown(results) == tiny_report["md"]

    def test_status_reports_phases_and_jobs(self, tiny_experiment):
        status = experiment_status(tiny_experiment)
        assert status.complete
        assert status.instances == 11
        assert all(status.phases.values())
        assert status.jobs["check"] > 0
        assert status.jobs["portfolio"] > 0

    def test_status_of_missing_directory(self, tmp_path):
        status = experiment_status(tmp_path / "nope")
        assert not status.exists and not status.complete

    def test_drifted_corpus_fails_loudly(self, tiny_experiment, tmp_path):
        import shutil

        root = tmp_path / "drift"
        shutil.copytree(tiny_experiment, root)
        drifted = Manifest.from_dict(TINY_MANIFEST.to_dict())
        # the csp family's names don't encode its params: same names, new graphs
        drifted.sections[3].params = {"variables": 9, "constraints": 11}
        engine = DecompositionEngine(store=open_result_store(ExperimentPaths.at(root).store))
        try:
            with pytest.raises(ExperimentError, match="drifted"):
                ExperimentRunner(root, engine, manifest=drifted).run()
        finally:
            engine.close()

    def test_incomplete_experiment_refuses_strict_results(self, tmp_path):
        root = tmp_path / "partial"
        root.mkdir()
        TINY_MANIFEST.save(ExperimentPaths.at(root).manifest)
        with pytest.raises(ExperimentError, match="incomplete"):
            ExperimentResults(root)

    def test_strict_replay_never_computes(self, triangle):
        """Reading a complete experiment only replays its store: a missing
        row raises instead of running a check or a portfolio race, whether
        asked directly or through a batch."""
        from repro.engine import JobSpec, ResultStore
        from repro.experiment.results import _ReplayEngine

        with _ReplayEngine(ResultStore(), strict=True) as engine:
            with pytest.raises(ExperimentError, match="no stored result"):
                engine.check(triangle, 2)
            with pytest.raises(ExperimentError, match="no stored portfolio"):
                engine.run_batch([JobSpec.portfolio(triangle, 2)])

    def test_strict_replay_never_computes_a_missing_frac_row(
        self, tiny_experiment, tmp_path
    ):
        """Table 6 replays through the same strict engine: with the
        fracimprove rows gone, reading it raises and writes nothing."""
        import shutil
        import sqlite3

        root = tmp_path / "nofrac"
        shutil.copytree(tiny_experiment, root)
        db = ExperimentPaths.at(root).store
        with sqlite3.connect(db) as conn:
            deleted = conn.execute(
                "DELETE FROM results WHERE method = 'fracimprove'"
            ).rowcount
        conn.close()
        assert deleted > 0
        with open_result_store(db) as store:
            rows = len(store)
        with ExperimentResults(root) as results:
            with pytest.raises(ExperimentError, match="no stored result for fracimprove"):
                results.fractional
        with open_result_store(db) as store:
            assert len(store) == rows

    @pytest.mark.parametrize(
        "manifest",
        [
            Manifest(
                name="acyclic",
                timeout=None,
                max_k=4,
                sections=[
                    CorpusSection("cq", params={"queries": ["ans(A) :- p(A,B), q(B,C)."]})
                ],
            ),
            Manifest(
                name="no-hw-values",
                timeout=None,
                max_k=4,
                sections=[CorpusSection("cycle", 2, params={"size": [3, 5]})],
                hw_values=[],
            ),
        ],
        ids=["acyclic-only", "empty-hw-values"],
    )
    def test_empty_fractional_wave_completes(self, manifest, tmp_path):
        """A corpus with no instance in ``hw_values`` runs an empty Tables
        5/6 wave: the experiment completes, resumes with nothing to do and
        renders both tables without rows."""
        root = tmp_path / manifest.name
        run_experiment(root, manifest)
        assert experiment_status(root).complete
        engine = DecompositionEngine(
            store=open_result_store(ExperimentPaths.at(root).store)
        )
        try:
            summary = ExperimentRunner(root, engine, manifest=manifest).run()
        finally:
            engine.close()
        assert summary.executed == 0
        with ExperimentResults(root) as results:
            fractional = results.fractional
            markdown = render_markdown(results)
        assert fractional.improve_hd == {} and fractional.frac_improve == {}
        assert "## Table 6: Instances solved with FracImproveHD" in markdown

    def test_partial_results_compute_missing_checks_live(self, tmp_path):
        root = tmp_path / "partial"
        root.mkdir()
        TINY_MANIFEST.save(ExperimentPaths.at(root).manifest)
        with ExperimentResults(root, partial=True) as results:
            table1 = results.study.results["table1"]
        assert table1.rows[-1][1] == 11  # total instances


# ------------------------------------------------------------- round trip


class TestStatisticsRoundTrip:
    def test_restored_statistics_equal_fresh_ones(self, tiny_experiment):
        """Every instance's statistics are journalled, and what the results
        view restores from meta.jsonl equals a fresh computation."""
        records = MetaJournal(ExperimentPaths.at(tiny_experiment).meta).load()
        journalled = {r["name"] for r in records if r.get("type") == "stats"}
        with ExperimentResults(tiny_experiment) as results:
            repository = results.repository
        assert journalled == {entry.name for entry in repository}
        for entry in repository:
            assert entry.statistics == compute_statistics(entry.hypergraph), entry.name


# ------------------------------------------------------------------- resume


class _Interrupt(RuntimeError):
    pass


class _CrashingEngine(DecompositionEngine):
    """Raise after ``fuel`` executed checks — a deterministic mid-run crash."""

    def __init__(self, store, fuel: int):
        super().__init__(store=store)
        self.fuel = fuel

    def _execute(self, *args, **kwargs):
        if self.fuel <= 0:
            raise _Interrupt()
        self.fuel -= 1
        return super()._execute(*args, **kwargs)


class TestResume:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(
        fuel=st.integers(min_value=0, max_value=40),
        torn_jobs=st.integers(min_value=0, max_value=40),
        torn_meta=st.integers(min_value=0, max_value=40),
    )
    def test_interrupted_run_resumes_byte_identically(
        self, tiny_report, tmp_path_factory, fuel, torn_jobs, torn_meta
    ):
        """Crash after an arbitrary number of checks, tear both journal
        tails by arbitrary amounts, resume: the report must not differ by
        one byte from an uninterrupted run's."""
        root = tmp_path_factory.mktemp("resume") / "exp"
        paths = ExperimentPaths.at(root)
        root.mkdir(parents=True)
        engine = _CrashingEngine(open_result_store(paths.store), fuel)
        finished = True
        try:
            ExperimentRunner(paths, engine, manifest=TINY_MANIFEST).run()
        except _Interrupt:
            finished = False
        finally:
            engine.close()
        for path, torn in ((paths.jobs, torn_jobs), (paths.meta, torn_meta)):
            if path.exists() and torn:
                data = path.read_bytes()
                path.write_bytes(data[: max(0, len(data) - torn)])
        run_experiment(root, TINY_MANIFEST)  # resume
        assert experiment_status(root).complete
        with ExperimentResults(root) as results:
            assert render_markdown(results) == tiny_report["md"]
            assert render_csv(results) == tiny_report["csv"]
        if finished and not (torn_jobs or torn_meta):
            return  # nothing was interrupted — still a valid identity check

    def test_sigkilled_cli_run_resumes_byte_identically(
        self, tiny_report, tmp_path
    ):
        """A real ``repro experiment run`` subprocess SIGKILLed mid-journal,
        resumed through the CLI: report equals the clean run's."""
        from repro.cli import main

        root = tmp_path / "killed"
        manifest_path = tmp_path / "tiny.json"
        TINY_MANIFEST.save(manifest_path)
        proc = spawn_cli(
            "experiment", "run", "--dir", str(root), "--manifest", str(manifest_path)
        )
        try:
            wait_for_lines(ExperimentPaths.at(root).jobs, minimum=3)
        except TimeoutError:
            # so fast it finished — the resume below still must be a no-op
            pass
        finally:
            if proc.poll() is None:
                os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
        assert main(["experiment", "resume", "--dir", str(root)]) == 0
        with ExperimentResults(root) as results:
            assert render_markdown(results) == tiny_report["md"]
            assert render_csv(results) == tiny_report["csv"]

    def test_independent_runs_render_identical_reports(
        self, tiny_report, tmp_path
    ):
        """Deterministic mode: two unrelated runs agree byte-for-byte."""
        root = tmp_path / "again"
        run_experiment(root, TINY_MANIFEST)
        with ExperimentResults(root) as results:
            for fmt, render in (
                ("md", render_markdown),
                ("html", render_html),
                ("csv", render_csv),
                ("json", render_json),
            ):
                assert render(results) == tiny_report[fmt], fmt


# ------------------------------------------------------------------- report


class TestReport:
    def test_golden_markdown(self, tiny_report):
        assert tiny_report["md"] == (GOLDEN / "experiment_report.md").read_text()

    def test_golden_csv(self, tiny_report):
        assert tiny_report["csv"] == (GOLDEN / "experiment_report.csv").read_text()

    def test_queued_run_renders_the_goldens(self, tmp_path):
        """``repro experiment run --queue``: every wave goes through a
        Dispatcher to a worker sharing the store, and the reports are the
        goldens, byte for byte."""
        root = tmp_path / "queued"
        paths = ExperimentPaths.at(root)
        root.mkdir()
        queue = JobQueue(tmp_path / "jobs.db")
        engine = DecompositionEngine(store=open_result_store(paths.store))
        worker = QueueWorker(
            queue, DecompositionEngine(store=open_result_store(paths.store)), poll=0.01
        )
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            dispatcher = Dispatcher(queue, engine, wait_timeout=120)
            ExperimentRunner(
                paths, engine, dispatcher=dispatcher, manifest=TINY_MANIFEST
            ).run()
        finally:
            worker.stop()
            thread.join(timeout=10)
            worker.engine.close()
            engine.close()
            queue.close()
        assert not thread.is_alive()
        with ExperimentResults(root) as results:
            assert render_markdown(results) == (GOLDEN / "experiment_report.md").read_text()
            assert render_csv(results) == (GOLDEN / "experiment_report.csv").read_text()

    def test_markdown_has_all_artefacts(self, tiny_report):
        for title_bit in ("Table 1", "Table 6", "Figure 3", "Figure 5"):
            assert title_bit in tiny_report["md"]

    def test_html_is_escaped_and_complete(self, tiny_report):
        html = tiny_report["html"]
        assert html.startswith("<!doctype html>")
        assert "<table>" in html and "</html>" in html
        assert "hw &gt;= 2" in html  # header cells are escaped

    def test_csv_long_format(self, tiny_report):
        lines = tiny_report["csv"].splitlines()
        assert lines[0] == "artefact,row,column,value"
        assert any(line.startswith("table1,0,") for line in lines)

    def test_json_parses_with_ordered_artefacts(self, tiny_report):
        payload = json.loads(tiny_report["json"])
        ids = [a["id"] for a in payload["artefacts"]]
        assert ids[:5] == ["table1", "table2", "figure3", "figure4", "figure5"]
        assert payload["instances"] == 11

    def test_write_report_emits_requested_formats(self, tiny_experiment, tmp_path):
        with ExperimentResults(tiny_experiment) as results:
            written = write_report(results, tmp_path / "out", ("md", "json"))
        assert sorted(written) == ["json", "md"]
        assert all(path.exists() for path in written.values())

    def test_timed_reports_carry_seconds(self, tiny_experiment):
        # not byte-stable, but the verdict-derived cells must match the
        # deterministic report's (only timing columns may differ)
        with ExperimentResults(tiny_experiment, deterministic=False) as results:
            table1 = results.study.results["table1"].rendered
        with ExperimentResults(tiny_experiment) as results:
            assert results.study.results["table1"].rendered == table1


# ---------------------------------------------------------------------- cli


class TestExperimentCli:
    def test_run_status_report(self, tmp_path, capsys):
        from repro.cli import main

        root = tmp_path / "exp"
        manifest_path = tmp_path / "tiny.json"
        TINY_MANIFEST.save(manifest_path)
        assert main([
            "experiment", "run", "--dir", str(root), "--manifest", str(manifest_path)
        ]) == 0
        out = capsys.readouterr().out
        assert "instances    11" in out

        assert main(["experiment", "status", "--dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "complete     True" in out

        assert main(["experiment", "report", "--dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

        dest = tmp_path / "report"
        assert main([
            "experiment", "report", "--dir", str(root),
            "--format", "all", "--dest", str(dest),
        ]) == 0
        assert sorted(p.name for p in dest.iterdir()) == [
            "report.csv", "report.html", "report.json", "report.md",
        ]

    def test_run_refuses_started_directory(self, tmp_path, capsys):
        from repro.cli import main

        root = tmp_path / "exp"
        manifest_path = tmp_path / "tiny.json"
        TINY_MANIFEST.save(manifest_path)
        assert main([
            "experiment", "run", "--dir", str(root), "--manifest", str(manifest_path)
        ]) == 0
        capsys.readouterr()
        assert main([
            "experiment", "run", "--dir", str(root), "--manifest", str(manifest_path)
        ]) == 2
        assert "resume" in capsys.readouterr().err

    def test_status_of_nothing(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["experiment", "status", "--dir", str(tmp_path / "no")]) == 1


# -------------------------------------------------- satellite regressions


class TestRenderAllSubset:
    def test_render_all_with_subset(self, tiny_experiment):
        with ExperimentResults(tiny_experiment) as results:
            study = results.study
        study.results = {
            "table4": study.results["table4"],
            "table1": study.results["table1"],
            "ecc": study.results["table2"],  # an extra, non-canonical key
        }
        rendered = study.render_all()
        # canonical order first, extras after — and no KeyError
        assert rendered.index("Table 1") < rendered.index("Table 4")
        assert rendered.index("Table 4") < rendered.index("Table 2")

    def test_render_all_empty_study(self, tiny_experiment):
        with ExperimentResults(tiny_experiment) as results:
            study = results.study
        study.results = {}
        assert study.render_all() == ""


class TestCsvUnionFields:
    def test_heterogeneous_records_export(self):
        from repro.benchmark.classes import BenchmarkClass
        from repro.benchmark.repository import HyperBenchRepository
        from repro.core.hypergraph import Hypergraph
        from repro.core.properties import compute_statistics

        repo = HyperBenchRepository()
        plain = repo.add(
            Hypergraph({"e": ["a", "b"]}, name="plain"), BenchmarkClass.CQ_APPLICATION
        )
        tagged = repo.add(
            Hypergraph({"e": ["a", "b"]}, name="tagged"), BenchmarkClass.CQ_APPLICATION
        )
        # mixed: one entry with computed statistics and extras, one bare
        tagged.statistics = compute_statistics(tagged.hypergraph)
        tagged.extra["family"] = "cycle"
        tagged.extra["hd"] = object()  # structured extras must not export
        csv_text = repo.to_csv()
        header, row_plain, row_tagged = csv_text.splitlines()
        columns = header.split(",")
        assert columns.count("family") == 1
        assert "hd" not in columns
        assert len(row_plain.split(",")) == len(columns)
        assert row_tagged.split(",")[columns.index("family")] == "cycle"
        # the bare entry's missing column is empty, not an error
        assert row_plain.split(",")[columns.index("family")] == ""
