"""numpy and scipy are not dependencies: the entry points, the covering LP
and the Figure 5 correlation all run in a process that cannot import them."""

import os
import subprocess
import sys

from tests.conftest import REPO_ROOT

#: Prepended to every probe: an import hook that refuses numpy and scipy,
#: as if neither were installed.
BLOCK = """\
import sys

class _Blocked:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("numpy", "scipy"):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, _Blocked())
"""


def run_blocked(probe: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
    )
    return subprocess.run(
        [sys.executable, "-c", BLOCK + probe, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestWithoutNumpyOrScipy:
    def test_entry_modules_import(self):
        run = run_blocked(
            "import repro.cli, repro.service.server, repro.engine.remote\n"
            "print('imported')\n"
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "imported"

    def test_fractional_command(self, tmp_path):
        path = tmp_path / "tri.hg"
        path.write_text("r(x,y),\ns(y,z),\nt(z,x).\n")
        run = run_blocked(
            "import runpy\n"
            "runpy.run_module('repro', run_name='__main__', alter_sys=True)\n",
            "fractional", str(path), "-k", "2",
        )
        assert run.returncode == 0, run.stderr
        assert "FracImproveHD width  1.500" in run.stdout, run.stdout

    def test_correlation_matrix(self):
        run = run_blocked(
            "from repro.analysis.correlation import METRICS, correlation_matrix\n"
            "from repro.analysis.hw_analysis import run_hw_analysis\n"
            "from repro.benchmark.classes import BenchmarkClass\n"
            "from repro.benchmark.repository import HyperBenchRepository\n"
            "from repro.core.hypergraph import Hypergraph\n"
            "repo = HyperBenchRepository('small')\n"
            "for n in (3, 4, 5):\n"
            "    edges = {f'e{i}': [f'v{i}', f'v{(i + 1) % n}'] for i in range(n)}\n"
            "    repo.add(Hypergraph(edges, name=f'cycle{n}'),"
            " BenchmarkClass.CQ_APPLICATION)\n"
            "repo.add(Hypergraph({'a': ['1', '2'], 'b': ['2', '3']}, name='path'),"
            " BenchmarkClass.CQ_APPLICATION)\n"
            "repo.compute_all_statistics()\n"
            "run_hw_analysis(repo, max_k=3, timeout=10.0)\n"
            "matrix = correlation_matrix(repo)\n"
            "print(len(matrix), [matrix[i][i] for i in range(len(METRICS))])\n"
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == f"9 {[1.0] * 9}"
