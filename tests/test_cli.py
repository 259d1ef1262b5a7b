"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "tri.hg"
    path.write_text("r(x,y),\ns(y,z),\nt(z,x).\n", encoding="utf-8")
    return path


@pytest.fixture
def acyclic_file(tmp_path):
    path = tmp_path / "path.hg"
    path.write_text("a(u,v), b(v,w).\n", encoding="utf-8")
    return path


class TestAnalyze:
    def test_analyze_output(self, triangle_file, capsys):
        assert main(["analyze", str(triangle_file)]) == 0
        out = capsys.readouterr().out
        assert "vertices     3" in out
        assert "BIP          1" in out

    def test_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.hg"
        bad.write_text("???", encoding="utf-8")
        assert main(["analyze", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


class TestWidth:
    def test_exact_width(self, triangle_file, capsys):
        assert main(["width", str(triangle_file)]) == 0
        assert "hw(tri) = 2" in capsys.readouterr().out

    def test_width_with_ghw(self, triangle_file, capsys):
        assert main(["width", str(triangle_file), "--ghw"]) == 0
        assert "ghw(tri) = hw(tri) = 2" in capsys.readouterr().out

    def test_acyclic(self, acyclic_file, capsys):
        assert main(["width", str(acyclic_file)]) == 0
        assert "hw(path) = 1" in capsys.readouterr().out


class TestDecompose:
    @pytest.mark.parametrize(
        "algorithm", ["hd", "globalbip", "localbip", "balsep", "hybrid"]
    )
    def test_decompose_yes(self, triangle_file, capsys, algorithm):
        code = main(["decompose", str(triangle_file), "-k", "2", "--algorithm", algorithm])
        assert code == 0
        out = capsys.readouterr().out
        assert "width 2" in out
        assert "bag {" in out

    def test_decompose_no(self, triangle_file, capsys):
        assert main(["decompose", str(triangle_file), "-k", "1"]) == 1
        assert "no HD of width <= 1" in capsys.readouterr().out

    def test_decompose_json(self, triangle_file, capsys):
        assert main(["decompose", str(triangle_file), "-k", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "HD"
        assert payload["width"] == 2.0

    def test_decompose_improve(self, triangle_file, capsys):
        code = main(["decompose", str(triangle_file), "-k", "2", "--improve"])
        assert code == 0
        assert "1.500" in capsys.readouterr().out

    def test_decompose_improve_honours_the_timeout(self, triangle_file, capsys):
        """--improve asks the engine's fracimprove check under --timeout."""
        from repro.engine import methods

        original = methods.get("fracimprove")

        def spin(h, k, deadline=None):
            while True:
                deadline.check()

        methods.register_check("fracimprove", spin)
        try:
            code = main([
                "decompose", str(triangle_file), "-k", "2",
                "--timeout", "0.2", "--improve",
            ])
        finally:
            methods.register(original)
        assert code == 0
        out = capsys.readouterr().out
        assert "HD of width 2" in out
        assert "best fractional improvement: timeout after " in out


class TestBenchmark:
    def test_benchmark_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        assert main(["benchmark", str(out_dir), "--scale", "0.03"]) == 0
        assert (out_dir / "hyperbench.csv").exists()
        assert (out_dir / "hyperbench.json").exists()
        assert (out_dir / "hyperbench.html").exists()
        hypergraphs = list((out_dir / "hypergraphs").glob("*.hg"))
        assert len(hypergraphs) == 10  # 5 classes x 2 minimum


class TestConvert:
    def test_convert_cq(self, capsys):
        assert main(["convert", "--cq", "ans(X) :- r(X,Y), s(Y,Z)."]) == 0
        out = capsys.readouterr().out
        assert "r#0(" in out and out.rstrip().endswith(".")

    def test_convert_xcsp(self, tmp_path, capsys):
        xml = tmp_path / "inst.xml"
        xml.write_text(
            """<instance format="XCSP3" type="CSP">
            <variables><var id="x">0 1</var><var id="y">0 1</var></variables>
            <constraints><extension id="c"><list>x y</list>
            <supports>(0,1)</supports></extension></constraints></instance>""",
            encoding="utf-8",
        )
        assert main(["convert", "--xcsp", str(xml)]) == 0
        assert "c(x,y)." in capsys.readouterr().out

    def test_convert_sql(self, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text(
            json.dumps({"relations": {"tab": ["a", "b", "c"]}}), encoding="utf-8"
        )
        sql = tmp_path / "q.sql"
        sql.write_text(
            "SELECT * FROM tab t1, tab t2 WHERE t1.a = t2.a;", encoding="utf-8"
        )
        assert main(["convert", "--sql", str(sql), "--schema", str(schema)]) == 0
        out = capsys.readouterr().out
        assert "t1(" in out and "t2(" in out

    def test_convert_sql_needs_schema(self, tmp_path, capsys):
        sql = tmp_path / "q.sql"
        sql.write_text("SELECT * FROM t;", encoding="utf-8")
        assert main(["convert", "--sql", str(sql)]) == 2
