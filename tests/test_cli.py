"""End-to-end command line behaviour, including exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mcsynth.cli as cli
from mcsynth.cli import main
from mcsynth.errors import InvalidBoundsError

from conftest import TOY4_TEXT, long_line_text


@pytest.fixture()
def sketch_file(tmp_path):
    path = tmp_path / "toy4.json"
    path.write_text(TOY4_TEXT)
    return str(path)


def spec_file(tmp_path, text):
    path = tmp_path / "spec.txt"
    path.write_text(text)
    return str(path)


def _env_with_src() -> dict:
    """Environment for a child interpreter that imports this checkout's sources."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestSynthCommand:
    @pytest.mark.parametrize("method", ["onebyone", "cegis", "ar", "hybrid"])
    def test_feasible_exit_zero(self, tmp_path, sketch_file, capsys, method):
        spec = spec_file(tmp_path, "P<=0.3 [F t]\n")
        code = main(["synth", "--sketch", sketch_file, "--spec", spec, "--method", method])
        out = capsys.readouterr().out
        assert code == 0
        assert "feasible" in out
        assert "X=s2" in out and "Y=f" in out

    def test_infeasible_exit_one(self, tmp_path, sketch_file):
        spec = spec_file(tmp_path, "P<=0.1 [F t]\n")
        code = main(["synth", "--sketch", sketch_file, "--spec", spec])
        assert code == 1

    def test_json_output_shape(self, tmp_path, sketch_file, capsys):
        spec = spec_file(tmp_path, "P<=0.3 [F t]\n")
        code = main(
            ["synth", "--sketch", sketch_file, "--spec", spec, "--method", "hybrid", "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "feasible"
        assert data["realization"] == {"X": "s2", "Y": "f", "T'": "t", "F'": "f"}
        assert data["values"]["P<=0.3 [F t]"] == pytest.approx(0.2, abs=1e-6)
        assert set(data["iterations"]) == {"cegis", "ar"}
        assert data["model_checks"] > 0

    def test_optimal_objective(self, tmp_path, sketch_file, capsys):
        spec = spec_file(tmp_path, "min P [F t]\n")
        code = main(["synth", "--sketch", sketch_file, "--spec", spec, "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "optimal"
        assert data["optimum"] == pytest.approx(0.2, abs=1e-6)

    def test_bad_sketch_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        spec = spec_file(tmp_path, "P<=0.3 [F t]\n")
        code = main(["synth", "--sketch", str(bad), "--spec", spec])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_nan_probability_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "nan.json"
        bad.write_text(TOY4_TEXT.replace('"s0": {"X": 1.0}', '"s0": {"X": NaN}'))
        spec = spec_file(tmp_path, "P<=0.3 [F t]\n")
        code = main(["synth", "--sketch", str(bad), "--spec", spec])
        assert code == 2
        assert "transitions.s0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new",
        [('"initial": "s0"', '"initial": ["s0"]'), ('"Y": ["t", "f"]', '"Y": [{"t": 1}, "f"]')],
    )
    def test_non_string_state_name_exit_two(self, tmp_path, capsys, old, new):
        bad = tmp_path / "bad.json"
        bad.write_text(TOY4_TEXT.replace(old, new))
        spec = spec_file(tmp_path, "P<=0.3 [F t]\n")
        assert main(["synth", "--sketch", str(bad), "--spec", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_non_utf8_sketch_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(TOY4_TEXT.replace('"s0"', '"s\xe9"').encode("latin-1"))
        spec = spec_file(tmp_path, "P<=0.3 [F t]\n")
        assert main(["synth", "--sketch", str(bad), "--spec", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "latin1.json" in err and "utf-8" in err

    @pytest.mark.parametrize("command", ["synth", "ce-report"])
    def test_deeply_nested_sketch_exit_two(self, tmp_path, capsys, command):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100000 + "]" * 100000)
        spec = spec_file(tmp_path, "P<=0.3 [F t]\n")
        assert main([command, "--sketch", str(bad), "--spec", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nested" in err

    def test_missing_file_exit_two(self, tmp_path):
        spec = spec_file(tmp_path, "P<=0.3 [F t]\n")
        assert main(["synth", "--sketch", str(tmp_path / "nope.json"), "--spec", spec]) == 2

    def test_bad_property_exit_two(self, tmp_path, sketch_file):
        spec = spec_file(tmp_path, "P<=0.3 [F nosuch]\n")
        assert main(["synth", "--sketch", sketch_file, "--spec", spec]) == 2

    def test_member_cap_exit_three(self, tmp_path, capsys):
        from mcsynth import generate_benchmark, serialize_sketch

        fam = generate_benchmark(10, 8, 3, 2)  # 3**8 = 6561 members
        sketch = tmp_path / "big.json"
        sketch.write_text(serialize_sketch(fam))
        spec = spec_file(tmp_path, "P<=0.5 [F goal]\n")
        import mcsynth.synthesis as synthesis_mod

        old_cap = synthesis_mod.MEMBER_CAP
        synthesis_mod.MEMBER_CAP = 100
        try:
            code = main(
                ["synth", "--sketch", str(sketch), "--spec", spec, "--method", "onebyone"]
            )
        finally:
            synthesis_mod.MEMBER_CAP = old_cap
        assert code == 3
        assert "resource cap" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "exc, shown",
        [
            (InvalidBoundsError("upper bound 0.1 below lower bound 0.2"), "InvalidBoundsError"),
            (ValueError("rerouting never exhibited the violation"), "Traceback"),
        ],
        ids=["mcsynth-error", "other-exception"],
    )
    def test_crash_exit_four(self, tmp_path, sketch_file, capsys, monkeypatch, exc, shown):
        # a crash must not exit 1, the code of an infeasible verdict
        def crash(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "synthesize", crash)
        spec = spec_file(tmp_path, "P<=0.3 [F t]\n")
        assert main(["synth", "--sketch", sketch_file, "--spec", spec]) == 4
        err = capsys.readouterr().err
        assert shown in err and str(exc) in err
        assert ("Traceback" in err) == (shown == "Traceback")

    @pytest.mark.parametrize("method", ["cegis", "hybrid"])
    def test_recursion_depth_exit_three(self, tmp_path, method):
        # a 1200-parameter cube overflows the recursive member accounting
        sketch = tmp_path / "line.json"
        sketch.write_text(long_line_text(1200))
        spec = spec_file(tmp_path, "max P [F goal]\n")
        args = ["synth", "--sketch", str(sketch), "--spec", spec, "--method", method]
        proc = subprocess.run(
            [sys.executable, "-m", "mcsynth", *args],
            capture_output=True,
            text=True,
            env=_env_with_src(),
            timeout=120,
        )
        assert proc.returncode == 3
        assert "resource cap" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestShippedSketch:
    def test_demo_sketch_solves(self, tmp_path, capsys):
        from pathlib import Path

        shipped = Path(__file__).resolve().parent.parent / "demos" / "toy4.json"
        spec = spec_file(tmp_path, "P<=0.3 [F t]\n")
        code = main(["synth", "--sketch", str(shipped), "--spec", spec, "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["realization"]["X"] == "s2"


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path, sketch_file):
        spec = spec_file(tmp_path, "P<=0.3 [F t]\n")
        proc = subprocess.run(
            [sys.executable, "-m", "mcsynth", "synth", "--sketch", sketch_file,
             "--spec", spec, "--json"],
            capture_output=True,
            text=True,
            env=_env_with_src(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "feasible"


DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


class TestDemos:
    def test_demos_present(self):
        assert len(DEMOS) >= 5

    @pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
    def test_demo_runs(self, demo):
        proc = subprocess.run(
            [sys.executable, str(demo)], capture_output=True, text=True, env=_env_with_src()
        )
        assert proc.returncode == 0, proc.stderr


class TestImportFootprint:
    def test_synthesis_loads_no_scipy(self, tmp_path):
        """Importing scipy's sparse solvers doubles the peak memory of ``import mcsynth``.

        networkx, an oracle of the tests, would cost memory the same way.
        """
        sketch = tmp_path / "toy4.json"
        sketch.write_text(TOY4_TEXT)
        script = (
            "import sys, mcsynth\n"
            f"family = mcsynth.parse_sketch(open({str(sketch)!r}).read())\n"
            "spec = mcsynth.parse_spec('P<=0.3 [F t]', family)\n"
            "assert mcsynth.synthesize(family, spec).verdict == 'feasible'\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'networkx')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=_env_with_src()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestBenchCommand:
    def test_gen_writes_parseable_sketch(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(
            ["bench", "gen", "--states", "10", "--params", "3", "--domain", "2",
             "--seed", "7", "-o", str(out)]
        )
        assert code == 0
        from mcsynth import parse_sketch

        fam = parse_sketch(out.read_text())
        assert fam.n_states == 10

    def test_gen_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["bench", "gen", "--states", "10", "--params", "3", "--domain", "2", "--seed", "7"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_gen_rejects_bad_sizes(self, tmp_path, capsys):
        code = main(
            ["bench", "gen", "--states", "3", "--params", "2", "--domain", "9",
             "--seed", "1", "-o", str(tmp_path / "x.json")]
        )
        assert code == 2

    def test_gen_into_missing_directory_exit_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        code = main(
            ["bench", "gen", "--states", "10", "--params", "3", "--domain", "2",
             "--seed", "7", "-o", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "wrote" not in captured.out
        assert not out.exists()


class TestCeReportCommand:
    def test_non_utf8_spec_exit_two(self, tmp_path, sketch_file, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_bytes(b"# caf\xe9\nP<=0.3 [F t]\n")
        assert main(["ce-report", "--sketch", sketch_file, "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "spec.txt" in err and "utf-8" in err

    def test_text_report(self, tmp_path, sketch_file, capsys):
        spec = spec_file(tmp_path, "P<=0.3 [F t]\n")
        code = main(["ce-report", "--sketch", sketch_file, "--spec", spec, "--mode", "family"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean ratio" in out

    def test_json_report_with_minimal_oracle(self, tmp_path, sketch_file, capsys):
        spec = spec_file(tmp_path, "P<=0.3 [F t]\n")
        code = main(
            ["ce-report", "--sketch", sketch_file, "--spec", spec,
             "--mode", "trivial", "--minimal-oracle", "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mode"] == "trivial"
        assert data["mean_minimal_ratio"] <= data["mean_ratio"]

    def test_no_violators_succeeds(self, tmp_path, sketch_file, capsys):
        spec = spec_file(tmp_path, "P<=0.9 [F t]\n")
        code = main(["ce-report", "--sketch", sketch_file, "--spec", spec])
        assert code == 0
        assert "no violating" in capsys.readouterr().out

    def test_member_cap_exit_three(self, tmp_path, capsys):
        from mcsynth import generate_benchmark, serialize_sketch

        sketch = tmp_path / "big.json"
        sketch.write_text(serialize_sketch(generate_benchmark(30, 24, 2, 1)))  # 2**24 members
        spec = spec_file(tmp_path, "P<=0.5 [F goal]\n")
        code = main(["ce-report", "--sketch", str(sketch), "--spec", spec])
        assert code == 3
        assert "resource cap" in capsys.readouterr().err
