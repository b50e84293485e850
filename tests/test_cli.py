import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import irid
import irid.cli
from irid.cli import run_cli
from irid.data import bundled_bytes
from irid.errors import BudgetExceeded
from irid.model import (
    ArrowSpec,
    Cpt,
    Frame,
    NodeSpec,
    ValueTable,
    build_model,
)
from irid.modelfile import serialize_model

REPO_ROOT = Path(__file__).resolve().parents[1]
#: the directory this suite imported the irid package from
IMPORT_ROOT = str(Path(irid.__file__).resolve().parents[1])


def _child_env():
    """The environment with irid importable from where this suite imported it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (IMPORT_ROOT, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture
def wildcatter_file(tmp_path):
    path = tmp_path / "wildcatter_irid.json"
    path.write_bytes(bundled_bytes("wildcatter_irid"))
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    doc = json.loads(bundled_bytes("wildcatter_irid"))
    doc["cpts"][2]["rows"][0]["p"]["o"] = 0.17
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestValidate:
    def test_ok(self, wildcatter_file, capsys):
        assert run_cli(["validate", wildcatter_file]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_broken_model_exits_2(self, broken_file, capsys):
        assert run_cli(["validate", broken_file]) == 2
        err = capsys.readouterr().err
        assert "cpts[2].rows[0].p" in err

    def test_missing_file_exits_2(self, tmp_path):
        assert run_cli(["validate", str(tmp_path / "nope.json")]) == 2

    def test_syntax_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli(["validate", str(path)]) == 2

    @pytest.mark.parametrize("constraints", [None, 3, {}, {"D": []}], ids=repr)
    def test_constraints_not_a_list_exits_2(self, tmp_path, capsys, constraints):
        doc = json.loads(bundled_bytes("wildcatter_irid"))
        doc["constraints"] = constraints
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid model at constraints: " in err
        assert err.count("constraints") == 1

    def test_schema_error_names_its_path_once(self, tmp_path, capsys):
        doc = json.loads(bundled_bytes("wildcatter_irid"))
        doc["cpts"][0]["rows"][0]["given"] = []
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "invalid model at cpts[0].rows[0].given: expected dict, got list\n"

    def test_deep_nesting_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert run_cli(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("invalid model: ")

    @pytest.mark.parametrize("literal", ["1e400", "NaN"])
    def test_non_finite_value_names_its_cell(self, tmp_path, capsys, literal):
        doc = json.loads(bundled_bytes("wildcatter_irid"))
        doc["value"]["cells"][3]["v"] = "@v@"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc).replace('"@v@"', literal))
        assert run_cli(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("invalid model at value.cells[3].v: ")

    @pytest.mark.parametrize(
        "edit, field",
        [
            pytest.param(lambda doc: doc["arrows"][4].update(to="Q"), "arrows[4]", id="unknown"),
            pytest.param(
                lambda doc: doc["nodes"].append(dict(doc["nodes"][0])), "nodes[6].id", id="duplicate"
            ),
            pytest.param(
                lambda doc: doc["arrows"].append({"from": "R", "to": "O", "kind": "relevance"}),
                "arrows[1]",
                id="cycle",
            ),
        ],
    )
    def test_graph_errors_name_their_field(self, tmp_path, capsys, edit, field):
        doc = json.loads(bundled_bytes("wildcatter_irid"))
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"invalid model at {field}: ")

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + '{"schema_version": "1"}'.encode("utf-16-le"))
        assert run_cli(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid model: not UTF-8 at byte 0: ")


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert run_cli(["frobnicate"]) == 1

    def test_missing_required_out(self, wildcatter_file):
        assert run_cli(["solve", wildcatter_file, "--backend", "exact"]) == 1

    def test_bad_backend(self, wildcatter_file, tmp_path):
        out = str(tmp_path / "s.json")
        assert run_cli(["solve", wildcatter_file, "--backend", "magic", "--out", out]) == 1

    @pytest.mark.parametrize(
        "flag",
        # the last is no flag of the parser: every draw after the burn-in is kept
        [("--samples", "0"), ("--burn-in", "-1"), ("--seed", "-1"), ("--thinning", "2")],
    )
    def test_bad_sampler_flag(self, wildcatter_file, tmp_path, capsys, flag):
        out = tmp_path / "s.json"
        argv = ["solve", wildcatter_file, "--backend", "gibbs", *flag, "--out", str(out)]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert not out.exists()
        assert run_cli(["compare", wildcatter_file, *flag]) == 1
        assert capsys.readouterr().err.startswith("usage error:")

    @pytest.mark.parametrize("flag", [("--seed", "3"), ("--burn-in", "10"), ("--samples", "0")])
    def test_sampler_flag_with_exact_backend(self, wildcatter_file, tmp_path, capsys, flag):
        out = tmp_path / "s.json"
        argv = ["solve", wildcatter_file, "--backend", "exact", *flag, "--out", str(out)]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and flag[0] in err
        assert not out.exists()


class TestSolve:
    def test_exact_solve_writes_solution(self, wildcatter_file, tmp_path, capsys):
        out = str(tmp_path / "s.json")
        assert run_cli(["solve", wildcatter_file, "--backend", "exact", "--out", out]) == 0
        text = capsys.readouterr().out
        assert "expected value: 334750.00" in text
        assert "policy for D" in text
        doc = json.loads(Path(out).read_bytes())
        cells = {
            tuple(c["given"][v] for v in ("B", "T", "R")): c["choose"]
            for p in doc["policies"]
            if p["decision"] == "D"
            for c in p["cells"]
        }
        for r in ("o", "c", "nr"):
            assert cells[("$1M", "t2", r)] == "nd"

    def test_gibbs_solve_reproducible(self, wildcatter_file, tmp_path):
        out1 = str(tmp_path / "a.json")
        out2 = str(tmp_path / "b.json")
        argv = [
            "solve", wildcatter_file, "--backend", "gibbs",
            "--seed", "7", "--burn-in", "50", "--samples", "400", "--out",
        ]
        assert run_cli(argv + [out1]) == 0
        assert run_cli(argv + [out2]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    @pytest.mark.parametrize("samples", ["1", "2"])
    def test_std_error_of_one_sample_is_undefined(self, wildcatter_file, tmp_path, capsys, samples):
        out = tmp_path / "s.json"
        argv = ["solve", wildcatter_file, "--backend", "gibbs", "--seed", "0", "--burn-in", "0"]
        assert run_cli([*argv, "--samples", samples, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        doc = json.loads(out.read_bytes())
        if samples == "1":
            assert "(std error undefined, n 1)" in text
            assert doc["expected_value_std_error"] is None
            assert all(d["std_error"] is None for d in doc["diagnostics"])
        else:
            assert re.search(r"\(std error [0-9.]+, n 2\)", text)
            assert doc["expected_value_std_error"] is not None

    def test_unwritable_solution_file_is_a_usage_error(self, wildcatter_file, tmp_path, capsys):
        out = tmp_path / "missing" / "s.json"
        assert run_cli(["solve", wildcatter_file, "--backend", "exact", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: cannot write solution:")

    def test_invalid_model_leaves_an_existing_solution_file(self, tmp_path, capsys):
        model = tmp_path / "broken.json"
        model.write_bytes(b"{}")
        out = tmp_path / "s.json"
        out.write_bytes(b"old")
        assert run_cli(["solve", str(model), "--backend", "exact", "--out", str(out)]) == 2
        assert out.read_bytes() == b"old"

    def test_failed_serialization_leaves_an_existing_solution_file(
        self, wildcatter_file, tmp_path, monkeypatch, capsys
    ):
        def too_large(solution):
            raise MemoryError

        monkeypatch.setattr(irid.cli, "serialize_solution", too_large)
        out = tmp_path / "s.json"
        out.write_bytes(b"old")
        assert run_cli(["solve", wildcatter_file, "--backend", "exact", "--out", str(out)]) == 3
        assert capsys.readouterr().err == "runtime error: out of memory\n"
        assert out.read_bytes() == b"old"

    @pytest.mark.parametrize(
        "backend, message",
        [
            (
                ["--backend", "gibbs", "--burn-in", "7", "--samples", "1000000000000"],
                "runtime error: out of memory in a sampler run of 1000000000000"
                " draws per estimate (stream advanced past 7 draws)\n",
            ),
            (["--backend", "exact"], "runtime error: out of memory\n"),
        ],
    )
    def test_out_of_memory_is_a_runtime_error(
        self, wildcatter_file, tmp_path, monkeypatch, capsys, backend, message
    ):
        def too_large(model, options):
            raise MemoryError

        monkeypatch.setattr(irid.cli, "solve", too_large)
        out = tmp_path / "s.json"
        assert run_cli(["solve", wildcatter_file, *backend, "--out", str(out)]) == 3
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_unexpected_exception_is_an_internal_error(
        self, wildcatter_file, tmp_path, monkeypatch, capsys
    ):
        def broken(model, options):
            raise RuntimeError("solver state lost")

        monkeypatch.setattr(irid.cli, "solve", broken)
        out = tmp_path / "s.json"
        assert run_cli(["solve", wildcatter_file, "--backend", "exact", "--out", str(out)]) == 5
        captured = capsys.readouterr()
        assert captured.err == "internal error: RuntimeError: solver state lost\n"
        assert captured.out == ""
        assert not out.exists()

    def test_objective_flag(self, wildcatter_file, tmp_path, capsys):
        out = str(tmp_path / "s.json")
        code = run_cli(
            ["solve", wildcatter_file, "--backend", "exact", "--objective", "min", "--out", out]
        )
        assert code == 0
        doc = json.loads(Path(out).read_bytes())
        assert doc["objective"] == "minimize"


class TestCompare:
    def test_policies_agree_at_default_settings(self, wildcatter_file, capsys):
        assert run_cli(["compare", wildcatter_file, "--seed", "42"]) == 0
        text = capsys.readouterr().out
        assert "policies agree" in text
        assert "exact=" in text and "estimate=" in text

    #: 1 000 draws after 100 of burn-in at seed 0 pick `nd` in the stage-2
    #: cell B=$2M, T=t1, R=o, which the optimal policies never reach
    _SHORT_RUN = ["--seed", "0", "--burn-in", "100", "--samples", "1000"]

    def test_a_tie_broken_the_other_way_agrees(self, wildcatter_file, capsys):
        """The short run's policies differ from the exact ones only in a cell
        the optimum never reaches, so they reach the same optimum."""
        assert run_cli(["compare", wildcatter_file, *self._SHORT_RUN]) == 0
        text = capsys.readouterr().out
        assert "policy for D: agrees (tie)" in text
        assert "policy for T: agrees\n" in text
        assert "policies agree (tie)" in text and "DIFFERS" not in text

    def test_a_worse_policy_differs(self, wildcatter_file, capsys):
        """Twenty draws without burn-in at seed 1 skip test t2 with the
        $2M budget, a policy worth 250 000, not the optimal 334 750."""
        argv = ["compare", wildcatter_file, "--seed", "1", "--burn-in", "0", "--samples", "20"]
        assert run_cli(argv) == 4
        text = capsys.readouterr().out
        assert "DIFFERS" in text and "(tie)" not in text
        assert text.endswith("policies differ\n")

    def test_std_error_of_one_sample_prints_as_not_available(self, wildcatter_file, capsys):
        argv = ["compare", wildcatter_file, "--seed", "0", "--burn-in", "0", "--samples", "1"]
        assert run_cli(argv) in (0, 4)
        estimates = [line for line in capsys.readouterr().out.splitlines() if "estimate=" in line]
        assert estimates
        assert all(
            line.endswith("se=n/a") or line.endswith("(zero-probability cell)")
            for line in estimates
        )

    def test_a_policy_too_large_to_evaluate_differs(self, wildcatter_file, monkeypatch, capsys):
        def over_budget(model, policies):
            raise BudgetExceeded("too many joint configurations")

        monkeypatch.setattr(irid.cli.oracle_mod, "exact_expectation", over_budget)
        assert run_cli(["compare", wildcatter_file, *self._SHORT_RUN]) == 4
        text = capsys.readouterr().out
        assert "policy for D: DIFFERS" in text and "(tie)" not in text


class TestOracle:
    def test_wildcatter(self, wildcatter_file, capsys):
        assert run_cli(["oracle", wildcatter_file]) == 0
        assert "334750.00" in capsys.readouterr().out

    def test_budget_exceeded_exits_3(self, tmp_path, capsys):
        # 24 independent binary chance variables: too many joint
        # configurations for the default enumeration budget
        n = 24
        nodes = tuple(
            NodeSpec(f"C{i}", "chance", Frame(("0", "1"))) for i in range(n)
        ) + (NodeSpec("V", "value"),)
        arrows = (ArrowSpec("C0", "V", "relevance"),)
        cpts = tuple(Cpt(f"C{i}", (), {(): {"0": 0.5, "1": 0.5}}) for i in range(n))
        model = build_model(
            nodes, arrows, cpts, (), ValueTable(("C0",), {("0",): 0.0, ("1",): 1.0})
        )
        path = tmp_path / "big.json"
        path.write_bytes(serialize_model(model))
        assert run_cli(["oracle", str(path)]) == 3
        assert "runtime error" in capsys.readouterr().err


class TestEntryPoint:
    def test_console_script_runs(self, wildcatter_file):
        """The console script that pyproject.toml declares works as a process.

        The child runs the declared target the way the wrapper script that
        pip generates does, with irid importable from where this suite
        imported it, so no install is needed."""
        tomllib = pytest.importorskip("tomllib")
        with open(REPO_ROOT / "pyproject.toml", "rb") as f:
            scripts = tomllib.load(f)["project"]["scripts"]
        assert scripts["irid"] == "irid.cli:main"
        module, func = scripts["irid"].split(":")
        wrapper = (
            f"import sys\nfrom {module} import {func}\n"
            f"sys.argv[0] = 'irid'\nsys.exit({func}())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "validate", wildcatter_file],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "OK"

    @pytest.mark.parametrize("module", ["irid", "irid.cli"])
    def test_python_m_runs(self, module, wildcatter_file):
        """`python -m irid` and `python -m irid.cli` run the command line."""
        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", module, *args],
                capture_output=True, text=True, env=_child_env(),
            )

        proc = run("validate", wildcatter_file)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "OK"
        assert run("bogus").returncode == 1

    def test_import_loads_no_dependency_but_numpy(self):
        """numpy is irid's only runtime dependency: a fresh `import irid`
        loads no other package from outside the standard library."""
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import irid\n"
            "loaded = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "print(sorted(loaded - set(sys.stdlib_module_names)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['irid', 'numpy']"

    @pytest.mark.skipif(
        shutil.which("irid") is None, reason="no installed irid executable on PATH"
    )
    def test_installed_console_script_runs(self, wildcatter_file):
        proc = subprocess.run(
            ["irid", "validate", wildcatter_file], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "OK"


class TestReadme:
    def test_library_example_runs(self, capsys):
        """The `python` block under "Library use" in README.md prints what
        its comments say."""
        readme = (REPO_ROOT / "README.md").read_text()
        section = readme.split("## Library use", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        expected = [
            line.split("#", 1)[1].strip()
            for line in code.splitlines()
            if line.startswith("print(")
        ]
        assert expected[0] == "334750.0"
        exec(compile(code, "README.md", "exec"), {})
        assert capsys.readouterr().out.splitlines() == expected

    @pytest.mark.parametrize("source", ["README.md", "cli.py"])
    def test_documented_flags_are_the_parser_flags(self, source):
        """The README's "Command line" section and the `irid.cli` docstring
        name exactly the flags the parser defines, `--help` aside."""
        if source == "README.md":
            readme = (REPO_ROOT / "README.md").read_text()
            text = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
        else:
            text = irid.cli.__doc__
        parser = irid.cli._build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        defined = {
            flag
            for sub in commands.choices.values()
            for action in sub._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        }
        assert set(re.findall(r"--[a-z][a-z-]*", text)) == defined
