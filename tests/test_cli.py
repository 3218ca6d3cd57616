"""Command-line interface: outputs, formats, determinism, exit codes."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import germlab
from germlab import cli
from germlab.cli import (
    EXIT_BAD_CHECK_DATA,
    EXIT_INCONSISTENT,
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_NOT_A_FINITE,
    EXIT_OK,
    EXIT_RESOURCE,
    main,
)
from germlab.errors import (
    GermlabError,
    IncompleteDataError,
    InconsistentDataError,
    InvalidInputError,
    NotAFiniteError,
    NotIcisError,
    PolySyntaxError,
    ResourceLimitError,
    VariableMismatchError,
)
from germlab.multipoint import InfeasibleDimensionsError

CONTRACTIBLE_GERM = """\
n 5
p 8
component y^3 + x1*y
component y^4 + x2*y
component y^5 + x3*y
component x4*y + x1*y^2
"""

STABLE_GERM = """\
n 3
p 5
component y^3 + x1*y
component y^4 + x2*y
component x2*y + y^2
"""

S2_GERM = """\
n 2
p 3
component y^2
component y^3 + x1^3*y
"""

NOT_A_FINITE_GERM = """\
n 3
p 4
component y^3
component x1*y
"""

S2_TABLE = """\
group_order 2
class (2) 1
class (1,1) 1
irrep (2) 1 1
irrep (1,1) -1 1
"""

SPHERE_DATA = "top_dim 2\nclass (1,1) single 2 1\nclass (2) single 1 1\n"

BAD_SPHERE_DATA = "top_dim 2\nclass (1,1) single 2 1\nclass (2) single 1 2\n"

CUSP_CONSERVATION = """\
kind tau-milnor
d 1
mu_x0 2
betti_tau 0
local 1
local 1
"""

KILLING_CONSERVATION = """\
kind image-milnor
n 3
p 5
mu_i 0
nu_i 0
betti 2 1
local_mu 1
local_nu 1
delta 0
"""

MISSING_DELTA = """\
kind image-milnor
n 3
p 5
mu_i 0
nu_i 0
betti 2 1
local_mu 1
local_nu 1
"""


@pytest.fixture()
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_contractible_report(self, files, capsys):
        path = files("g.germ", CONTRACTIBLE_GERM)
        code, out, _ = run(capsys, "analyze", path)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["strongly_contractible"] is True
        assert report["mu_image"] == 0
        assert any(
            sp["k"] == 3 and sp["kind"] == "isolated_points" for sp in report["spaces"]
        )

    def test_stable_report_has_empty_table(self, files, capsys):
        path = files("g.germ", STABLE_GERM)
        code, out, _ = run(capsys, "analyze", path)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["stable"] is True
        assert all(cell["value"] == 0 for cell in report["icss"])

    def test_tau_enrichment(self, files, capsys):
        path = files("g.germ", S2_GERM)
        code, out, _ = run(capsys, "analyze", path, "--tau", "(2)")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["tau"] == "(2)"
        assert report["mu_tau"] == {"2": 0}

    def test_text_format(self, files, capsys):
        path = files("g.germ", S2_GERM)
        code, out, _ = run(capsys, "--format", "text", "analyze", path)
        assert code == EXIT_OK
        assert "mu_I = 2" in out

    def test_deterministic_output(self, files, capsys):
        path = files("g.germ", S2_GERM)
        _, first, _ = run(capsys, "analyze", path)
        _, second, _ = run(capsys, "analyze", path)
        assert first == second

    def test_byte_identical_across_processes(self, files):
        import subprocess
        import sys

        path = files("g.germ", S2_GERM)
        # The child imports the germlab under test, installed or not.
        pythonpath = os.pathsep.join(
            filter(None, [str(Path(germlab.__file__).parents[1]), os.environ.get("PYTHONPATH")])
        )
        outs = []
        for seed in ("101", "202"):
            proc = subprocess.run(
                [sys.executable, "-m", "germlab.cli", "analyze", path],
                capture_output=True,
                text=True,
                env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath},
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_not_a_finite_exit_with_partial_report(self, files, capsys):
        path = files("g.germ", NOT_A_FINITE_GERM)
        code, out, _ = run(capsys, "analyze", path)
        assert code == EXIT_NOT_A_FINITE
        report = json.loads(out)
        assert report["a_finite"] is False and report["mu_image"] is None

    def test_budget_exit(self, files, capsys):
        path = files("g.germ", S2_GERM)
        code, _, err = run(capsys, "--budget-steps", "1", "analyze", path)
        assert code == EXIT_RESOURCE
        assert "budget" in err

    def test_parse_error_exit(self, files, capsys):
        path = files("g.germ", "n 2\np 3\ncomponent y^^2\ncomponent x1*y\n")
        code, _, err = run(capsys, "analyze", path)
        assert code == EXIT_INPUT
        assert "offset" in err


class TestScCommands:
    def test_feasible_false(self, files, capsys):
        code, out, _ = run(capsys, "sc-feasible", "3", "5")
        assert code == EXIT_OK
        assert json.loads(out)["feasible"] is False

    def test_feasible_true_for_4_5_is_false(self, capsys):
        code, out, _ = run(capsys, "sc-feasible", "4", "5")
        assert json.loads(out)["feasible"] is False

    def test_generate_round_trips_through_analyze(self, files, capsys, tmp_path):
        out_path = str(tmp_path / "sc.germ")
        code, _, _ = run(capsys, "--output", out_path, "sc-generate", "5", "8")
        assert code == EXIT_OK
        code, out, _ = run(capsys, "analyze", out_path)
        assert code == EXIT_OK
        assert json.loads(out)["strongly_contractible"] is True

    @pytest.mark.parametrize("n, p", [(9, 14), (17, 23)])
    def test_generate_with_leftover_base_variables(self, capsys, n, p):
        code, out, err = run(capsys, "sc-generate", str(n), str(p))
        assert code == EXIT_OK, err
        assert out.startswith(f"n {n}\np {p}\n")

    def test_generate_infeasible(self, capsys):
        code, _, err = run(capsys, "sc-generate", "3", "5")
        assert code == EXIT_INFEASIBLE
        assert "strongly contractible" in err


class TestTables:
    def test_char_table_3(self, capsys):
        code, out, _ = run(capsys, "char-table", "3")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["group_order"] == 6
        standard = next(r for r in payload["irreducibles"] if r["label"] == "(2,1)")
        assert standard["degree"] == 2

    def test_char_table_text(self, capsys):
        code, out, _ = run(capsys, "--format", "text", "char-table", "2")
        assert code == EXIT_OK
        assert "group_order 2" in out

    def test_icss_csv(self, files, capsys):
        path = files("g.germ", S2_GERM)
        code, out, _ = run(capsys, "--format", "csv", "icss", path)
        assert code == EXIT_OK
        assert out.splitlines()[0] == "r,q,k,value"


class TestIsotypeCommand:
    def test_sphere_alternating(self, files, capsys):
        table = files("s2.table", S2_TABLE)
        data = files("sphere.data", SPHERE_DATA)
        code, out, _ = run(capsys, "isotype", table, data, "--tau", "(1,1)")
        assert code == EXIT_OK
        assert json.loads(out) == {"(1,1)": "1"}

    def test_inconsistent_data_exit(self, files, capsys):
        table = files("s2.table", S2_TABLE)
        data = files("bad.data", BAD_SPHERE_DATA)
        code, _, err = run(capsys, "isotype", table, data, "--tau", "(1,1)")
        assert code == EXIT_INCONSISTENT
        assert "inconsistent" in err


class TestMilnorCommand:
    def test_hypersurface(self, files, capsys):
        path = files("cubic.ideal", "vars x y\nx^3 + y^3\n")
        code, out, _ = run(capsys, "milnor", path)
        assert code == EXIT_OK
        assert json.loads(out) == {"mu": 4}

    def test_complete_intersection(self, files, capsys):
        path = files("curve.ideal", "vars x y1 y2\ny1 + y2\ny1^2 + y1*y2 + y2^2 + x^4\n")
        code, out, _ = run(capsys, "milnor", path)
        assert code == EXIT_OK
        assert json.loads(out) == {"mu": 3}

    def test_budget_exit_in_krull_search(self, files, capsys):
        # Pure powers: no reduction and no surviving pair, so the first work
        # charged is the Krull-dimension search of the colength computation.
        names = [f"x{i}" for i in range(1, 13)]
        text = "vars " + " ".join(names) + "\n" + "".join(f"{x}^2\n" for x in names)
        path = files("powers.ideal", text)
        code, _, err = run(capsys, "--budget-steps", "5", "milnor", path)
        assert code == EXIT_RESOURCE
        assert "Krull dimension" in err
        code, out, _ = run(capsys, "milnor", path)
        assert code == EXIT_OK and json.loads(out) == {"mu": 2**12 - 1}


class TestConservationCommand:
    def test_morsification_fixture(self, files, capsys):
        path = files("cusp.cons", CUSP_CONSERVATION)
        code, out, _ = run(capsys, "conservation-check", path)
        assert code == EXIT_OK
        assert json.loads(out)["status"] == "holds"

    def test_cancellation_fixture(self, files, capsys):
        path = files("killing.cons", KILLING_CONSERVATION)
        code, out, _ = run(capsys, "conservation-check", path)
        assert code == EXIT_OK
        assert json.loads(out)["status"] == "holds"

    def test_missing_delta_refused(self, files, capsys):
        path = files("missing.cons", MISSING_DELTA)
        code, _, err = run(capsys, "conservation-check", path)
        assert code == EXIT_BAD_CHECK_DATA
        assert "correction term" in err

    def test_violation_reported(self, files, capsys):
        path = files(
            "bad.cons",
            "kind tau-milnor\nd 1\nmu_x0 2\nbetti_tau 0\nlocal 1\n",
        )
        code, out, _ = run(capsys, "conservation-check", path)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["status"] == "violated"
        assert payload["difference"] == "1"


class TestExitCodes:
    # Every GermlabError class with the exit code the cli docstring gives it.
    DOCUMENTED = {
        ResourceLimitError: EXIT_RESOURCE,
        NotAFiniteError: EXIT_NOT_A_FINITE,
        InfeasibleDimensionsError: EXIT_INFEASIBLE,
        InconsistentDataError: EXIT_INCONSISTENT,
        IncompleteDataError: EXIT_BAD_CHECK_DATA,
        GermlabError: EXIT_INPUT,
        PolySyntaxError: EXIT_INPUT,
        VariableMismatchError: EXIT_INPUT,
        NotIcisError: EXIT_INPUT,
        InvalidInputError: EXIT_INPUT,
    }

    def test_every_error_class_exits_with_its_documented_code(self, monkeypatch, capsys):
        found, todo = {GermlabError}, [GermlabError]
        while todo:
            for sub in todo.pop().__subclasses__():
                if sub not in found:
                    found.add(sub)
                    todo.append(sub)
        assert found == set(self.DOCUMENTED), "an error class has no documented exit code"
        for cls in sorted(found, key=lambda c: c.__name__):
            exc = cls.__new__(cls)
            Exception.__init__(exc, f"injected {cls.__name__}")

            def command(args, exc=exc):
                raise exc

            monkeypatch.setattr(cli, "cmd_sc_feasible", command)
            code, _, err = run(capsys, "sc-feasible", "5", "8")
            assert (cls, code) == (cls, self.DOCUMENTED[cls])
            assert f"injected {cls.__name__}" in err
