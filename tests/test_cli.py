"""Command-line interface: outputs, formats, determinism, exit codes."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

# Mond's H_5: its double point curve's Le-Greuel chain charges 473 units
# to the maximal minors, and no standard basis of the analysis needs more
# than 39 (see tests/test_icis.py::TestChainMinors).
H5_GERM = """\
n 2
p 3
component y^3
component x1*y + y^14
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
        env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath}
        # The child writes no bytecode cache into the source tree when this
        # run writes none.
        if "PYTHONDONTWRITEBYTECODE" in os.environ:
            env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
        outs = []
        for seed in ("101", "202"):
            proc = subprocess.run(
                [sys.executable, "-m", "germlab.cli", "analyze", path],
                capture_output=True,
                text=True,
                env={**env, "PYTHONHASHSEED": seed},
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

    def test_budget_exit_in_the_chain_minors(self, files, capsys):
        path = files("g.germ", H5_GERM)
        assert run(capsys, "--budget-steps", "473", "analyze", path)[0] == EXIT_OK
        code, _, err = run(capsys, "--budget-steps", "100", "analyze", path)
        assert code == EXIT_RESOURCE
        assert "maximal minors" in err

    def test_parse_error_exit(self, files, capsys):
        path = files("g.germ", "n 2\np 3\ncomponent y^^2\ncomponent x1*y\n")
        code, _, err = run(capsys, "analyze", path)
        assert code == EXIT_INPUT
        assert "offset" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            # each of these ended in a ValueError traceback
            ("n 2\np x\ncomponent y^2\ncomponent y^3\n", "bad p"),
            ("n\np 3\ncomponent y^2\ncomponent y^3\n", "bad n"),
            ("n 2\np 3\ncomponent y^\u00b2\ncomponent y^3\n", "unexpected character"),
        ],
        ids=["p-not-an-integer", "n-missing", "superscript-exponent"],
    )
    def test_malformed_germ_file_is_an_input_error(self, files, capsys, text, message):
        code, out, err = run(capsys, "analyze", files("g.germ", text))
        assert (code, out) == (EXIT_INPUT, "")
        assert message in err


    def test_huge_dimensions_are_refused_before_any_base_name(self, files, capsys):
        # kappa + 1 exceeds the supported multiplicity bound; this file took
        # 3.2 s and 290 MB at n 1000000 when the n - 1 base names came first.
        path = files("huge.germ", "n 100000000\np 100000001\ncomponent y^2\ncomponent y^3\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", path)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_INPUT, "")
        assert "multiplicity bound" in err

    def test_component_count_is_checked_before_the_components_are_parsed(self, files, capsys):
        path = files("g.germ", "n 2\np 3\ncomponent y^^2\n")
        code, _, err = run(capsys, "analyze", path)
        assert code == EXIT_INPUT and "component count 1 != p - n + 1 = 2" in err


# One integer grammar [+-]?[0-9]+ for every integer field of every file
# format: (command, file contents with {} for the field, and for the isotype
# command the data file as well).
INTEGER_FIELDS = {
    "germ-n": ("analyze", "n {}\np 3\ncomponent y^2\ncomponent y^3\n", None),
    "germ-p": ("analyze", "n 2\np {}\ncomponent y^2\ncomponent y^3\n", None),
    "group-order": ("isotype", "group_order {}\nclass a 1\nirrep t 1\n", "class a euler 1\n"),
    "class-size": ("isotype", "group_order 1\nclass a {}\nirrep t 1\n", "class a euler 1\n"),
    "top-dim": ("isotype", S2_TABLE, "top_dim {}\nclass (1,1) single 2 1\nclass (2) single 1 1\n"),
    "single-dim": ("isotype", S2_TABLE,
                   "top_dim 2\nclass (1,1) single {} 1\nclass (2) single 1 1\n"),
    "euler": ("isotype", S2_TABLE, "class (1,1) euler {}\nclass (2) euler 0\n"),
    **{
        f"conservation-{key}": (
            "conservation-check",
            KILLING_CONSERVATION.replace(f"\n{key} {old}\n", f"\n{key} {{}}\n"),
            None,
        )
        for key, old in [("n", "3"), ("p", "5"), ("mu_i", "0"), ("nu_i", "0"),
                         ("local_mu", "1"), ("local_nu", "1"), ("delta", "0")]
    },
    "conservation-betti-degree": (
        "conservation-check", KILLING_CONSERVATION.replace("betti 2 1", "betti {} 1"), None
    ),
    "conservation-betti-number": (
        "conservation-check", KILLING_CONSERVATION.replace("betti 2 1", "betti 2 {}"), None
    ),
    "conservation-d": ("conservation-check", CUSP_CONSERVATION.replace("d 1", "d {}"), None),
}


class TestIntegerGrammar:
    @pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
    @pytest.mark.parametrize(
        "value", ["1_0", "\u0663", "1.0", "", "++1", "1" * 5000],
        ids=["underscore", "arabic-indic", "decimal", "empty", "two-signs", "too-many-digits"],
    )
    def test_only_ascii_signed_digits_are_integers(self, files, capsys, field, value):
        command, first, second = INTEGER_FIELDS[field]
        paths = [files("a.input", first.replace("{}", value))]
        if second is not None:
            paths.append(files("b.input", second.replace("{}", value)))
        assert "{}" in first + (second or "")
        code, out, err = run(capsys, command, *paths)
        assert (code, out) == (EXIT_INPUT, "")
        assert "bad" in err

    @pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
    def test_signed_ascii_integers_are_read(self, files, capsys, field):
        # The same files with an ordinary value parse (whatever the
        # mathematics then says about them).
        command, first, second = INTEGER_FIELDS[field]
        paths = [files("a.input", first.replace("{}", "+1"))]
        if second is not None:
            paths.append(files("b.input", second.replace("{}", "+1")))
        code, _, err = run(capsys, command, *paths)
        assert "bad" not in err, err


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


# sha256 of the stdout of `germlab --format F char-table K`, K = 1..12 (outer)
# and F = text, json, csv (inner), concatenated.
CHAR_TABLE_DIGEST = "ea9287bbd27a26050a82c15c04f80335273d0a7aa8232cefbaa2327eef1c0e35"


class TestTables:
    def test_char_table_output_bytes_are_pinned(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            for k in range(1, 13):
                for fmt in ("text", "json", "csv"):
                    assert main(["--format", fmt, "char-table", str(k)]) == EXIT_OK
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == CHAR_TABLE_DIGEST

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

    @pytest.mark.parametrize(
        "table, data, expected, message",
        [
            # printed {"t": "3"} and exited 0: one irreducible lost, one datum counted twice
            ("group_order 2\nclass a 1\nclass a 1\nirrep t 1 1\nirrep t 1 -1\n",
             "class a euler 3\n", EXIT_INPUT, "repeated class label"),
            ("group_order 2\nclass a 1\nclass b 1\nirrep t 1 1\nirrep t 1 -1\n",
             "class a euler 3\nclass b euler 1\n", EXIT_INPUT, "repeated irreducible label"),
            # each of these ended in a traceback
            ("group_order abc\nclass a 1\nirrep t 1\n", "class a euler 1\n", EXIT_INPUT,
             "bad group order"),
            ("group_order\nclass a 1\nirrep t 1\n", "class a euler 1\n", EXIT_INPUT,
             "bad group_order line"),
            ("group_order 1\nclass a x\nirrep t 1\n", "class a euler 1\n", EXIT_INPUT,
             "bad class size"),
            ("group_order 2\nclass a 1\nclass b 1\nirrep t 1 1\nirrep u 1\n",
             "class a euler 1\nclass b euler 1\n", EXIT_INCONSISTENT, "ragged"),
            ("group_order 1\nclass a 1\nirrep t 1/0\n", "class a euler 1\n", EXIT_INPUT,
             "bad rational literal"),
            (S2_TABLE, "class (1,1) euler x\nclass (2) euler 0\n", EXIT_INPUT, "bad integer"),
            (S2_TABLE, "top_dim x\nclass (1,1) single 2 1\nclass (2) single 1 1\n",
             EXIT_INPUT, "bad integer"),
        ],
        ids=["repeated-class", "repeated-irrep", "order-abc", "order-missing", "size-x",
             "short-row", "zero-denominator", "euler-x", "top-dim-x"],
    )
    def test_malformed_input_exit_codes(self, files, capsys, table, data, expected, message):
        code, out, err = run(capsys, "isotype", files("t.table", table), files("d.data", data))
        assert (code, out) == (expected, "")
        assert message in err

    def test_table_missing_an_irreducible_is_inconsistent(self, files, capsys):
        # Exited 0 with {"(3)": "1", "(1,1,1)": "0"}, the (2,1) isotype dropped.
        table = files("s3.table", S3_TABLE.replace("irrep (2,1) -1 0 2\n", ""))
        code, out, err = run(capsys, "isotype", table, files("s3.data", S3_DATA[0]))
        assert (code, out) == (EXIT_INCONSISTENT, "")
        assert "2 irreducibles for 3 classes" in err

    def test_unknown_tau_is_an_input_error(self, files, capsys):
        table = files("s2.table", S2_TABLE)
        data = files("sphere.data", SPHERE_DATA)
        code, _, err = run(capsys, "isotype", table, data, "--tau", "(3)")
        assert code == EXIT_INPUT
        assert "unknown irreducible" in err

    def test_undecodable_file_is_an_input_error(self, files, capsys, tmp_path):
        path = tmp_path / "latin1.table"
        path.write_bytes(b"group_order 1\nclass \xe9 1\nirrep t 1\n")
        code, _, err = run(capsys, "isotype", str(path), files("d.data", "class a euler 1\n"))
        assert code == EXIT_INPUT
        assert "cannot read" in err


# -- fuzzing the character-table and fixed-point formats ----------------------

S3_TABLE = """\
group_order 6
class (3) 2
class (2,1) 3
class (1,1,1) 1
irrep (3) 1 1 1
irrep (2,1) -1 0 2
irrep (1,1,1) 1 -1 1
"""

# Each is the permutation character of S_3 on three points: trivial plus standard.
S3_DATA = (
    "class (3) euler 0\nclass (2,1) euler 1\nclass (1,1,1) euler 3\n",
    "top_dim 2\nclass (3) single 2 0\nclass (2,1) single 0 1\nclass (1,1,1) single 2 3\n",
    "top_dim 2\nclass (3) icis 2 0\nclass (2,1) icis 0 1\nclass (1,1,1) icis 2 3\n",
)

TOKENS = (
    "group_order", "class", "irrep", "top_dim", "euler", "single", "icis", "#", "(3)", "(2,1)",
    "(1,1,1)", "a", "0", "1", "-1", "2", "3", "6", "1/2", "-1/3", "1/0", "1_0", "x", "1e3",
    "+2", "-", "0.5", "99999999999999999999",
)

def token_lines(tokens: tuple[str, ...] = TOKENS) -> st.SearchStrategy[str]:
    return st.lists(st.sampled_from(tokens), max_size=6).map(" ".join)


@st.composite
def mutated(draw, text: str, tokens: tuple[str, ...] = TOKENS) -> str:
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            lines.append(draw(token_lines(tokens)))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("drop", "repeat", "swap", "field", "truncate", "insert")))
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "field":
            fields = lines[i].split() or [""]
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(tokens))
            lines[i] = " ".join(fields)
        elif op == "truncate":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        else:
            lines.insert(i, draw(token_lines(tokens)))
    return "\n".join(lines) + "\n"


def contents(
    valid: st.SearchStrategy[str], tokens: tuple[str, ...] = TOKENS
) -> st.SearchStrategy[str | bytes]:
    return st.one_of(
        valid,
        valid.flatmap(lambda text: mutated(text, tokens)),
        st.lists(token_lines(tokens), max_size=8).map("\n".join),
        st.text(max_size=40),
        st.binary(max_size=40),
    )


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestIsotypeFuzz:
    ALLOWED = {EXIT_OK} | {code for _, code in cli.EXIT_CODES}

    @settings(max_examples=500, deadline=None)
    @given(
        table=contents(st.just(S3_TABLE)),
        data=contents(st.sampled_from(S3_DATA)),
        tau=st.sampled_from((None, "(2,1)", "(1,1,1)", "t", "(4)")),
        fmt=st.sampled_from(("json", "text")),
    )
    def test_returns_a_documented_exit_code(self, fuzz_dir, table, data, tau, fmt):
        paths = []
        for name, body in (("fuzz.table", table), ("fuzz.data", data)):
            path = fuzz_dir / name
            if isinstance(body, bytes):
                path.write_bytes(body)
            else:
                path.write_text(body, encoding="utf-8")
            paths.append(str(path))
        argv = ["--format", fmt, "isotype", *paths] + (["--tau", tau] if tau else [])
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in self.ALLOWED

    def test_unmutated_s3_files_succeed(self, files, capsys):
        table = files("s3.table", S3_TABLE)
        for i, data in enumerate(S3_DATA):
            code, out, _ = run(capsys, "isotype", table, files(f"s3.{i}", data))
            assert (code, json.loads(out)) == (EXIT_OK, {"(3)": "1", "(2,1)": "1", "(1,1,1)": "0"})


# -- fuzzing the germ, ideal and conservation formats -------------------------

# Exponents and dimensions stay small: building the multiple point equations
# is not charged to the step budget yet, so y^999 or n 10^9 would only time
# out; the budget bounds the standard bases.
GERM_TOKENS = (
    "n", "p", "base", "corank", "component", "#", "x1", "x2", "y", "z", "y^2", "y^3", "x1*y",
    "x1^2*y", "+", "-", "*", "^", "(", ")", "0", "1", "2", "3", "-1", "1/2", "1/0", "x", "1_0",
    "1e3", "\u00b2", "y^\u00b2", "\u0661",
)
IDEAL_TOKENS = (
    "vars", "#", "x", "y", "y1", "y2", "x^3", "y^3", "y1 + y2", "y1^2 + y1*y2 + y2^2", "x*y",
    "+", "-", "*", "^", "(", ")", "0", "1", "2", "3", "1/2", "1/0", "1e3", "1_0", "\u00b2",
)
CONSERVATION_TOKENS = (
    "kind", "tau-milnor", "image-milnor", "d", "n", "p", "mu_x0", "betti_tau", "beta0_xt",
    "beta0_x0", "local", "mu_i", "nu_i", "betti", "local_mu", "local_nu", "delta", "#", "0", "1",
    "2", "3", "5", "-1", "1/2", "-3/6", "1/0", "1e3", "1.5", "1_0", "\u00b2", "x",
)
CUSP_IDEAL = "vars x y\nx^3 + y^3\n"
CURVE_IDEAL = "vars x y1 y2\ny1 + y2\ny1^2 + y1*y2 + y2^2 + x^4\n"


class TestTextFormatFuzz:
    ALLOWED = {EXIT_OK} | {code for _, code in cli.EXIT_CODES}

    def exit_code(self, fuzz_dir, body: str | bytes, *argv: str) -> int:
        path = fuzz_dir / "fuzz.input"
        if isinstance(body, bytes):
            path.write_bytes(body)
        else:
            path.write_text(body, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(["--budget-steps", "20000", *argv, str(path)])

    @settings(max_examples=300, deadline=None)
    @given(
        germ=contents(st.sampled_from((S2_GERM, STABLE_GERM, NOT_A_FINITE_GERM)), GERM_TOKENS),
        command=st.sampled_from((("analyze",), ("icss",), ("--format", "text", "analyze"),
                                 ("--format", "csv", "icss"))),
    )
    def test_germ_files(self, fuzz_dir, germ, command):
        assert self.exit_code(fuzz_dir, germ, *command) in self.ALLOWED

    @settings(max_examples=300, deadline=None)
    @given(ideal=contents(st.sampled_from((CUSP_IDEAL, CURVE_IDEAL)), IDEAL_TOKENS),
           fmt=st.sampled_from(("json", "text")))
    def test_ideal_files(self, fuzz_dir, ideal, fmt):
        assert self.exit_code(fuzz_dir, ideal, "--format", fmt, "milnor") in self.ALLOWED

    @settings(max_examples=500, deadline=None)
    @given(
        data=contents(st.sampled_from((CUSP_CONSERVATION, KILLING_CONSERVATION, MISSING_DELTA)),
                      CONSERVATION_TOKENS),
        fmt=st.sampled_from(("json", "text")),
    )
    def test_conservation_files(self, fuzz_dir, data, fmt):
        code = self.exit_code(fuzz_dir, data, "--format", fmt, "conservation-check")
        assert code in self.ALLOWED


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

    @pytest.mark.parametrize(
        "value, message",
        [
            ("1/0", "zero denominator"),  # ended in a ZeroDivisionError traceback
            ("1e20000000", "bad rational literal"),  # took 37 s to parse as a Fraction
            ("1.5", "bad rational literal"),
            ("1_0", "bad rational literal"),
        ],
    )
    def test_rational_literal_grammar(self, files, capsys, value, message):
        path = files("bad.cons", f"kind tau-milnor\nd 1\nmu_x0 {value}\nbetti_tau 0\nlocal 1\n")
        code, out, err = run(capsys, "conservation-check", path)
        assert (code, out) == (EXIT_INPUT, "")
        assert message in err

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
