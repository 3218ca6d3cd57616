"""Command-line interface: outputs, formats, determinism, exit codes."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import germlab
from germlab import cli, character_table_symmetric
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
    InfeasibleDimensionsError,
    InvalidInputError,
    NotAFiniteError,
    NotIcisError,
    PolySyntaxError,
    ResourceLimitError,
    VariableMismatchError,
)

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

# The (4, 5) germ: after linear elimination its D^4 (1,1,1,1) curve is a
# two-generator Le-Greuel chain in 3 variables.  The whole analysis charges
# 722 units to its one ledger, and every budget from 309 to 416 runs out in
# the maximal minors of that chain.
QUARTIC_QUINTIC_GERM = """\
n 4
p 5
component y^4 + x1*y + x2*y^2
component y^5 + x3*y
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


def fresh_python(args: list[str], **env: str) -> subprocess.CompletedProcess:
    """Run a new interpreter on ``args``: it imports the germlab under test,
    installed or not, and writes no bytecode, so it starts as cold as the
    benchmark's workers and CI."""
    pythonpath = os.pathsep.join(
        filter(None, [str(Path(germlab.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    )
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath, "PYTHONDONTWRITEBYTECODE": "1",
           **env}
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


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

    @pytest.mark.parametrize("label", ["(1, 1)", "foo", "(1,2)", "(2,1", "(0)", "(01)", "()"])
    def test_tau_that_is_no_partition_label_is_a_usage_error(self, files, capsys, label):
        # The first three exited 0 with "mu_tau": {}.  The label is refused
        # before the analysis runs: exit 1, not 2 for the budget.
        path = files("g.germ", S2_GERM)
        code, out, err = run(capsys, "--budget-steps", "0", "analyze", path, "--tau", label)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == f"error: --tau {label!r} is not a partition label such as (2,1)\n"

    def test_tau_that_no_table_has_gives_no_numbers(self, files, capsys):
        # d(f) = 2 for s2, so only the S_2 table is read, and it has no (3).
        code, out, _ = run(capsys, "analyze", files("g.germ", S2_GERM), "--tau", "(3)")
        assert code == EXIT_OK
        assert json.loads(out)["mu_tau"] == {}

    def test_text_format(self, files, capsys):
        path = files("g.germ", S2_GERM)
        code, out, _ = run(capsys, "--format", "text", "analyze", path)
        assert code == EXIT_OK
        assert "mu_I = 2" in out

    @pytest.mark.parametrize("tau, line", [
        ("(1,1)", "mu_2^(1,1) = 2"),
        ("(3)", "no (3)-isotype numbers"),
    ], ids=["sign", "no-table-has-it"])
    def test_text_format_with_tau(self, files, capsys, tau, line):
        path = files("g.germ", S2_GERM)
        code, out, _ = run(capsys, "--format", "text", "analyze", path, "--tau", tau)
        assert code == EXIT_OK
        assert line in out.splitlines()

    def test_a_germ_without_the_corank_variable_is_not_a_finite(self, files, capsys):
        # Every divided difference of (x1^2, x1^3) vanishes: each D^k ideal
        # is zero, of the ambient dimension, not the expected one.
        path = files("g.germ", "n 2\np 3\ncomponent x1^2\ncomponent x1^3\n")
        code, out, _ = run(capsys, "analyze", path)
        assert code == EXIT_NOT_A_FINITE
        spaces = json.loads(out)["spaces"]
        assert len(spaces) == 6
        assert {space["evidence"] for space in spaces} == {"zero ideal of wrong dimension"}

    def test_deterministic_output(self, files, capsys):
        path = files("g.germ", S2_GERM)
        _, first, _ = run(capsys, "analyze", path)
        _, second, _ = run(capsys, "analyze", path)
        assert first == second

    def test_byte_identical_across_processes(self, files):
        path = files("g.germ", S2_GERM)
        outs = [
            fresh_python(["-m", "germlab.cli", "analyze", path], PYTHONHASHSEED=seed).stdout
            for seed in ("101", "202")
        ]
        assert outs[0] == outs[1]

    def test_not_a_finite_exit_with_partial_report(self, files, capsys):
        path = files("g.germ", NOT_A_FINITE_GERM)
        code, out, _ = run(capsys, "analyze", path)
        assert code == EXIT_NOT_A_FINITE
        report = json.loads(out)
        assert report["a_finite"] is False and report["mu_image"] is None

    def test_not_a_finite_icss_exits_with_no_table(self, files, capsys):
        # Unlike analyze, icss has nothing partial to print.
        path = files("g.germ", NOT_A_FINITE_GERM)
        assert run(capsys, "icss", path) == (EXIT_NOT_A_FINITE, "", (
            "error: invariants are defined for A-finite germs only; analysis says otherwise\n"
        ))

    def test_budget_exit(self, files, capsys):
        path = files("g.germ", S2_GERM)
        code, _, err = run(capsys, "--budget-steps", "1", "analyze", path)
        assert code == EXIT_RESOURCE
        assert "budget" in err

    def test_budget_exit_in_the_chain_minors(self, files, capsys):
        path = files("g.germ", QUARTIC_QUINTIC_GERM)
        assert run(capsys, "--budget-steps", "722", "analyze", path)[0] == EXIT_OK
        for budget, stage in (("400", "maximal minors"), ("99", "standard basis")):
            code, _, err = run(capsys, "--budget-steps", budget, "analyze", path)
            assert code == EXIT_RESOURCE
            assert stage in err

    def test_budget_exit_names_the_cell(self, files, capsys):
        path = files("g.germ", QUARTIC_QUINTIC_GERM)
        code, _, err = run(capsys, "--budget-steps", "400", "analyze", path)
        assert code == EXIT_RESOURCE
        assert err == (
            "error: step budget exceeded during maximal minors in D^4 (1,1,1,1) "
            "(budget 400 exhausted)\n"
        )

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
            ("n 2\np 3\ncomponent 1/0*y\ncomponent y^3\n", "zero denominator (at offset 2)"),
            # D^k appends y1..yk after the base variables
            ("n 2\np 3\nbase y1\ncomponent y^2\ncomponent y^3 + y1^3*y\n",
             "variable clash: y1 is already a base variable"),
        ],
        ids=["p-not-an-integer", "n-missing", "superscript-exponent", "zero-denominator",
             "base-name-of-d-k"],
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


TAU_MILNOR_D0 = "kind tau-milnor\nd 0\nmu_x0 1\nbeta0_xt 1\nbeta0_x0 0\nlocal 0\n"
NAMED_S2_GERM = "n 2\np 3\nbase x1\ncorank y\ncomponent y^2\ncomponent y^3 + x1^3*y\n"

# Every directive that holds one value: (command, its input files, the line
# to repeat, which is in one of them, and the reader's name for its files).
SINGLE_VALUED = {
    **{
        f"germ-{line.split()[0]}": ("analyze", (NAMED_S2_GERM,), line, "germ-file")
        for line in NAMED_S2_GERM.splitlines()
        if not line.startswith("component")
    },
    "table-group_order": ("isotype", (S2_TABLE, SPHERE_DATA), "group_order 2", "character-table"),
    "fixed-point-top_dim": ("isotype", (S2_TABLE, SPHERE_DATA), "top_dim 2", "fixed-point"),
    **{
        f"conservation-{line.split()[0]}": ("conservation-check", (text,), line, "conservation")
        for text in (KILLING_CONSERVATION, TAU_MILNOR_D0)
        for line in text.splitlines()
        if line.split()[0] not in ("local", "local_mu", "local_nu")
    },
    # betti_tau is a directive of d > 0 files only.
    "conservation-betti_tau": ("conservation-check", (CUSP_CONSERVATION,), "betti_tau 0",
                               "conservation"),
}


class TestRepeatedDirectives:
    """A repeated single-valued directive is an input error that names it;
    a repeat used to take its last value silently (a germ file with n 2,
    p 3, p 4 was analyzed as a (2, 4) germ)."""

    @pytest.mark.parametrize("name", sorted(SINGLE_VALUED))
    def test_repeat_is_an_input_error(self, files, capsys, name):
        command, texts, line, reader = SINGLE_VALUED[name]
        assert sum(f"\n{line}\n" in f"\n{text}" for text in texts) == 1
        once = [files(f"once.{i}", text) for i, text in enumerate(texts)]
        code, _, err = run(capsys, command, *once)
        assert code == EXIT_OK, err
        twice = [
            files(f"twice.{i}", text.replace(f"{line}\n", f"{line}\n{line}\n"))
            for i, text in enumerate(texts)
        ]
        code, out, err = run(capsys, command, *twice)
        assert (code, out) == (EXIT_INPUT, "")
        directive = " ".join(line.split()[:2 if line.startswith("betti ") else 1])
        assert f"repeated {reader} directive {directive!r}" in err

    def test_betti_numbers_of_two_degrees(self, files, capsys):
        text = KILLING_CONSERVATION.replace("betti 2 1\n", "betti 2 1\nbetti 1 0\n")
        code, _, err = run(capsys, "conservation-check", files("c.cons", text))
        assert code == EXIT_OK, err


# Every directive a record format requires: (command, its input files, which
# of them is in that format, the reader's name for the file, the directive).
# Removing the directive's lines from that file exits 1 and names it.  The
# ideal format is not a record format: its one required line is the `vars`
# header, which must come first.
REQUIRED = {
    **{
        f"germ-{directive}": ("analyze", (NAMED_S2_GERM,), 0, "germ-file", directive)
        for directive in ("n", "p", "component")
    },
    **{
        f"table-{directive}": ("isotype", (S2_TABLE, SPHERE_DATA), 0, "character-table", directive)
        for directive in ("group_order", "class", "irrep")
    },
    "fixed-point-class": ("isotype", (S2_TABLE, SPHERE_DATA), 1, "fixed-point", "class"),
    "fixed-point-single-top_dim": (
        "isotype", (S2_TABLE, SPHERE_DATA), 1, "single fixed-point", "top_dim"
    ),
    "fixed-point-icis-top_dim": (
        "isotype", (S2_TABLE, SPHERE_DATA.replace("single", "icis")), 1, "icis fixed-point",
        "top_dim",
    ),
    "conservation-kind": ("conservation-check", (CUSP_CONSERVATION,), 0, "conservation", "kind"),
    **{
        f"conservation-{directive}": (
            "conservation-check", (CUSP_CONSERVATION,), 0, "tau-milnor conservation", directive
        )
        for directive in ("d", "mu_x0", "betti_tau")
    },
    **{
        f"conservation-{directive}": (
            "conservation-check", (KILLING_CONSERVATION,), 0, "image-milnor conservation",
            directive,
        )
        for directive in ("n", "p", "mu_i", "nu_i")
    },
}


class TestRequiredDirectives:
    """Whether a file holds the directives its format requires is decided by
    the record reader, with one message for every format."""

    @pytest.mark.parametrize("name", sorted(REQUIRED))
    def test_a_missing_directive_is_an_input_error(self, files, capsys, name):
        command, texts, which, reader, directive = REQUIRED[name]
        paths = [files(f"in.{i}", text) for i, text in enumerate(texts)]
        code, _, err = run(capsys, command, *paths)
        assert code == EXIT_OK, err
        lines = texts[which].splitlines(keepends=True)
        kept = "".join(line for line in lines if line.split()[0] != directive)
        assert kept != texts[which]
        paths[which] = files("missing.input", kept)
        code, out, err = run(capsys, command, *paths)
        assert (code, out, err) == (
            EXIT_INPUT, "", f"error: missing {reader} directive {directive!r}\n"
        )


# Each directive of one conservation kind, as a line that its example holds,
# and the example of the other kind, which may not hold it: (line, example,
# the example's kind).  Each line was read and ignored, and the check exited 0.
OTHER_KIND = {
    **{
        f"image-milnor-{line.split()[0]}": (line, CUSP_CONSERVATION, "tau-milnor")
        for line in KILLING_CONSERVATION.splitlines()[1:]
    },
    **{
        f"tau-milnor-{line.split()[0]}": (line, KILLING_CONSERVATION, "image-milnor")
        for line in [*TAU_MILNOR_D0.splitlines()[1:], "betti_tau 0"]
    },
}


class TestConservationKinds:
    """Each conservation kind reads the directives it needs and those it may
    also have; any other directive exits 1 and names itself."""

    @pytest.mark.parametrize("name", sorted(OTHER_KIND))
    def test_a_directive_of_the_other_kind_is_an_input_error(self, files, capsys, name):
        line, text, kind = OTHER_KIND[name]
        code, _, err = run(capsys, "conservation-check", files("plain.cons", text))
        assert code == EXIT_OK, err
        code, out, err = run(capsys, "conservation-check", files("other.cons", text + line + "\n"))
        directive = line.split()[0]
        assert (code, out, err) == (
            EXIT_INPUT, "", f"error: unexpected {kind} conservation directive {directive!r}\n"
        )

    def test_beta0_terms_are_refused_when_d_is_positive(self, files, capsys):
        # Exited 0 with the verdict of the file without the line.
        path = files("cusp.cons", CUSP_CONSERVATION + "beta0_xt 5\n")
        code, out, err = run(capsys, "conservation-check", path)
        assert (code, out) == (EXIT_INPUT, "")
        assert "beta0_tau_xt" in err

    # Each line was read and ignored, and the check exited 0 with "holds".
    @pytest.mark.parametrize("text, line, term", [
        ("kind image-milnor\nn 2\np 4\nmu_i 0\nnu_i 0\n", "delta 5", "delta"),
        (TAU_MILNOR_D0, "betti_tau 7", "betti_tau_xt"),
    ], ids=["delta-at-integral-ratio", "betti_tau-at-d-0"])
    def test_a_term_the_identity_lacks_is_an_input_error(self, files, capsys, text, line, term):
        code, out, err = run(capsys, "conservation-check", files("plain.cons", text))
        assert (code, json.loads(out)["status"]) == (EXIT_OK, "holds"), err
        code, out, err = run(capsys, "conservation-check", files("extra.cons", f"{text}{line}\n"))
        assert (code, out) == (EXIT_INPUT, "")
        assert f"takes no {term} term" in err


class TestTopDim:
    """single and icis data need a top_dim line; euler data may not have one."""

    def test_euler_data_with_top_dim_is_an_input_error(self, files, capsys):
        data = "class (1,1) euler 2\nclass (2) euler 0\n"
        table = files("s2.table", S2_TABLE)
        code, _, err = run(capsys, "isotype", table, files("euler.data", data))
        assert code == EXIT_OK, err
        code, out, err = run(capsys, "isotype", table, files("top.data", "top_dim 2\n" + data))
        assert (code, out, err) == (
            EXIT_INPUT, "", "error: unexpected euler fixed-point directive 'top_dim'\n"
        )


# Every file format once: the command that reads it, its input files, and
# which of them is in that format.
FORMATS = {
    "germ": ("analyze", (NAMED_S2_GERM,), 0),
    "ideal": ("milnor", ("vars x y\nx^3 + y^3\n",), 0),
    "character-table": ("isotype", (S2_TABLE, SPHERE_DATA), 0),
    "fixed-point": ("isotype", (S2_TABLE, SPHERE_DATA), 1),
    "conservation-tau": ("conservation-check", (CUSP_CONSERVATION,), 0),
    "conservation-image": ("conservation-check", (KILLING_CONSERVATION,), 0),
}


class TestRecordGrammar:
    """One line grammar for every file format: a '#' after content starts a
    comment, fields are split at any whitespace, and a directive with a
    fixed field count takes no extra field.  Before, a germ file read
    `n<TAB>2` as an unknown directive, `corank y  # note` declared the
    variable `y  # note`, and a conservation file read `d 1 7` as d = 1."""

    @staticmethod
    def outcome(files, capsys, name, edit):
        command, texts, which = FORMATS[name]
        texts = [edit(text) if i == which else text for i, text in enumerate(texts)]
        return run(capsys, command, *(files(f"in.{i}", t) for i, t in enumerate(texts)))

    @pytest.mark.parametrize("name", sorted(FORMATS))
    def test_comments_after_content_and_tabs_read_as_before(self, files, capsys, name):
        plain = self.outcome(files, capsys, name, lambda text: text)
        assert plain[0] == EXIT_OK, plain

        def noted(text):
            lines = text.splitlines()
            return "".join(line.replace(" ", "\t", 1) + "  # a note\n" for line in lines)

        assert self.outcome(files, capsys, name, noted) == plain

    @pytest.mark.parametrize("name", sorted(set(FORMATS) - {"ideal"}))
    def test_an_extra_field_is_an_input_error(self, files, capsys, name):
        # Every line of a directive with a fixed field count.  The fields of
        # base, component and irrep are any number of names, a polynomial
        # and one value per class.
        lines = FORMATS[name][1][FORMATS[name][2]].splitlines()
        fixed = [line for line in lines if line.split()[0] not in ("base", "component", "irrep")]
        assert fixed
        for line in fixed:
            code, out, err = self.outcome(
                files, capsys, name, lambda text: text.replace(f"{line}\n", f"{line} 7\n", 1)
            )
            assert (code, out) == (EXIT_INPUT, ""), line
            assert "bad" in err and repr(f"{line} 7") in err, err


class TestArgumentIntegers:
    """N, P, K and --budget-steps follow the integer grammar of the files,
    [+-]?[0-9]+, and the budget is non-negative; anything else exits 1."""

    @pytest.mark.parametrize("argv, message", [
        (["--format", "csv", "char-table", "\u0663"], "bad K '\u0663'"),
        (["sc-feasible", "1_0", "1_6"], "bad N '1_0'"),
        (["sc-feasible", "10", "1_6"], "bad P '1_6'"),
        (["sc-generate", " 5", "8"], "bad N ' 5'"),
        (["char-table", "3.0"], "bad K '3.0'"),
        (["--budget-steps", "1_000", "char-table", "3"], "bad --budget-steps '1_000'"),
    ], ids=["arabic-indic", "underscore", "second-field", "space", "decimal", "budget"])
    def test_only_ascii_signed_digits_are_integers(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert message in err

    def test_negative_budget_is_a_usage_error(self, files, capsys):
        # Not exit 2, which would claim that a budget of -5 ran out.
        path = files("cubic.ideal", "vars x y\nx^3 + y^3\n")
        code, out, err = run(capsys, "--budget-steps", "-5", "milnor", path)
        assert (code, out) == (EXIT_INPUT, "")
        assert "bad --budget-steps '-5'" in err and "exhausted" not in err

    def test_signed_integers_and_a_zero_budget_are_read(self, files, capsys):
        assert run(capsys, "char-table", "+3") == run(capsys, "char-table", "3")
        # Budget 0 decides by exact criteria only: enough for the stable
        # (3, 5) germ, whose cells need no standard basis.
        path = files("g.germ", STABLE_GERM)
        assert run(capsys, "--budget-steps", "0", "analyze", path) == run(capsys, "analyze", path)
        code, _, err = run(capsys, "--budget-steps", "0", "milnor", files("c.ideal", CUSP_IDEAL))
        assert code == EXIT_RESOURCE and "budget 0 exhausted" in err


class TestScCommands:
    def test_feasible_false(self, files, capsys):
        code, out, _ = run(capsys, "sc-feasible", "3", "5")
        assert code == EXIT_OK
        assert json.loads(out)["feasible"] is False

    def test_feasible_true_for_4_5_is_false(self, capsys):
        code, out, _ = run(capsys, "sc-feasible", "4", "5")
        assert json.loads(out)["feasible"] is False

    def test_feasible_beyond_float_range(self, capsys):
        # kappa = p // (p - n) = 10^400, which p / (p - n) cannot reach as a float.
        code, out, err = run(capsys, "sc-feasible", str(10**400 - 1), str(10**400))
        assert (code, err) == (EXIT_OK, "")
        report = json.loads(out)
        assert report["kappa"] == 10**400 and report["feasible"] is False

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

    def test_generate_refuses_an_unsupported_multiplicity(self, capsys):
        # Feasible, but kappa + 1 = 13: refused before the germ is built,
        # with the message and exit code of the self-check's analysis.
        code, out, err = run(capsys, "sc-generate", "3100", "3362")
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: kappa + 1 = 13 exceeds the supported multiplicity bound\n"


# sha256 of the stdout of `germlab --format F char-table K`, K = 1..12 (outer)
# and F = text, json (inner), concatenated.
CHAR_TABLE_DIGEST = "cf426a421f9c0ac1ad4b3baa7c1bec762243e5e2969b6bf3c43ce16437bd728c"

# sha256 of the stdout of `germlab --format F char-table 12`, taken when the
# values were still Fractions.
CHAR_TABLE_12_DIGESTS = {
    "text": "91c8096597a56ff58226e104e9cfea5e9bc1240e229c3c011ae3db50f62fe103",
    "json": "ade71699b925ae4e47a41cfa4b42716cabccf84f0f914e5827c985a20464ff75",
}


class TestTables:
    def test_char_table_output_bytes_are_pinned(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            for k in range(1, 13):
                for fmt in ("text", "json"):
                    assert main(["--format", fmt, "char-table", str(k)]) == EXIT_OK
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == CHAR_TABLE_DIGEST

    @pytest.mark.parametrize("fmt", sorted(CHAR_TABLE_12_DIGESTS))
    def test_char_table_12_bytes_are_pinned(self, capsys, fmt):
        code, out, _ = run(capsys, "--format", fmt, "char-table", "12")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == CHAR_TABLE_12_DIGESTS[fmt]

    @pytest.mark.parametrize("k", range(1, 13))
    def test_char_table_csv_reads_back_as_the_json_table(self, capsys, k):
        # Partition labels hold commas: csv.reader read the unquoted header of
        # S_3 as 7 fields and its rows as 4, 5 and 6.
        code, out, _ = run(capsys, "--format", "csv", "char-table", str(k))
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out, newline="")))
        code, out, _ = run(capsys, "char-table", str(k))
        table = json.loads(out)
        assert rows[0] == ["irrep", *(c["label"] for c in table["classes"])]
        assert rows[1:] == [[r["label"], *map(str, r["values"])] for r in table["irreducibles"]]

    def test_char_table_12_round_trips_through_isotype(self, files, capsys):
        # The regular representation: 12! fixed points on the identity, none
        # elsewhere.  Each irreducible occurs as often as its degree.
        code, table, _ = run(capsys, "--format", "text", "char-table", "12")
        assert code == EXIT_OK
        classes = [line.split()[1] for line in table.splitlines() if line.startswith("class ")]
        identity = "(" + ",".join(["1"] * 12) + ")"
        data = "".join(
            f"class {c} euler {479001600 if c == identity else 0}\n" for c in classes
        )
        code, out, _ = run(capsys, "isotype", files("s12.table", table), files("s12.data", data))
        assert code == EXIT_OK
        degrees = {label: int(value) for label, value in json.loads(out).items()}
        assert (degrees["(12)"], degrees["(11,1)"], max(degrees.values())) == (1, 11, 7700)
        assert sum(d * d for d in degrees.values()) == 479001600

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


class TestFormatsAndOutput:
    # Each command's inputs, written by `files`, for every command with no
    # csv rendering; each printed text and exited 0 under --format csv.
    # Under --budget-steps 0 the analysis of the s2 germ and the Milnor
    # chain of the cubic run out (exit 2) once they compute.
    NO_CSV = {
        "analyze": [("s2.germ", S2_GERM)],
        "sc-feasible": ["5", "8"],
        "isotype": [("s2.table", S2_TABLE), ("sphere.data", SPHERE_DATA)],
        "milnor": [("c.ideal", "vars x y\nx^3 + y^3\n")],
        "conservation-check": [("cusp.data", CUSP_CONSERVATION)],
    }

    @pytest.mark.parametrize("command", sorted(NO_CSV))
    def test_a_format_without_a_rendering_is_refused(self, files, capsys, command):
        # The refusal comes before the command computes anything.
        args = [a if isinstance(a, str) else files(*a) for a in self.NO_CSV[command]]
        computed = run(capsys, "--budget-steps", "0", command, *args)[0]
        assert computed == (EXIT_RESOURCE if command in ("analyze", "milnor") else EXIT_OK)
        code, out, err = run(capsys, "--format", "csv", "--budget-steps", "0", command, *args)
        assert (code, out, err) == (EXIT_INPUT, "", f"error: {command} has no csv output\n")

    # ... and for every command with one.
    EVERY = NO_CSV | {
        "char-table": ["3"],
        "icss": [("s2.germ", S2_GERM)],
        "sc-generate": ["5", "8"],
    }

    def test_every_command_runs_through_main(self):
        # cli._write trusts main to have refused a format the command has no
        # rendering for: every cmd_* function is a subcommand main dispatches.
        subcommands = cli.build_parser()._subparsers._group_actions[0].choices
        commands = {name[4:].replace("_", "-") for name in vars(cli) if name.startswith("cmd_")}
        assert commands == set(subcommands) == set(self.EVERY)

    @pytest.mark.parametrize("command,fmt", [
        (command, fmt) for command in sorted(EVERY) for fmt in ("json", "text", "csv")
        if fmt != "csv" or command in cli._CSV_COMMANDS
    ])
    def test_every_format_main_lets_through_has_a_rendering(self, files, capsys, command, fmt):
        args = [a if isinstance(a, str) else files(*a) for a in self.EVERY[command]]
        code, out, err = run(capsys, "--format", fmt, command, *args)
        assert (code, err) == (EXIT_OK, "") and out

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_sc_generate_writes_a_germ_file_in_every_format(self, capsys, fmt):
        code, out, _ = run(capsys, "--format", fmt, "sc-generate", "5", "8")
        assert code == EXIT_OK and out.startswith("n 5\np 8\nbase ")

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_an_unwritable_output_is_an_input_error(self, capsys, tmp_path, where):
        # Each ended in a traceback: FileNotFoundError, IsADirectoryError.
        path = str(tmp_path / "missing" / "x" if where == "missing-directory" else tmp_path)
        code, out, err = run(capsys, "--output", path, "char-table", "3")
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


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

    @pytest.mark.parametrize("data, code, out, err", [
        # Euler data are not validated: chi_tau may be any rational.
        ("class (2) euler 0\nclass (1,1) euler 1\n", EXIT_OK,
         {"(2)": "1/2", "(1,1)": "1/2"}, ""),
        # mu^tau is validated: a non-integer names the quantity and its value.
        ("top_dim 1\nclass (1,1) icis 1 2\nclass (2) icis 0 1\n", EXIT_INCONSISTENT, None,
         "error: mu^(2) is 1/2, not a non-negative integer: inconsistent input\n"),
        ("top_dim 1\nclass (1,1) icis 1 2\nclass (2) icis 0 2\n", EXIT_OK,
         {"(2)": "0", "(1,1)": "2"}, ""),
    ], ids=["euler-halves", "icis-half", "icis-integers"])
    def test_validated_and_unvalidated_values(self, files, capsys, data, code, out, err):
        table = files("s2.table", S2_TABLE)
        got_code, got_out, got_err = run(capsys, "isotype", table, files("k.data", data))
        assert (got_code, got_err) == (code, err)
        assert (json.loads(got_out) if got_out else None) == out

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
             "bad character value '1/0'"),
            (S2_TABLE, "class (1,1) euler x\nclass (2) euler 0\n", EXIT_INPUT, "bad integer"),
            (S2_TABLE, "top_dim x\nclass (1,1) single 2 1\nclass (2) single 1 1\n",
             EXIT_INPUT, "bad integer"),
            # printed {"t": "7/5", "u": "1/5"} and exited 0: orthogonal rows of
            # positive degree, but no finite group has a value that is not an
            # integer
            ("group_order 2\nclass a 1\nclass b 1\nirrep t 7/5 1/5\nirrep u 1/5 -7/5\n",
             "class a euler 2\nclass b euler 0\n", EXIT_INPUT, "bad character value '7/5'"),
            (S2_TABLE, "class (1,1) euler 2\nclass (3) euler 0\n", EXIT_INPUT,
             "datum for unknown class '(3)'"),
            (S2_TABLE, "class (1,1) cells 2\nclass (2) cells 0\n", EXIT_INPUT,
             "unknown fixed-point record kind 'cells'"),
        ],
        ids=["repeated-class", "repeated-irrep", "order-abc", "order-missing", "size-x",
             "short-row", "zero-denominator", "euler-x", "top-dim-x", "rational-values",
             "unknown-class", "unknown-kind"],
    )
    def test_malformed_input_exit_codes(self, files, capsys, table, data, expected, message):
        code, out, err = run(capsys, "isotype", files("t.table", table), files("d.data", data))
        assert (code, out) == (expected, "")
        assert message in err

    @pytest.mark.parametrize(
        "field, message",
        [
            ("1" * 5000, f"bad character value {'1' * 5000!r}: too many digits"),
            ("1/0", "bad character value '1/0'"),
            ("1.5", "bad character value '1.5'"),
            ("1_0", "bad character value '1_0'"),
            ("\u0661", "bad character value '\u0661'"),
        ],
        ids=["too-many-digits", "zero-denominator", "decimal", "underscore", "arabic-indic"],
    )
    def test_bad_field_among_integers_keeps_its_message(self, files, capsys, field, message):
        # The fast path for a row of integers leaves each bad field the
        # message of the integer grammar.
        table = S3_TABLE.replace("irrep (2,1) -1 0 2", f"irrep (2,1) -1 {field} 2")
        code, out, err = run(capsys, "isotype", files("t.table", table),
                             files("d.data", S3_DATA[0]))
        assert (code, out, err) == (EXIT_INPUT, "", f"error: {message}\n")

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

    @pytest.mark.parametrize("k", range(2, 13))
    def test_boundary_of_the_simplex_under_s_k(self, files, capsys, k):
        # S_k permutes the k vertices of the simplex.  A permutation with c
        # cycles fixes the boundary of the simplex on its c cycle barycentres,
        # a (c-2)-sphere of Euler characteristic 1 + (-1)^c (empty for c = 1).
        # The homology is the trivial representation in degree 0 and the sign
        # (orientation) in degree k - 2, so the Euler isotypes are 1 at (k),
        # (-1)^k at (1^k) and 0 elsewhere.
        code, table, _ = run(capsys, "--format", "text", "char-table", str(k))
        assert code == EXIT_OK
        classes = germlab.partitions(k)
        euler = "".join(f"class {c.label()} euler {1 + (-1) ** c.cycle_count}\n" for c in classes)
        code, out, err = run(capsys, "isotype", files("sk.table", table), files("sk.data", euler))
        assert (code, err) == (EXIT_OK, "")
        expected = dict.fromkeys((c.label() for c in classes), "0")
        expected[f"({k})"] = "1"
        expected[germlab.Partition((1,) * k).label()] = str((-1) ** k)
        assert json.loads(out) == expected


# -- isotype output bytes on the char-table tables ----------------------------

DATA = Path(__file__).parent / "data"


def isotype_fixed_point_files(k: int) -> tuple[dict[str, str], str]:
    """Seeded fixed-point files for S_k, by name, and one irreducible for --tau.

    euler: random Euler characteristics.  single and icis: the per-class
    character of random multiplicities, signed by random dimensions below
    top_dim, so every isotype is a non-negative integer.  icis-shifted: the
    icis data with the identity datum raised by one, which most k refuse.
    """
    rng = random.Random(f"isotype S_{k}")
    table = character_table_symmetric(k)
    labels, identity = table.class_labels, table.identity_index
    euler = [rng.randint(-20, 20) for _ in labels]
    multiplicities = [rng.randint(0, 3) for _ in table.irrep_labels]
    character = [sum(m * row[j] for m, row in zip(multiplicities, table.values))
                 for j in range(len(labels))]
    d = rng.randint(0, 3)
    dims = [d if j == identity else rng.randint(0, d) for j in range(len(labels))]
    signed = [(-1) ** (d - dim) * b for dim, b in zip(dims, character)]
    shifted = [v + (j == identity) for j, v in enumerate(signed)]

    def records(kind, values):
        head = "" if kind == "euler" else f"top_dim {d}\n"
        fields = values if kind == "euler" else (f"{dim} {v}" for dim, v in zip(dims, values))
        return head + "".join(f"class {c} {kind} {f}\n" for c, f in zip(labels, fields))

    data = {"euler": records("euler", euler), "single": records("single", signed),
            "icis": records("icis", signed), "icis-shifted": records("icis", shifted)}
    return data, rng.choice(table.irrep_labels)


def isotype_digest_lines(k: int, workdir: Path) -> list[str]:
    """`k data format tau code digest` for `germlab isotype` on the text of
    `char-table k`, per data file, format and --tau (`-` for every tau);
    digest is the sha256 of stdout, a NUL, then stderr."""
    table = workdir / f"s{k}.table"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["--format", "text", "char-table", str(k)]) == EXIT_OK
    table.write_text(out.getvalue())
    data, tau = isotype_fixed_point_files(k)
    lines = []
    for name, text in data.items():
        path = workdir / f"s{k}.{name}"
        path.write_text(text)
        for fmt in ("text", "json"):
            for chosen in (None, tau):
                argv = ["--format", fmt, "isotype", str(table), str(path)]
                argv += ["--tau", chosen] if chosen else []
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                digest = hashlib.sha256(f"{out.getvalue()}\0{err.getvalue()}".encode())
                lines.append(f"{k} {name} {fmt} {chosen or '-'} {code} {digest.hexdigest()}")
    return lines


class TestIsotypeBytes:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_isotype_output_bytes_are_pinned(self, tmp_path, k):
        pinned = (DATA / "isotype_digests.txt").read_text().splitlines()
        expected = [line for line in pinned if line.startswith(f"{k} ")]
        assert len(expected) == 16
        assert isotype_digest_lines(k, tmp_path) == expected


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


    @pytest.mark.parametrize("text, message", [
        ("vars x x\nx\n", "duplicate variable names in ('x', 'x')"),
        ("vars x y\nx\ny\nx*y\n", "more generators than ambient variables"),
    ], ids=["repeated-variable", "more-generators-than-variables"])
    def test_an_ideal_with_no_milnor_number_is_an_input_error(self, files, capsys, text,
                                                               message):
        code, out, err = run(capsys, "milnor", files("bad.ideal", text))
        assert (code, out, err) == (EXIT_INPUT, "", f"error: {message}\n")

    @pytest.mark.parametrize("generators", ["1", "x + 1"])
    def test_unit_ideal_is_an_input_error(self, files, capsys, generators):
        # Exited 5, "internal inconsistency", on the user's own input.
        path = files("unit.ideal", f"vars x y\n{generators}\n")
        code, out, err = run(capsys, "milnor", path)
        assert (code, out) == (EXIT_INPUT, "")
        assert "unit ideal" in err


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

    @pytest.mark.parametrize("text, old, new, message", [
        (KILLING_CONSERVATION, "betti 2 1", "betti 0 1",
         "perturbed-image Betti data uses positive degrees only"),
        (CUSP_CONSERVATION, "d 1", "d -1", "family dimension must be >= 0"),
    ], ids=["betti-degree-0", "negative-d"])
    def test_a_value_out_of_range_is_an_input_error(self, files, capsys, text, old, new,
                                                    message):
        assert f"\n{old}\n" in text
        path = files("bad.cons", text.replace(f"\n{old}\n", f"\n{new}\n"))
        code, out, err = run(capsys, "conservation-check", path)
        assert (code, out, err) == (EXIT_INPUT, "", f"error: {message}\n")

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

    @pytest.mark.parametrize("argv, message", [
        (["--bogus", "char-table", "3"], "unrecognized arguments: --bogus"),
        (["--seed", "x", "char-table", "3"], "invalid choice: 'x'"),
    ], ids=["unknown-option", "retired-seed-option"])
    def test_usage_errors_exit_as_input_errors(self, capsys, argv, message):
        # Exit 2 means an exhausted step budget, so a usage error must not
        # leave through argparse's own exit 2.
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert message in err and err.startswith("usage: germlab")


# Imports germlab, then germlab.cli, then runs cli.main on each argv of the
# JSON list in argv[1], and prints, as JSON, the germlab modules loaded after
# each of these steps, with the exit code of each call.
LOADED_AFTER = """\
import contextlib, io, json, sys

def loaded():
    return sorted(name for name in sys.modules if name.startswith("germlab."))

import germlab
steps = [[None, loaded()]]
from germlab import cli
steps.append([None, loaded()])
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        steps.append([cli.main(argv), loaded()])
print(json.dumps(steps))
"""

ALGEBRA = {"germlab.localalg", "germlab.icis", "germlab.multipoint", "germlab.invariants"}


def loaded_after(*argvs: list[str]) -> list[tuple[int | None, set[str]]]:
    out = fresh_python(["-c", LOADED_AFTER, json.dumps(argvs)]).stdout
    return [(code, set(modules)) for code, modules in json.loads(out)]


class TestModulesLoaded:
    """What importing germlab and each command load in a fresh interpreter:
    a stray top-level import would make char-table and isotype compile the
    algebra they never run."""

    def test_package_loads_errors_and_cli_loads_the_table_path(self):
        (_, package), (_, with_cli) = loaded_after()
        assert package == {"germlab.errors"}
        assert with_cli == {"germlab.cli", "germlab.errors", "germlab.isotype", "germlab.poly",
                            "germlab.symrep"}

    def test_char_table_and_isotype_load_no_algebra(self, files):
        table = files("s5.table", "")
        labels = character_table_symmetric(5).class_labels
        data = files("s5.euler", "".join(f"class {label} euler 0\n" for label in labels))
        steps = loaded_after(
            ["--format", "text", "--output", table, "char-table", "5"],
            ["isotype", table, data],
        )
        assert [code for code, _ in steps] == [None, None, EXIT_OK, EXIT_OK]
        # Neither command imports a module: a first call that did would add
        # the compile time to the latency of char-table itself.
        assert steps[1][1] == steps[2][1] == steps[3][1]
        assert steps[1][1].isdisjoint(ALGEBRA)

    def test_milnor_loads_no_germ_analysis(self, files):
        path = files("cubic.ideal", "vars x y\nx^3 + y^3\n")
        *_, (code, modules) = loaded_after(["milnor", path])
        assert code == EXIT_OK
        assert {"germlab.localalg", "germlab.icis"} <= modules
        assert modules.isdisjoint({"germlab.multipoint", "germlab.invariants"})

    def test_every_error_class_is_defined_without_the_algebra(self):
        # TestExitCodes walks GermlabError's subclasses: every one of them,
        # InfeasibleDimensionsError included, exists once cli is imported.
        walk = """\
import json, sys
from germlab import cli
from germlab.errors import GermlabError
found, todo = {GermlabError}, [GermlabError]
while todo:
    new = set(todo.pop().__subclasses__()) - found
    found |= new
    todo += new
print(json.dumps([sorted(c.__name__ for c in found), sorted(sys.modules)]))
"""
        classes, modules = json.loads(fresh_python(["-c", walk]).stdout)
        assert classes == sorted(c.__name__ for c in TestExitCodes.DOCUMENTED)
        assert ALGEBRA.isdisjoint(modules)


# The names `germlab` exported from each module before the package loaded its
# modules on first use.
EXPORTS = {
    "errors": ["GermlabError", "IncompleteDataError", "InconsistentDataError",
               "InvalidInputError", "NotAFiniteError", "NotIcisError", "PolySyntaxError",
               "ResourceLimitError", "VariableMismatchError"],
    "poly": ["MultiPoly", "VarSet", "divided_difference", "format_poly", "parse_poly"],
    "localalg": ["DEFAULT_STEP_BUDGET", "INFINITE", "LocalIdeal", "ideal_from_text"],
    "icis": ["MilnorData", "VarietyClass", "classify", "milnor_hypersurface", "milnor_icis"],
    "symrep": ["CharacterTable", "Partition", "character_table_symmetric", "class_size",
               "partitions", "sign_of_class", "table_from_text"],
    "isotype": ["ConservationVerdict", "EulerOnly", "IcisDatum", "SingleDim",
                "check_conservation", "evaluate_class_function", "mu_tau",
                "solve_character_system", "tau_betti_single_dim", "tau_characteristic"],
    "multipoint": ["GermAnalysis", "GermSpec", "InfeasibleDimensionsError", "analyze_germ",
                   "expected_dim", "expected_dim_sigma", "fixed_locus_equations",
                   "generate_sc_germ", "germ", "germ_from_text", "kappa",
                   "multiple_point_equations", "prop_disg_check", "sc_dimension_feasible",
                   "sc_feasibility_report"],
    "invariants": ["IcssTable", "InvariantReport", "build_report", "check_mu_conservation",
                   "icss_layout", "icss_table", "mu_alt_dk", "mu_image", "mu_k_tau",
                   "no_unexpected_deformations", "nu_image"],
}

# Reads the package surface in a fresh interpreter: dir() before any name is
# touched, then each name of argv[1]'s {module: names} against its module.
SURFACE = """\
import importlib, json, sys
import germlab

homes = json.loads(sys.argv[1])
out = {"missing_from_dir": sorted(set(germlab.__all__) - set(dir(germlab)))}
out["all"] = sorted(germlab.__all__)
out["differ"] = [
    name for home, names in homes.items() for name in names
    if getattr(germlab, name) is not getattr(importlib.import_module("germlab." + home), name)
]
try:
    germlab.no_such_name
except AttributeError as exc:
    out["unknown"] = str(exc)
print(json.dumps(out))
"""


def test_lazy_package_surface_equals_the_eager_one():
    out = json.loads(fresh_python(["-c", SURFACE, json.dumps(EXPORTS)]).stdout)
    assert out["all"] == sorted(name for names in EXPORTS.values() for name in names)
    assert out["missing_from_dir"] == [] and out["differ"] == []
    assert out["unknown"] == "module 'germlab' has no attribute 'no_such_name'"
