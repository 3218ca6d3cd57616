"""The README's examples run as printed."""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from germlab.cli import EXIT_OK, EXIT_RESOURCE, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_in_three_lines_prints_what_its_comment_says():
    section = README.read_text().split("## Library in three lines", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue() == "2 {2: 2}\n"


def _file_format_examples() -> dict[str, list[str]]:
    """The fenced examples under "File formats", by subsection heading
    without its parenthesis ("Germ files", "Ideal files", ...)."""
    section = README.read_text().split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    examples = {}
    for part in section.split("\n### ")[1:]:
        heading, body = part.split("\n", 1)
        examples[heading.split(" (")[0]] = re.findall(r"```\n(.*?)```", body, re.S)
    return examples


EXAMPLES = _file_format_examples()


@pytest.fixture()
def cli(tmp_path):
    """Run the command line on texts written to files: (exit code, stdout)."""

    def run(command, *texts):
        paths = []
        for i, text in enumerate(texts):
            paths.append(tmp_path / f"input.{i}")
            paths[-1].write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([*command, *map(str, paths)])
        return code, out.getvalue()

    return run


def test_every_file_format_has_its_examples():
    counts = {heading: len(blocks) for heading, blocks in EXAMPLES.items()}
    assert counts == {
        "Polynomials": 0, "Germ files": 1, "Ideal files": 1, "Character tables": 1,
        "Fixed-point data": 3, "Conservation data": 2,
    }


def test_germ_example_is_analyzed(cli):
    (germ,) = EXAMPLES["Germ files"]
    code, out = cli(["analyze"], germ)
    assert code == EXIT_OK
    assert json.loads(out)["n"] == 5


def test_ideal_example_has_milnor_number_4(cli):
    (ideal,) = EXAMPLES["Ideal files"]
    assert cli(["milnor"], ideal) == (EXIT_OK, '{"mu": 4}\n')


@pytest.mark.parametrize("index", range(3), ids=["euler", "single", "icis"])
def test_fixed_point_examples_against_the_s2_table(cli, index):
    data = EXAMPLES["Fixed-point data"][index]
    code, table = cli(["--format", "text", "char-table", "2"])
    assert code == EXIT_OK
    code, out = cli(["isotype"], table, data)
    assert code == EXIT_OK
    (readme_table,) = EXAMPLES["Character tables"]
    assert cli(["isotype"], readme_table, data) == (EXIT_OK, out)


@pytest.mark.parametrize("index", range(2), ids=["tau-milnor", "image-milnor"])
def test_conservation_examples_hold(cli, index):
    code, out = cli(["conservation-check"], EXAMPLES["Conservation data"][index])
    assert code == EXIT_OK
    assert json.loads(out)["status"] == "holds"


def test_ledger_example_charges_what_it_says(tmp_path):
    text = " ".join(README.read_text().split())
    m = re.search(
        r"The \(4, 5\) germ `\((.*?), (.*?)\)` charges (\d+) units in all, (\d+) in the cells"
        r" before its (D\^4 \(1,1,1,1\)) cell and (\d+) in that cell, so at `--budget-steps"
        r" (\d+)` it exits 2 with `(error: .*?)`",
        text,
    )
    h1, h2, total, before, cell, in_cell, budget, message = m.groups()
    assert int(before) + int(in_cell) == int(total)
    path = tmp_path / "q45.germ"
    path.write_text(f"n 4\np 5\ncomponent {h1}\ncomponent {h2}\n")

    def analyze(steps):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["--budget-steps", str(steps), "analyze", str(path)])
        return code, err.getvalue()

    assert analyze(int(total)) == (EXIT_OK, "")
    assert analyze(int(total) - 1)[0] == EXIT_RESOURCE
    # The cells before it spend exactly `before`, so the next unit is charged
    # in that cell.
    assert f" in {cell} " in analyze(int(before))[1]
    assert f" in {cell} " not in analyze(int(before) - 1)[1]
    assert analyze(int(budget)) == (EXIT_RESOURCE, message + "\n")
