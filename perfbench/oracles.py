"""Independent checks of germlab's outputs.

Nothing here imports germlab or calls its checkers: every expected value
comes from theory or from combinatorics computed independently.  A check
returns None when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def sc_feasible(n: int, p: int) -> bool:
    """Strongly contractible corank-one germs exist in (n, p) iff
    p - floor(p/(p-n)) (p-n+1) >= 0."""
    kappa = p // (p - n)
    return p - kappa * (p - n + 1) >= 0


def sc_sweep_pairs() -> list[tuple[int, int]]:
    """Every feasible (n, p) with 1 <= n <= 10 and n < p <= 60 (502 pairs)."""
    return [(n, p) for n in range(1, 11) for p in range(n + 1, 61) if sc_feasible(n, p)]


def strongly_contractible_invariants(report) -> str | None:
    """A strongly contractible germ is unstable and its stable perturbation
    has contractible image: every alternating number vanishes and so do
    mu_I and nu_I."""
    verdict = report.analysis.verdict
    if verdict.stable:
        return "reported stable"
    if report.mu_i != 0 or report.nu_i != 0:
        return f"mu_I = {report.mu_i}, nu_I = {report.nu_i}, expected 0 and 0"
    nonzero = {k: v for k, v in (report.mu_alt or {}).items() if v != 0}
    if nonzero:
        return f"nonzero alternating numbers {nonzero}"
    return None


def image_milnor_number(report, codim: int) -> str | None:
    """For a quasi-homogeneous germ (C^2,0) -> (C^3,0), mu_I is the
    A_e-codimension (Mond)."""
    if report.mu_i != codim:
        return f"mu_I = {report.mu_i}, expected {codim}"
    return None


# -- symmetric-group combinatorics -------------------------------------------


def parse_label(label: str) -> tuple[int, ...]:
    return tuple(int(x) for x in label.strip("()").split(","))


def partitions_of(k: int) -> set[tuple[int, ...]]:
    out: set[tuple[int, ...]] = set()

    def gen(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.add(prefix)
        for first in range(min(cap, remaining), 0, -1):
            gen(remaining - first, first, prefix + (first,))

    gen(k, k, ())
    return out


def centralizer_order(shape: tuple[int, ...]) -> int:
    """z_lambda = prod_i i^(a_i) a_i!, with a_i the number of parts equal to i."""
    z = 1
    for part in set(shape):
        a = shape.count(part)
        z *= part**a * factorial(a)
    return z


def hook_length_degree(shape: tuple[int, ...]) -> int:
    """Degree of the irreducible of S_k labelled by shape: k! / prod of hooks."""
    conjugate = [sum(1 for row in shape if row > j) for j in range(shape[0])]
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j - 1) + (conjugate[j] - i - 1) + 1
    return factorial(sum(shape)) // hooks


def _number(text: str) -> int | Fraction:
    return Fraction(text) if "/" in text else int(text)


def parse_table_text(text: str) -> dict:
    """Read the `char-table --format text` output into labels, sizes and rows."""
    classes: list[tuple[str, int]] = []
    irreps: list[tuple[str, list[Fraction]]] = []
    order = None
    for line in text.splitlines():
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "group_order":
            order = int(fields[1])
        elif fields[0] == "class":
            classes.append((fields[1], int(fields[2])))
        elif fields[0] == "irrep":
            irreps.append((fields[1], [_number(v) for v in fields[2:]]))
    return {"order": order, "classes": classes, "irreps": irreps}


def symmetric_character_table(table: dict, k: int) -> str | None:
    """Labels, class sizes, trivial and sign rows, hook-length degrees and
    column orthogonality of a claimed character table of S_k."""
    shapes = partitions_of(k)
    class_shapes = [parse_label(lbl) for lbl, _ in table["classes"]]
    irrep_shapes = [parse_label(lbl) for lbl, _ in table["irreps"]]
    if table["order"] != factorial(k):
        return f"group order {table['order']} != {k}!"
    if set(class_shapes) != shapes or len(class_shapes) != len(shapes):
        return "classes are not the partitions of k"
    if set(irrep_shapes) != shapes or len(irrep_shapes) != len(shapes):
        return "irreducibles are not labelled by the partitions of k"
    for shape, (_, size) in zip(class_shapes, table["classes"]):
        if size * centralizer_order(shape) != factorial(k):
            return f"class {shape} has size {size}"
    rows = {shape: row for shape, (_, row) in zip(irrep_shapes, table["irreps"])}
    if any(len(row) != len(class_shapes) for row in rows.values()):
        return "ragged table"
    identity = class_shapes.index((1,) * k)
    for shape, row in rows.items():
        if row[identity] != hook_length_degree(shape):
            return f"degree of {shape} is {row[identity]}, hook length formula gives {hook_length_degree(shape)}"
    if any(v != 1 for v in rows[(k,)]):
        return "trivial row is not constant 1"
    for j, cls in enumerate(class_shapes):
        if rows[(1,) * k][j] != (-1) ** (k - len(cls)):
            return f"sign row is wrong at class {cls}"
    columns = list(zip(*rows.values()))
    for a in range(len(columns)):
        for b in range(a, len(columns)):
            dot = sum(x * y for x, y in zip(columns[a], columns[b]))
            expected = centralizer_order(class_shapes[a]) if a == b else 0
            if dot != expected:
                return f"columns {class_shapes[a]} and {class_shapes[b]} are not orthogonal"
    return None


def isotype_reproduces_euler(table: dict, euler: dict[str, int], values: dict[str, str]) -> str | None:
    """Forward evaluation: sum_tau chi_tau(sigma) chi_tau(M) must give back the
    Euler characteristic of every fixed locus M^sigma."""
    labels = [lbl for lbl, _ in table["irreps"]]
    if set(values) != set(labels):
        return "isotype output does not cover every irreducible"
    x = {lbl: Fraction(values[lbl]) for lbl in labels}
    for j, (cls, _) in enumerate(table["classes"]):
        total = sum(row[j] * x[lbl] for lbl, row in table["irreps"])
        if total != euler[cls]:
            return f"class {cls}: evaluation gives {total}, data says {euler[cls]}"
    return None
