"""Code outside ``groups.py`` reads group products through ``Group.product``.

A closed-form group (cyclic, sign-flip, product) builds its |G| x |G|
table on the first read of ``Group.mult`` and proves it there, so one
stray ``group.mult[...]`` costs order**2 memory and a Light's test on
every group that reaches it.  Only ``groups.py`` and ``reps.regular_rep``,
which holds the table as its permutation form, read the table.
"""

import ast
from pathlib import Path

import groupavg

SOURCE = Path(groupavg.__file__).resolve().parent
ALLOWED = {("groups.py", None), ("reps.py", "regular_rep")}


def _mult_reads(tree: ast.AST, path: str) -> list[str]:
    """``path:line`` of every ``.mult`` attribute read outside ``ALLOWED``;
    a whole file is allowed by a None function name."""
    if (path, None) in ALLOWED:
        return []
    skipped = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and (path, fn.name) in ALLOWED
        for node in ast.walk(fn)
    }
    return [
        f"{path}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "mult" and id(node) not in skipped
    ]


def test_no_table_read_outside_the_group_layer():
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        name = path.relative_to(SOURCE).as_posix()
        found += _mult_reads(ast.parse(path.read_text(), filename=name), name)
    assert not found, f"read products through Group.product, not .mult: {found}"


def test_the_guard_sees_a_table_read():
    source = "def regular_rep(g):\n    return g.mult\n\ndef other(g):\n    return g.mult[0, 1]\n"
    assert _mult_reads(ast.parse(source), "reps.py") == ["reps.py:5"]
    assert _mult_reads(ast.parse(source), "fourier.py") == ["fourier.py:2", "fourier.py:5"]
    assert _mult_reads(ast.parse(source), "groups.py") == []
