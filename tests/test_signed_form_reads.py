"""Code outside ``reps.py`` never reads a representation's signed-permutation form.

The regular, permutation and sign actions are held by an integer
``(perm, sign)`` form, and every operation that branches on it (the
homomorphism check, traces, the invariant projector, an averaging
operator and the strong certificate's per-element differences) lives in
``reps.py``, each with one mechanism.  Other modules reach a
representation through its matrices and those operations alone.
"""

import ast
from pathlib import Path

import groupavg

SOURCE = Path(groupavg.__file__).resolve().parent
FORM_NAMES = {"signed_permutation", "perms", "_signed"}


def _form_reads(tree: ast.AST, path: str) -> list[str]:
    """``path:line`` of every attribute read of a name in ``FORM_NAMES``
    outside ``reps.py``; a local variable of that name is not a read."""
    if path == "reps.py":
        return []
    return [
        f"{path}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in FORM_NAMES
    ]


def test_no_signed_form_read_outside_reps():
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        name = path.relative_to(SOURCE).as_posix()
        found += _form_reads(ast.parse(path.read_text(), filename=name), name)
    assert not found, f"branch on a signed form inside reps.py only: {found}"


def test_the_guard_sees_a_form_read():
    source = ("def apply(rep):\n    return rep.signed_permutation()\n\n"
              "def move(rep, perms):\n    return rep.perms, rep._signed, perms\n")
    assert _form_reads(ast.parse(source), "schemes.py") == ["schemes.py:2"] + ["schemes.py:5"] * 2
    assert _form_reads(ast.parse(source), "reps.py") == []
