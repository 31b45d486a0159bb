"""Only ``reps._stack_views`` builds a representation without the checking constructor.

``Representation._from_stack`` sets a view's fields as given, with none of
the identity pin, dtype copy and form read of ``__init__``, and hands it
residuals its first ``validate()`` trusts.  ``_stack_views`` may use it
because it has pinned, read and checked the whole stack first; any other
caller must go through ``Representation(...)``.
"""

import ast
from pathlib import Path

import groupavg

SOURCE = Path(groupavg.__file__).resolve().parent
TRUSTED = "_from_stack"
ALLOWED = ("reps.py", "_stack_views")


def _trusted_reads(tree: ast.AST, path: str) -> list[str]:
    """``path:line`` of every read of an attribute named ``TRUSTED``, called
    or not, outside the body of the module-level function that ``ALLOWED``
    names (a method of that name does not count)."""
    skip = set()
    for node in getattr(tree, "body", []):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (path, node.name) == ALLOWED:
            skip |= {id(inner) for inner in ast.walk(node)}
    lines = sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == TRUSTED and id(node) not in skip
    )
    return [f"{path}:{line}" for line in lines]


def test_only_the_stack_check_uses_the_trusted_view_constructor():
    found, allowed = [], 0
    for path in sorted(SOURCE.rglob("*.py")):
        name = path.relative_to(SOURCE).as_posix()
        tree = ast.parse(path.read_text(), filename=name)
        found += _trusted_reads(tree, name)
        allowed += sum(isinstance(n, ast.Attribute) and n.attr == TRUSTED for n in ast.walk(tree))
    assert not found, f"build representations through Representation(...): {found}"
    assert allowed == 1, "_stack_views builds its views through the trusted constructor"


def test_the_guard_sees_a_trusted_call():
    source = ("def _stack_views(group, stacks, names):\n"
              "    return [Representation._from_stack(group, m, n, None, r) for m in stacks]\n\n"
              "def tensor_product(r1, r2):\n"
              "    build = Representation._from_stack\n"
              "    return build(r1.group, m, 'x', None, (0.0, 0.0))\n\n"
              "class Table:\n"
              "    def _stack_views(self):\n"
              "        return Representation._from_stack(g, m, n, None, r)\n")
    assert _trusted_reads(ast.parse(source), "reps.py") == ["reps.py:5", "reps.py:10"]
    assert _trusted_reads(ast.parse(source), "irreps.py") == ["irreps.py:2", "irreps.py:5",
                                                               "irreps.py:10"]
