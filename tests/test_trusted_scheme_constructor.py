"""Only ``schemes.random_scheme`` builds a scheme without the checking constructor.

``AveragingScheme._from_canonical`` sets a scheme's fields as given, with
none of the merge, range, norm and unit-sum checks of ``__post_init__``.
``random_scheme`` may use it because its counts give a canonical scheme by
construction; any other caller, scheme files and search swaps included,
must go through ``AveragingScheme(...)``.
"""

import ast
from pathlib import Path

import groupavg

SOURCE = Path(groupavg.__file__).resolve().parent
TRUSTED = "_from_canonical"
ALLOWED = ("schemes.py", "random_scheme")


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


def test_only_random_scheme_uses_the_trusted_constructor():
    found, allowed = [], 0
    for path in sorted(SOURCE.rglob("*.py")):
        name = path.relative_to(SOURCE).as_posix()
        tree = ast.parse(path.read_text(), filename=name)
        found += _trusted_reads(tree, name)
        allowed += sum(isinstance(n, ast.Attribute) and n.attr == TRUSTED for n in ast.walk(tree))
    assert not found, f"build schemes through AveragingScheme(...): {found}"
    assert allowed == 1, "random_scheme builds its scheme through the trusted constructor"


def test_the_guard_sees_a_trusted_call():
    source = ("def random_scheme(group, n, seed):\n"
              "    return AveragingScheme._from_canonical(group, s, w)\n\n"
              "def swap(scheme):\n"
              "    build = AveragingScheme._from_canonical\n"
              "    return build(scheme.group, s, w)\n\n"
              "class Searcher:\n"
              "    def random_scheme(self):\n"
              "        return AveragingScheme._from_canonical(g, s, w)\n")
    assert _trusted_reads(ast.parse(source), "schemes.py") == ["schemes.py:5", "schemes.py:10"]
    assert _trusted_reads(ast.parse(source), "cli.py") == ["cli.py:2", "cli.py:5", "cli.py:10"]
