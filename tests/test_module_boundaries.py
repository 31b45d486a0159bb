"""Some attributes are read in one place only; one ``ast`` walk over the package checks each rule.

- A representation's signed-permutation form (``signed_permutation``,
  ``perms``, ``_signed``) is read in ``reps.py`` alone.  Every operation
  that branches on it (the homomorphism check, traces, the invariant
  projector, an averaging operator and the strong certificate's
  per-element differences) lives there, each with one mechanism; other
  modules reach a representation through its matrices and those
  operations.
- A group's table (``mult``) is read in ``groups.py`` and in
  ``reps.regular_rep``, which holds it as its permutation form.  A
  closed-form group (cyclic, sign-flip, product) builds its |G| x |G|
  table on the first read and proves it there, so one stray
  ``group.mult[...]`` costs order**2 memory and a Light's test; other
  code reads products through ``Group.product``.
- ``AveragingScheme._from_canonical`` sets a scheme's fields with none of
  the merge, range, norm and unit-sum checks of ``__post_init__``.  Only
  ``schemes.random_scheme``, whose counts give a canonical scheme by
  construction, uses it, once.
- ``Representation._from_stack`` sets a view's fields with none of the
  identity pin, dtype copy and form read of ``__init__``, and hands it
  residuals its first ``validate()`` trusts.  Only ``reps._stack_views``,
  which has pinned, read and checked the whole stack first, uses it, once.
"""

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import pytest

import groupavg

SOURCE = Path(groupavg.__file__).resolve().parent


@dataclass(frozen=True)
class Rule:
    names: frozenset  # attribute names the rule governs
    allowed: frozenset  # (file, module-level function or None for the whole file)
    uses: Optional[int]  # exact number of reads in the package, where the rule fixes one
    hint: str


RULES = {
    "signed-form": Rule(frozenset({"signed_permutation", "perms", "_signed"}),
                        frozenset({("reps.py", None)}), None,
                        "branch on a signed form inside reps.py only"),
    "group-table": Rule(frozenset({"mult"}), frozenset({("groups.py", None), ("reps.py", "regular_rep")}),
                        None, "read products through Group.product, not .mult"),
    "trusted-scheme": Rule(frozenset({"_from_canonical"}), frozenset({("schemes.py", "random_scheme")}),
                           1, "build schemes through AveragingScheme(...)"),
    "trusted-view": Rule(frozenset({"_from_stack"}), frozenset({("reps.py", "_stack_views")}), 1,
                         "build representations through Representation(...)"),
}


def _reads(rule: Rule, tree: ast.AST, path: str) -> list[str]:
    """``path:line`` of every attribute read, called or not, of a name the
    rule governs outside the places it allows: a whole file, or the body of
    a module-level function (a method of that name does not count).  A
    local variable of such a name is not a read."""
    if (path, None) in rule.allowed:
        return []
    skip = {
        id(inner)
        for node in getattr(tree, "body", [])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (path, node.name) in rule.allowed
        for inner in ast.walk(node)
    }
    lines = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr in rule.names and id(node) not in skip)
    return [f"{path}:{line}" for line in lines]


@pytest.fixture(scope="module")
def package() -> dict[str, ast.AST]:
    return {path.relative_to(SOURCE).as_posix(): ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SOURCE.rglob("*.py"))}


@pytest.mark.parametrize("name", RULES)
def test_each_attribute_is_read_only_where_its_rule_allows(name, package):
    rule = RULES[name]
    found = [line for path, tree in package.items() for line in _reads(rule, tree, path)]
    assert not found, f"{rule.hint}: {found}"
    if rule.uses is not None:
        uses = sum(isinstance(node, ast.Attribute) and node.attr in rule.names
                   for tree in package.values() for node in ast.walk(tree))
        assert uses == rule.uses, f"{rule.hint}: {uses} uses, expected {rule.uses}"


FORM_SOURCE = ("def apply(rep):\n    return rep.signed_permutation()\n\n"
               "def move(rep, perms):\n    return rep.perms, rep._signed, perms\n")
TABLE_SOURCE = "def regular_rep(g):\n    return g.mult\n\ndef other(g):\n    return g.mult[0, 1]\n"
SCHEME_SOURCE = ("def random_scheme(group, n, seed):\n"
                 "    return AveragingScheme._from_canonical(group, s, w)\n\n"
                 "def swap(scheme):\n"
                 "    build = AveragingScheme._from_canonical\n"
                 "    return build(scheme.group, s, w)\n\n"
                 "class Searcher:\n"
                 "    def random_scheme(self):\n"
                 "        return AveragingScheme._from_canonical(g, s, w)\n")
VIEW_SOURCE = ("def _stack_views(group, stacks, names):\n"
               "    return [Representation._from_stack(group, m, n, None, r) for m in stacks]\n\n"
               "def tensor_product(r1, r2):\n"
               "    build = Representation._from_stack\n"
               "    return build(r1.group, m, 'x', None, (0.0, 0.0))\n\n"
               "class Table:\n"
               "    def _stack_views(self):\n"
               "        return Representation._from_stack(g, m, n, None, r)\n")

# (rule, source, its file, the reads the guard must report)
SEEN = [
    ("signed-form", FORM_SOURCE, "schemes.py", ["schemes.py:2", "schemes.py:5", "schemes.py:5"]),
    ("signed-form", FORM_SOURCE, "reps.py", []),
    ("group-table", TABLE_SOURCE, "reps.py", ["reps.py:5"]),
    ("group-table", TABLE_SOURCE, "fourier.py", ["fourier.py:2", "fourier.py:5"]),
    ("group-table", TABLE_SOURCE, "groups.py", []),
    ("trusted-scheme", SCHEME_SOURCE, "schemes.py", ["schemes.py:5", "schemes.py:10"]),
    ("trusted-scheme", SCHEME_SOURCE, "cli.py", ["cli.py:2", "cli.py:5", "cli.py:10"]),
    ("trusted-view", VIEW_SOURCE, "reps.py", ["reps.py:5", "reps.py:10"]),
    ("trusted-view", VIEW_SOURCE, "irreps.py", ["irreps.py:2", "irreps.py:5", "irreps.py:10"]),
]


@pytest.mark.parametrize("name, source, path, want", SEEN,
                         ids=[f"{name}-{path}" for name, _, path, _ in SEEN])
def test_the_guard_sees_a_read(name, source, path, want):
    assert _reads(RULES[name], ast.parse(source), path) == want
