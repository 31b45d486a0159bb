"""Every byte cap is refused through ``errors.check_bytes``.

The toolkit has one memory budget, ``errors.MEMORY_CAP_BYTES``, and one
helper that compares an estimate with it and words the refusal.  A module
that formats its own "above the cap of" message has a cap of its own;
the one exception is the group table's "far above the cap of" for an
order past 2**64, which names no byte count so that no huge integer is
printed.
"""

import ast
from pathlib import Path

import groupavg

SOURCE = Path(groupavg.__file__).resolve().parent
ALLOWED = {("errors.py", "above the cap of"), ("groups.py", "far above the cap of")}


def _cap_messages(tree: ast.AST, path: str) -> list[str]:
    """``path:line`` of every string literal, f-string parts included, that
    says "above the cap of", unless ``ALLOWED`` pairs its file with a phrase
    in it."""
    return [
        f"{path}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and "above the cap of" in node.value
        and not any(path == file and phrase in node.value for file, phrase in ALLOWED)
    ]


def test_no_cap_message_outside_check_bytes():
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        name = path.relative_to(SOURCE).as_posix()
        found += _cap_messages(ast.parse(path.read_text(), filename=name), name)
    assert not found, f"refuse a byte estimate through errors.check_bytes: {found}"


def test_the_guard_sees_a_cap_message():
    source = ('FAR = "order above 2**64 is far above the cap of"\n\n'
              'def check(need, cap):\n    if need > cap:\n'
              '        raise ValueError(f"{need:,} bytes, above the cap of {cap:,}")\n')
    assert _cap_messages(ast.parse(source), "reps.py") == ["reps.py:1", "reps.py:5"]
    assert _cap_messages(ast.parse(source), "groups.py") == ["groups.py:5"]
    assert _cap_messages(ast.parse(source), "errors.py") == []
