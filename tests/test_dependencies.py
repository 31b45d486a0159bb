"""The declared dependencies cover what the code calls.

``np.vecdot``, which the certificates and the representation checks call,
first shipped in numpy 2.0, so the project must not admit numpy 1.x.
"""

import re
from pathlib import Path

import numpy as np

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _numpy_floor(text: str) -> tuple[int, ...]:
    """The version after ``numpy>=`` in the ``dependencies`` list."""
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S).group(1)
    floor = re.search(r"""["']numpy\s*>=\s*([0-9][0-9.]*)""", deps).group(1)
    return tuple(int(part) for part in floor.split("."))


def test_numpy_floor_has_vecdot():
    assert _numpy_floor(PYPROJECT.read_text()) >= (2, 0)
    assert hasattr(np, "vecdot")


def test_the_floor_reader_sees_a_low_floor():
    assert _numpy_floor('dependencies = ["numpy>=1.24"]\n') == (1, 24)
    assert _numpy_floor('name = "x"\ndependencies = [\n  "scipy",\n  "numpy >= 2.1.3",\n]\n') == (2, 1, 3)
