import pytest

from groupavg import parse_group_spec

# overflow to inf is the documented divergence signal in the MLP trainer,
# so the suite leaves numpy's default floating-point error state alone

SMALL_GROUP_SPECS = [
    "cyclic:1",
    "cyclic:2",
    "cyclic:3",
    "cyclic:4",
    "cyclic:6",
    "cyclic:12",
    "signflip:1",
    "signflip:2",
    "signflip:3",
    "dihedral:3",
    "dihedral:4",
    "dihedral:5",
    "dihedral:6",
    "symmetric:2",
    "symmetric:3",
    "product(cyclic:2,cyclic:3)",
    "product(cyclic:2,symmetric:3)",
]


@pytest.fixture(scope="session")
def small_groups():
    return {spec: parse_group_spec(spec) for spec in SMALL_GROUP_SPECS}
