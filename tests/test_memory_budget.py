"""The byte estimates behind the group and irrep table caps bound what a build holds.

A cap refuses a build by its estimate before anything is allocated, so an
estimate below the real peak would admit a build that passes the memory
budget.  Here the tracemalloc peak of each build, at orders where the
order**2 arrays outweigh fixed costs, stays at or below the estimate its
cap checks: ``order**2 * 40`` for a group table, read in full, and
``order**2 * 96`` for an irrep table.
"""

import gc
import tracemalloc

import pytest

from groupavg import irreps_of, parse_group_spec


def _traced_peak(build):
    """``build()``'s result and the tracemalloc peak, in bytes, while it ran."""
    gc.collect()
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# measured 31.2, 24.9, 15.2 and 16.1 bytes per order**2 entry
@pytest.mark.parametrize("spec", ["dihedral:500", "symmetric:6", "product(dihedral:5,cyclic:100)",
                                  "cyclic:1000"])
def test_group_build_peak_is_within_its_estimate(spec):
    def build():
        group = parse_group_spec(spec)
        group.mult  # a closed-form group builds and proves its table on this first read
        return group

    group, peak = _traced_peak(build)
    assert peak <= group.order**2 * 40, (spec, peak / group.order**2)


# measured 53.6, 42.8, 35.7 and 53.6 bytes per order**2 entry
@pytest.mark.parametrize("spec", ["cyclic:1000", "signflip:10", "dihedral:500",
                                  "product(cyclic:10,cyclic:100)"])
def test_irrep_table_peak_is_within_its_estimate(spec):
    group = parse_group_spec(spec)
    _, peak = _traced_peak(lambda: irreps_of(group))
    assert peak <= group.order**2 * 96, (spec, peak / group.order**2)
