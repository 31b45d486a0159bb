"""Independent brute-force oracles shared by the group and separation tests."""


def gf2_rank(vectors: list[int], d: int) -> int:
    """Row-reduction rank of bit-vectors over the two-element field."""
    basis = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def brute_force_classes(group) -> list[set[int]]:
    """Independent conjugacy oracle: plain double loop over the table."""
    seen = set()
    classes = []
    for g in range(group.order):
        if g in seen:
            continue
        orbit = set()
        for s in range(group.order):
            orbit.add(int(group.mult[group.mult[s, g], group.inv[s]]))
        seen |= orbit
        classes.append(orbit)
    return classes
