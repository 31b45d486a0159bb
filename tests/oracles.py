"""Independent brute-force oracles shared by the group, separation and Fourier tests."""

import math

import numpy as np


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


def brute_force_is_group(mult) -> bool:
    """Independent group-axiom oracle: plain loops over every element,
    pair and triple; index 0 must be the identity."""
    n = len(mult)
    elems = range(n)
    if any(not 0 <= mult[a][b] < n for a in elems for b in elems):
        return False
    if any(mult[0][a] != a or mult[a][0] != a for a in elems):
        return False
    if any(not any(mult[a][b] == 0 and mult[b][a] == 0 for b in elems) for a in elems):
        return False
    return all(
        mult[mult[a][b]][c] == mult[a][mult[b][c]] for a in elems for b in elems for c in elems
    )


def reduced_latin_squares(n: int) -> list[list[list[int]]]:
    """Every n x n Latin square on 0..n-1 whose first row and column are
    0..n-1 in order, by backtracking cell by cell."""
    square = [[j if i == 0 else (i if j == 0 else -1) for j in range(n)] for i in range(n)]
    out = []

    def fill(cell: int) -> None:
        if cell == n * n:
            out.append([row[:] for row in square])
            return
        i, j = divmod(cell, n)
        if square[i][j] >= 0:
            fill(cell + 1)
            return
        used = set(square[i][:j]) | {square[r][j] for r in range(i)}
        for v in range(n):
            if v not in used:
                square[i][j] = v
                fill(cell + 1)
        square[i][j] = -1

    fill(0)
    return out


def lehmer_ranks(perms: np.ndarray) -> np.ndarray:
    """Lexicographic ranks of permutation rows (factorial number system)."""
    n, d = perms.shape
    ranks = np.zeros(n, dtype=np.int64)
    for i in range(d - 1):
        smaller = (perms[:, i + 1 :] < perms[:, i : i + 1]).sum(axis=1)
        ranks += smaller * math.factorial(d - 1 - i)
    return ranks


def dense_max_deviation(rep, block: np.ndarray) -> float:
    """Independent strong-certificate oracle: one complex matmul and one
    complex SVD per element, ignoring any permutation arrays."""
    return max(float(np.linalg.norm(m @ block - block, 2)) for m in rep.mats)
