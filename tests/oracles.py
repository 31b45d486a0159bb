"""Independent brute-force oracles shared by the group, separation and Fourier tests."""

import math
from itertools import combinations_with_replacement

import numpy as np

from groupavg import (
    GroupSignal,
    permutation_rep,
    regular_rep,
    sign_action_rep,
    sym_power_rep,
    trivial_rep,
)


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


def dense_apply_scheme(scheme, rep) -> np.ndarray:
    """Averaging-operator oracle: the weighted sum of the support's dense
    matrices, ignoring any permutation arrays."""
    return np.einsum("s,sij->ij", scheme.weights.astype(np.complex128), rep.mats[scheme.support])


def dense_invariant_projector(rep) -> np.ndarray:
    """Projector oracle: the mean of the dense matrices."""
    return rep.mats.mean(axis=0)


def dense_invariant_dimension(rep) -> int:
    """Fixed-subspace dimension oracle: the mean of the dense traces, which
    must lie within 1e-6 of an integer."""
    value = complex(np.einsum("gii->g", rep.mats).mean())
    nearest = round(value.real)
    assert abs(value - nearest) <= 1e-6, value
    return int(nearest)


def signed_permutation_by_masks(mats: np.ndarray):
    """Signed-permutation oracle: ``(perm, sign)`` with ``mats[g] e_j =
    sign[g, j] e_{perm[g, j]}``, or None.  Each condition is its own pass:
    no imaginary part, +-1 at every nonzero real entry, one nonzero per
    column and one per row; then each column's row is its argmax and its
    sign the column sum."""
    if np.any(mats.imag):
        return None
    re = mats.real
    nonzero = re != 0
    if not (np.all(np.abs(re[nonzero]) == 1)
            and np.all(nonzero.sum(axis=1) == 1) and np.all(nonzero.sum(axis=2) == 1)):
        return None
    return nonzero.argmax(axis=1), re.sum(axis=1).astype(np.int8)


# -- homomorphism law on pairs ---------------------------------------------------

SAMPLED_PAIRS_ABOVE_ORDER = 256
SAMPLED_PAIRS_SEED = 0xC0FFEE


def seeded_pairs(n: int) -> list[tuple[int, int]]:
    """The ``max(64, 2 n)`` seeded random pairs that :func:`forked_homomorphism_residual`
    checks above order 256."""
    rng = np.random.default_rng(SAMPLED_PAIRS_SEED)
    count = max(64, 2 * n)
    gs = rng.integers(0, n, size=count)
    hs = rng.integers(0, n, size=count)
    return list(zip(gs.tolist(), hs.tolist()))


def forked_homomorphism_residual(mats: np.ndarray, mult: np.ndarray) -> float:
    """A float homomorphism check that forks on the order: the max Frobenius
    deviation of mats[g*h] from mats[g] @ mats[h] over all pairs up to order
    256 (and 4e9 flops), over :func:`seeded_pairs` above it.  The sampled
    branch proves nothing; the tests keep it to show the corruptions it misses."""
    n, d = mats.shape[0], mats.shape[1]
    if n <= SAMPLED_PAIRS_ABOVE_ORDER and n * n * 2 * d**3 <= 4e9:
        return all_pairs_homomorphism_residual(mats, mult)
    g, h = np.array(seeded_pairs(n)).T
    diff = mats[mult[g, h]] - np.matmul(mats[g], mats[h])
    return float(np.sqrt((np.abs(diff) ** 2).sum(axis=(-2, -1))).max())


def all_pairs_homomorphism_residual(mats: np.ndarray, mult: np.ndarray) -> float:
    """Max Frobenius deviation of mats[g*h] from mats[g] @ mats[h] over every
    pair: each mats[g] times all matrices side by side, a block of g at a
    time; a NaN anywhere is the result."""
    n, d = mats.shape[0], mats.shape[1]
    side_by_side = mats.transpose(1, 0, 2).reshape(d, n * d)  # [i, (h, k)] = mats[h, i, k]
    rows = max(1, (1 << 16) // (n * d * d))
    worst = 0.0
    for start in range(0, n, rows):
        gs = np.arange(start, min(start + rows, n))
        prods = (mats[gs] @ side_by_side).reshape(len(gs), d, n, d).transpose(0, 2, 1, 3)
        diff = mats[mult[gs]] - prods
        worst = np.maximum(worst, np.sqrt((np.abs(diff) ** 2).sum(axis=(-2, -1))).max())
    return float(worst)


def signed_homomorphism_by_pairs(group, perm: np.ndarray, sign: np.ndarray) -> bool:
    """Exact homomorphism oracle for a ``(perm, sign)`` form: every pair g, h
    at once, the composite of rows g and h (``e_j -> sign[h, j] * sign[g,
    perm[h, j]] e_{perm[g, perm[h, j]]}``) against row g*h of the table."""
    perm, sign = np.asarray(perm), np.asarray(sign, dtype=np.int64)
    mult = group.mult
    g = np.arange(group.order)[:, None, None]
    composed = perm[g, perm[None, :, :]]  # [g, h, j]
    signs = sign[None, :, :] * sign[g, perm[None, :, :]]
    return bool(np.array_equal(perm[mult], composed) and np.array_equal(sign[mult], signs))


def generated_by_unique(mult: np.ndarray, generators: list[int]) -> tuple[np.ndarray, int]:
    """Closure oracle, the ``np.unique`` form: the mask of the elements
    reached from the identity by right multiplication with ``generators``,
    breadth first, each frontier the sorted distinct new products of the
    last, and the number of steps to the last element reached."""
    reached = np.zeros(mult.shape[0], dtype=bool)
    reached[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    depth = -1
    while frontier.size:
        step = mult[np.ix_(frontier, generators)].ravel()
        frontier = np.unique(step[~reached[step]])
        reached[frontier] = True
        depth += 1
    return reached, depth


def greedy_generators_by_restart(mult) -> tuple[int, ...]:
    """Generator oracle, the loop ``Group.validate`` ran before it extended
    each subgroup by repeated squares: each generator the smallest element
    not yet generated, and after each one the closure of all of them
    searched anew from the identity by the generators alone
    (:func:`generated_by_unique`), |s| - 1 steps for a cyclic s."""
    m = np.asarray(mult, dtype=np.int64)
    generators: list[int] = []
    generated = np.arange(m.shape[0]) == 0
    while not generated.all():
        generators.append(int(np.argmin(generated)))
        generated, _ = generated_by_unique(m, generators)
    return tuple(generators)


def dense_family_table(group) -> np.ndarray:
    """Table oracle: the table a dense constructor builds for a built-in
    group, as every family did before the closed forms.  Cyclic groups add
    mod n, sign-flip groups xor, and a product packs ``(a, b) -> a * |G2| + b``
    over its factors' tables; dihedral and symmetric groups hold theirs."""
    idx = np.arange(group.order)
    if group.family == "cyclic":
        return (idx[:, None] + idx[None, :]) % group.order
    if group.family == "sign_flip":
        return idx[:, None] ^ idx[None, :]
    if group.family == "product":
        f1, f2 = group.factors
        a, b = idx // f2.order, idx % f2.order
        t1, t2 = dense_family_table(f1), dense_family_table(f2)
        return t1[a[:, None], a[None, :]] * f2.order + t2[b[:, None], b[None, :]]
    return group.mult


def light_test_by_take(mult) -> tuple[tuple[int, ...], int | None]:
    """Light's-test oracle, the ``np.take`` form on the int64 table: the
    greedy generators (each the smallest element not yet generated) and
    the generator b at which (x*b)*y == x*(b*y) first fails for some x, y,
    or None when it holds for all of them.  Expects a table that passes
    the range, identity and inverse checks."""
    m = np.asarray(mult, dtype=np.int64)
    generators: list[int] = []
    generated = np.arange(m.shape[0]) == 0
    while not generated.all():
        b = int(np.argmin(generated))
        if not np.array_equal(m[m[:, b]], np.take(m, m[b], axis=1)):
            return tuple(generators), b
        generators.append(b)
        generated, _ = generated_by_unique(m, generators)
    return tuple(generators), None


def word_layers_by_sets(mult, basis) -> list[set[int]]:
    """Breadth-first layers of the words in ``basis`` from the identity,
    one Python set per layer, until no new element appears."""
    layers, seen = [{0}], {0}
    while True:
        new = {int(mult[x][t]) for x in layers[-1] for t in basis} - seen
        if not new:
            return layers
        seen |= new
        layers.append(new)


def sym_power_perms_by_loop(base_perms: np.ndarray, k: int) -> np.ndarray:
    """Permutation of degree-k monomials induced by coordinate permutations,
    one dictionary lookup per element and monomial."""
    n, d = base_perms.shape
    monos = list(combinations_with_replacement(range(d), k))
    index = {m: i for i, m in enumerate(monos)}
    out = np.empty((n, len(monos)), dtype=np.int64)
    for g in range(n):
        p = base_perms[g]
        for j, m in enumerate(monos):
            out[g, j] = index[tuple(sorted(int(p[v]) for v in m))]
    return out


def sym_power_dense_by_pairs(rep, k: int) -> np.ndarray:
    """Dense symmetric-power oracle, the coordinate-pair loop: per degree j
    and pair of coordinates (v, w) in increasing order, one gather of the
    parents of the monomials holding v and w, scaled and added from 0.0."""
    n, d = rep.group.order, rep.dim
    current = np.ones((n, 1, 1), dtype=np.complex128)
    for j in range(1, k + 1):
        monos = np.array(list(combinations_with_replacement(range(d), j)), dtype=np.int64)
        hits = monos[:, :, None] == np.arange(d)
        weight = np.sqrt(hits.sum(axis=1) / j)
        mono, var = np.nonzero(weight)
        keep = np.arange(j) != hits.argmax(axis=1)[mono, var][:, None]
        parent = np.full(weight.shape, -1)
        parent[mono, var] = np.unique(monos[mono][keep].reshape(len(mono), j - 1), axis=0,
                                      return_inverse=True)[1].reshape(-1)
        nxt = np.zeros((n, len(monos), len(monos)), dtype=np.complex128)
        for v in range(d):
            rows = weight[:, v] > 0
            pv, wv = parent[rows, v], weight[rows, v]
            for w in range(d):
                cols = weight[:, w] > 0
                pw, ww = parent[cols, w], weight[cols, w]
                gathered = current[:, pv[:, None], pw[None, :]]
                scale = wv[:, None] * ww[None, :]
                nxt[:, np.ix_(rows, cols)[0], np.ix_(rows, cols)[1]] += (
                    gathered * scale[None, :, :] * rep.mats[:, v, w][:, None, None]
                )
        current = nxt
    return current


def scheme_signal(scheme):
    """A scheme as the dense signal holding its weights on its support."""
    weights = np.zeros(scheme.group.order)
    weights[scheme.support] = scheme.weights
    return GroupSignal(group=scheme.group, weights=weights)


def coefficient_blocks(coeffs) -> list[np.ndarray]:
    """The per-irrep blocks of Fourier coefficients in table order: each
    stack's ``(d, d)`` views in turn."""
    return [block for stack in coeffs.stacks for block in stack]


def unpruned_max_nontrivial_norm(coeffs, table, restrict_to=None) -> float:
    """Weak-certificate oracle: the squared spectral norm of every
    nontrivial block in table order, ``abs`` on a 1x1 block and
    ``np.linalg.norm(..., 2)`` otherwise, with no block skipped."""
    best = 0.0
    for i, mat in enumerate(coefficient_blocks(coeffs)):
        if i == table.trivial_index or (restrict_to is not None and restrict_to[i] < 1):
            continue
        norm = abs(mat[0, 0]) if mat.size == 1 else np.linalg.norm(mat, 2)
        best = max(best, float(norm) ** 2)
    return best


def unpruned_fourier_eps_strong(scheme, table, multiplicities=None) -> float:
    """Fourier strong-certificate oracle: half the squared maximum of one
    ``spectral_norm`` per element over the differences ``reps._deviations``
    forms for each nontrivial irrep the multiplicities keep, with B the
    adjoint of its coefficient block; nothing skipped."""
    from groupavg.fourier import fourier_transform, spectral_norm
    from groupavg.reps import _deviations

    worst = 0.0
    for i, (rep, mat) in enumerate(zip(table.irreps, coefficient_blocks(fourier_transform(scheme, table)))):
        if i == table.trivial_index or (multiplicities is not None and multiplicities[i] < 1):
            continue
        for stack in _deviations(rep, mat.conj().T):
            worst = max(worst, *map(spectral_norm, stack))
    return 0.5 * worst**2


def sorted_weak_visits(blocks, table, restrict_to=None) -> list[int]:
    """Weak-certificate visiting oracle, the ``sorted`` form: the indices of
    the blocks whose spectral norm the pruned certificate takes, in order.
    Every nontrivial 1x1 block in table order, then the larger ones by
    decreasing ``np.vdot`` squared Frobenius norm (``sorted(reverse=True)``
    keeps ties in table order), stopping at the first one whose widened
    bound falls below the running maximum."""
    from groupavg.fourier import _PRUNE_FLOOR, _PRUNE_MARGIN

    best, visits, larger = 0.0, [], []
    for i, mat in enumerate(blocks):
        if i == table.trivial_index or (restrict_to is not None and restrict_to[i] < 1):
            continue
        if mat.size == 1:
            visits.append(i)
            best = max(best, float(abs(mat[0, 0])) ** 2)
        else:
            larger.append((float(np.vdot(mat, mat).real), i))
    for frob2, i in sorted(larger, key=lambda fi: fi[0], reverse=True):
        if frob2 * (1.0 + _PRUNE_MARGIN) + _PRUNE_FLOOR < best:
            break
        visits.append(i)
        best = max(best, float(np.linalg.norm(blocks[i], 2)) ** 2)
    return visits


def fourier_blocks_by_list(signal, table) -> list[np.ndarray]:
    """Fourier-transform oracle, the list form: one einsum per stack of the
    table's matrices, conjugated here, its blocks appended to one list of
    per-irrep arrays in table order."""
    idx = signal.support
    w = signal.weights[idx]
    blocks = []
    for stack in table.stacks:
        blocks.extend(np.einsum("g,kgji->kij", w, stack.conj()[:, idx]))
    return blocks


def minimize_scheme_unstopped(group, target, eps_target, trial_budget=40, seed=0,
                              swap_budget=200, multiplicities=None):
    """Scheme-search oracle, the unstopped form: the same binary search and
    swaps as ``minimize_scheme``, with every certificate computed in full."""
    from groupavg.errors import UsageError
    from groupavg.schemes import (AveragingScheme, MinimizeResult, _candidate_key,
                                  certify_weak_target, random_scheme, uniform_scheme)

    def cert(s):
        return certify_weak_target(s, target, multiplicities)

    trace = []
    best_scheme = uniform_scheme(group)
    best_eps = cert(best_scheme)
    best_feasible = best_eps <= eps_target
    trace.append(
        {"phase": "fallback", "size": best_scheme.size, "eps": best_eps, "feasible": best_feasible}
    )
    lo, hi = 1, group.order
    while lo < hi:
        mid = (lo + hi) // 2
        seeds = [np.random.SeedSequence(entropy=seed, spawn_key=(mid, t))
                 for t in range(trial_budget)]
        results = [(s, cert(s)) for s in (random_scheme(group, mid, q) for q in seeds)]
        feasible = [(s, e) for s, e in results if e <= eps_target]
        trace.append({"phase": "search", "draws": mid, "trials": len(results),
                      "feasible_trials": len(feasible),
                      "best_eps": min((e for _, e in results), default=None)})
        if feasible:
            cand_scheme, cand_eps = min(feasible, key=lambda se: _candidate_key(se[1], se[0]))
            if not best_feasible or _candidate_key(cand_eps, cand_scheme) < _candidate_key(
                best_eps, best_scheme
            ):
                best_scheme, best_eps, best_feasible = cand_scheme, cand_eps, True
            hi = mid
        else:
            lo = mid + 1
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xABCD,)))
    accepted = 0
    for _ in range(swap_budget):
        if best_scheme.size <= 1:
            break
        pos = int(rng.integers(0, best_scheme.size))
        replacement = int(rng.integers(0, group.order))
        support = best_scheme.support.copy()
        if replacement == support[pos]:
            continue
        support[pos] = replacement
        try:
            candidate = AveragingScheme(group, support, best_scheme.weights.copy())
        except UsageError:
            continue
        cand_eps = cert(candidate)
        if cand_eps <= best_eps and (not best_feasible or cand_eps <= eps_target):
            if _candidate_key(cand_eps, candidate) < _candidate_key(best_eps, best_scheme):
                best_scheme, best_eps = candidate, cand_eps
                best_feasible = best_feasible or cand_eps <= eps_target
                accepted += 1
    trace.append({"phase": "swaps", "accepted": accepted, "size": best_scheme.size, "eps": best_eps})
    status = "ok" if best_feasible else "search_failure"
    return MinimizeResult(scheme=best_scheme, eps=best_eps, status=status,
                          eps_target=eps_target, trace=trace)


def unique_merged_support(support, weights, support_eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Scheme-normalization oracle, the ``np.unique`` form: duplicates merged
    by a bincount over ``np.unique``'s inverse, in input order from 0.0,
    sorted, and weights of magnitude at most ``support_eps`` dropped."""
    elements, inverse = np.unique(np.asarray(support, dtype=np.int64), return_inverse=True)
    merged = np.bincount(inverse, weights=np.asarray(weights, dtype=np.float64),
                         minlength=elements.size)
    keep = np.abs(merged) > support_eps
    return elements[keep], merged[keep]


def unique_random_scheme(group, n: int, seed, support_eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Random-scheme oracle, the ``np.unique`` form: the seeded draws counted
    by ``np.unique(..., return_counts=True)``, divided by n, then normalized
    by :func:`unique_merged_support`.  Returns ``(support, weights)``."""
    from groupavg.groups import sample_uniform

    support, counts = np.unique(sample_uniform(group, n, seed), return_counts=True)
    return unique_merged_support(support, counts / float(n), support_eps)


def stacked_homomorphism_residual(mats: np.ndarray, group) -> float:
    """Word-basis homomorphism oracle, the stacked form: for each basis
    element t, |G| stacked d x d products ``mats @ mats[t]``, Frobenius norms
    through ``np.abs``, scaled by the word-basis factor."""
    from groupavg.reps import UNITARITY_TOL

    basis, depth = group.word_basis()
    worst = 0.0
    for t in basis:
        diff = mats[group.mult[:, t]] - mats @ mats[t]
        worst = np.maximum(worst, np.sqrt((np.abs(diff) ** 2).sum(axis=(-2, -1))).max())
    sigma = math.sqrt(1.0 + UNITARITY_TOL)
    return float(depth * (1.0 + sigma) * sigma ** max(depth - 1, 0) * worst)


def unitarity_by_gram(mats: np.ndarray) -> float:
    """Unitarity oracle, one representation's gram as it was computed before
    the stacked check: ``mats^dagger @ mats`` minus the identity, the
    largest Frobenius norm over the elements through ``np.vecdot``."""
    gram = np.matmul(mats.conj().transpose(0, 2, 1), mats)
    gram -= np.eye(mats.shape[1])
    flat = gram.reshape(len(gram), -1)
    return float(np.sqrt(np.vecdot(flat, flat).real.max()))


def sign_law_by_take(group, sign: np.ndarray) -> bool:
    """Sign-law oracle for one diagonal form, as it was checked before the
    packed rows: ``sign[g*s] == sign[g] * sign[s]`` for every element g and
    generator s, one ``np.take`` of the ``(order, dim)`` signs."""
    products = group.product(np.arange(group.order)[:, None], np.array(group.generators, dtype=np.int64))
    sign = np.asarray(sign).reshape(group.order, -1)
    gens = products[0]
    return bool((np.take(sign, products, axis=0) == sign[:, None] * sign[gens]).all())


def first_irrep_error(group, stacks) -> str | None:
    """Table-check oracle, one irrep at a time in table order as the table
    checked them before the stacked check: the message of the first error,
    or None.  A signed form (:func:`signed_permutation_by_masks`) is checked
    on every pair (:func:`signed_homomorphism_by_pairs`); any other block
    by :func:`unitarity_by_gram`, then, once unitary,
    :func:`per_basis_homomorphism_residual`, each with floating-point
    warnings off.  Element 0 must hold the exact identity."""
    from groupavg.reps import HOMOMORPHISM_TOL, UNITARITY_TOL

    for mats in (m for stack in stacks for m in stack):
        form = signed_permutation_by_masks(mats)
        with np.errstate(all="ignore"):
            if form is None:
                resid = unitarity_by_gram(mats)
                if not resid <= UNITARITY_TOL:
                    return f"unitarity residual {resid:.3e} exceeds tolerance"
                resid = per_basis_homomorphism_residual(mats, group)
            else:
                resid = 0.0 if signed_homomorphism_by_pairs(group, *form) else float("inf")
        if not resid <= HOMOMORPHISM_TOL:
            return f"homomorphism residual {resid:.3e} exceeds tolerance"
    return None


def per_basis_homomorphism_residual(mats: np.ndarray, group) -> float:
    """Word-basis homomorphism oracle, the per-basis loop: for each basis
    element t its own g*t column of products, one ``(order * dim, dim) @
    (dim, dim)`` product, one gather, one subtraction and one Frobenius
    reduction, the running maximum through ``np.maximum``, scaled by the
    word-basis factor."""
    from groupavg.reps import UNITARITY_TOL

    basis, depth = group.word_basis()
    rows = mats.reshape(-1, mats.shape[2])
    at = group.product(np.arange(group.order)[:, None], np.array(basis, dtype=np.int64))
    worst = 0.0
    for j, t in enumerate(basis):
        diff = mats[at[:, j]] - (rows @ mats[t]).reshape(mats.shape)
        flat = diff.reshape(len(diff), -1)
        worst = np.maximum(worst, np.sqrt(np.vecdot(flat, flat).real.max()))
    sigma = math.sqrt(1.0 + UNITARITY_TOL)
    return float(depth * (1.0 + sigma) * sigma ** max(depth - 1, 0) * worst)


def eigvals_profile(rep) -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
    """Independent eigenvalue-profile oracle: one dense eigensolve per
    element, each eigenvalue snapped to the nearest root of unity of the
    element's order (loop oracle) and reduced to lowest terms.  Returns
    ``(fractions, max_mult)`` sorted by denominator, then numerator."""
    counts: dict[tuple[int, int], int] = {}
    for g in range(rep.group.order):
        q = element_order_by_loop(rep.group, g)
        eigs = np.linalg.eigvals(rep.mats[g])
        ps = np.mod(np.rint(np.angle(eigs) / (2 * np.pi) * q).astype(np.int64), q)
        assert np.abs(eigs - np.exp(2j * np.pi * ps / q)).max() < 1e-6
        local: dict[tuple[int, int], int] = {}
        for p in ps.tolist():
            common = math.gcd(p, q)
            key = (p // common, q // common)
            local[key] = local.get(key, 0) + 1
        for key, c in local.items():
            counts[key] = max(counts.get(key, 0), c)
    fracs = tuple(sorted(counts, key=lambda pq: (pq[1], pq[0])))
    return fracs, np.array([counts[f] for f in fracs], dtype=np.int64)


def element_order_by_loop(group, a: int) -> int:
    """Smallest k >= 1 with a**k the identity, one multiplication at a time."""
    x, k = a, 1
    while x != 0:
        x = int(group.mult[x, a])
        k += 1
    return k


def power_class_map_by_loop(group, partition, max_power: int) -> np.ndarray:
    """``out[c, j]`` = class of ``rep_c ** j``, one multiplication at a time."""
    out = np.empty((len(partition), max_power + 1), dtype=np.int64)
    for c, g in enumerate(partition.representatives):
        x = 0
        for j in range(max_power + 1):
            out[c, j] = partition.class_of[x]
            x = int(group.mult[x, g])
    return out


def merged_support(support, weights, support_eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Independent scheme-normalization oracle: merge duplicate elements
    with a dict, in input order from 0.0, sort, and drop weights of
    magnitude at most ``support_eps``."""
    merged: dict[int, float] = {}
    for g, w in zip(np.asarray(support).tolist(), np.asarray(weights, dtype=float).tolist()):
        merged[g] = merged.get(g, 0.0) + w
    items = sorted((g, w) for g, w in merged.items() if abs(w) > support_eps)
    return (
        np.array([g for g, _ in items], dtype=np.int64),
        np.array([w for _, w in items], dtype=np.float64),
    )


# -- character layer as per-class and per-irrep loops --------------------------


def character_layer_reps(group) -> list:
    """The representations the character-layer oracles are compared on:
    regular, trivial and the family's permutation or sign action, then the
    symmetric square of each."""
    base = [regular_rep(group), trivial_rep(group)]
    if group.family == "symmetric":
        base.append(permutation_rep(group))
    if group.family == "sign_flip":
        base.append(sign_action_rep(group))
    return base + [sym_power_rep(rep, 2) for rep in base]


def character_by_loop(rep, tol: float = 1e-8) -> np.ndarray:
    """Character oracle over the classes of :func:`brute_force_classes`: the
    trace at each class's minimal element, and the largest deviation of any
    member's trace, class by class."""
    traces = np.einsum("gii->g", rep.mats)
    classes = [sorted(c) for c in brute_force_classes(rep.group)]
    values = np.array([traces[c[0]] for c in classes])
    spread = max(float(np.abs(traces[c] - values[i]).max()) for i, c in enumerate(classes))
    assert spread <= tol, spread
    return values


def multiplicity_by_loop(values, irrep_index: int, table, tol: float = 1e-6) -> int:
    """Multiplicity oracle: one class-weighted sum per irrep, rounded."""
    sizes = np.array(table.partition.sizes, dtype=float)
    value = complex(
        (sizes * values * table.characters[irrep_index].conj()).sum() / table.group.order
    )
    nearest = round(value.real)
    assert abs(value - nearest) <= tol and nearest >= 0, value
    return int(nearest)


def decompose_by_loop(values, table) -> np.ndarray:
    """Decomposition oracle: :func:`multiplicity_by_loop` irrep by irrep,
    checked against the dimension at the identity class."""
    mults = np.array([multiplicity_by_loop(values, i, table) for i in range(len(table))])
    assert (mults * np.array(table.dims)).sum() == round(values[table.partition.class_of[0]].real)
    return mults


def sym_power_character_by_restart(values, group, partition, k: int) -> np.ndarray:
    """Symmetric-power character oracle: the power-sum recursion restarted
    from degree 0, over a power-class map built by loop."""
    pcm = power_class_map_by_loop(group, partition, k)
    r = len(partition)
    table = np.zeros((k + 1, r), dtype=np.complex128)
    table[0] = 1.0
    for kk in range(1, k + 1):
        acc = np.zeros(r, dtype=np.complex128)
        for j in range(1, kk + 1):
            acc += values[pcm[np.arange(r), j]] * table[kk - j]
        table[kk] = acc / kk
    return table[k]


def sym_power_coverage_by_loop(values, max_degree: int, table) -> np.ndarray:
    """Coverage oracle: every degree recomputed from scratch, each irrep
    tested until it has appeared."""
    part = table.partition
    present = np.zeros(len(table), dtype=bool)
    for k in range(max_degree + 1):
        chi_k = sym_power_character_by_restart(values, table.group, part, k)
        for i in range(len(table)):
            if not present[i] and multiplicity_by_loop(chi_k, i, table) >= 1:
                present[i] = True
        if present.all():
            break
    return present


def _pinned(mats: np.ndarray) -> np.ndarray:
    """A representation's matrices as stored: element 0 is the exact identity."""
    mats = np.array(mats, dtype=np.complex128)
    mats[0] = np.eye(mats.shape[1])
    return mats


def adjacent_word_by_bubble_sort(one_line: list[int]) -> list[int]:
    """Swap positions s such that sigma = s[last] ... s[first] as
    composition: one permutation's bubble sort, passes until none swaps."""
    work = list(one_line)
    swaps = []
    changed = True
    while changed:
        changed = False
        for i in range(len(work) - 1):
            if work[i] > work[i + 1]:
                work[i], work[i + 1] = work[i + 1], work[i]
                swaps.append(i)
                changed = True
    return swaps[::-1]


def irrep_mats_by_loop(group) -> tuple[list[np.ndarray], np.ndarray]:
    """Irrep-table oracle: one ``(order, d, d)`` array per irrep, built one
    irrep at a time as the per-irrep builders did, pinned at the identity
    and put in table order by the same key, with the characters in that
    order.  Returns ``(mats, characters)``."""
    from groupavg.groups import conjugacy_classes, symmetric_permutations
    from groupavg.irreps import _adjacent_transposition_matrices, partitions_of

    n = group.order
    raw = []
    if group.family == "cyclic":
        for j in range(n):
            raw.append(np.exp(2j * np.pi * j * np.arange(n) / n).reshape(n, 1, 1))
    elif group.family == "sign_flip":
        x = np.arange(n)
        for mask in range(n):
            signs = 1.0 - 2.0 * (np.bitwise_count(x & mask) % 2)
            raw.append(signs.astype(np.complex128).reshape(n, 1, 1))
    elif group.family == "dihedral":
        m = group.params[0]
        a, b = np.arange(n) % m, np.arange(n) // m
        ones = [np.ones(n), np.where(b == 1, -1.0, 1.0)]
        if m % 2 == 0:
            ones += [(-1.0) ** a, (-1.0) ** (a + b)]
        raw += [v.astype(np.complex128).reshape(n, 1, 1) for v in ones]
        for h in range(1, (m - 1) // 2 + 1):
            theta = 2 * np.pi * h * a / m
            mats = np.zeros((n, 2, 2), dtype=np.complex128)
            mats[:, 0, 0], mats[:, 0, 1] = np.cos(theta), -np.sin(theta)
            mats[:, 1, 0], mats[:, 1, 1] = np.sin(theta), np.cos(theta)
            mats[b == 1] = mats[b == 1] @ np.array([[1.0, 0.0], [0.0, -1.0]])
            raw.append(mats)
    elif group.family == "symmetric":
        words = [adjacent_word_by_bubble_sort(p) for p in symmetric_permutations(group.params[0]).tolist()]
        for shape in partitions_of(group.params[0]):
            tabs, gens = _adjacent_transposition_matrices(shape)
            mats = np.empty((n, len(tabs), len(tabs)), dtype=np.complex128)
            for g, word in enumerate(words):
                acc = np.eye(len(tabs))
                for i in word:
                    acc = acc @ gens[i]
                mats[g] = acc
            raw.append(mats)
    elif group.family == "product":
        g1, g2 = group.factors
        a, b = np.arange(n) // g2.order, np.arange(n) % g2.order
        second = irrep_mats_by_loop(g2)[0]
        for p1 in irrep_mats_by_loop(g1)[0]:
            for p2 in second:
                d = p1.shape[1] * p2.shape[1]
                raw.append(np.einsum("gij,gkl->gikjl", p1[a], p2[b]).reshape(n, d, d))
    else:
        raise ValueError(group.family)
    raw = [_pinned(m) for m in raw]
    reps = list(conjugacy_classes(group).representatives)
    chars = np.array([np.trace(m[reps], axis1=1, axis2=2) for m in raw])
    dims = np.array([m.shape[1] for m in raw])
    trivial = (dims == 1) & (np.abs(chars - 1.0).max(axis=1) < 1e-9)
    values = np.stack([np.round(chars.real, 9), np.round(chars.imag, 9)], axis=2)
    order = np.lexsort([*values.reshape(len(raw), -1).T[::-1], dims, ~trivial])
    return [raw[i] for i in order], chars[order]


def table_order_by_re_im(group) -> list[np.ndarray]:
    """Table-order oracle, the (re, im) form: each dimension's builder stack,
    pinned at the identity and put in order by one stable ``lexsort`` on
    (trivial, then the rounded real and imaginary part of the character at
    each class representative in turn), imaginary keys always included."""
    from groupavg.groups import conjugacy_classes
    from groupavg.irreps import _BUILDERS

    reps = conjugacy_classes(group).representatives
    by_dim: dict[int, list[np.ndarray]] = {}
    for stack in _BUILDERS[group.family](group):
        by_dim.setdefault(stack.shape[2], []).append(stack)
    out = []
    for d in sorted(by_dim):
        stack = np.concatenate(by_dim[d]).astype(np.complex128)
        stack[:, 0] = np.eye(d)
        chars = np.trace(stack[:, reps], axis1=2, axis2=3)
        trivial = np.abs(chars - 1.0).max(axis=1) < 1e-9
        values = np.stack([np.round(chars.real, 9), np.round(chars.imag, 9)], axis=2)
        out.append(stack[np.lexsort([*values.reshape(len(chars), -1).T[::-1], ~trivial])])
    return out


# -- whole-string artifact builders ---------------------------------------------
# The writers stream one chunk per row; these build the same artifact as one
# string, over the whole array's ``tolist``, as the writers once did.


def grid_csv_as_string(xs, ys, values) -> str:
    x_text = [f"{x:.17g}" for x in xs.tolist()]
    lines = ["x,y,value"]
    for y, row in zip(ys.tolist(), values.tolist()):
        y_text = f"{y:.17g}"
        lines.extend(f"{x},{y_text},{v:.17g}" for x, v in zip(x_text, row))
    return "\n".join(lines) + "\n"


def character_table_csv_as_string(table) -> str:
    def field(text):
        return '"' + text.replace('"', '""') + '"' if "," in text or '"' in text else text

    fmt = lambda z: f"{z.real:.17g}{z.imag:+.17g}i"
    header = ["irrep"] + [field(table.group.labels[r]) for r in table.partition.representatives]
    lines = [",".join(header)]
    for label, row in zip(table.labels(), table.characters):
        lines.append(",".join([label] + [fmt(z) for z in row]))
    return "\n".join(lines) + "\n"


def group_to_text_as_string(group) -> str:
    from groupavg.groups import group_spec_string

    if group.family == "product":
        param = group_spec_string(group)
    elif group.family == "custom":
        param = "-"
    else:
        param = str(group.params[0])
    lines = [f"group {group.family} {param} {group.order}"]
    for row in group.mult:
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


# -- unrolled forms of code that now walks a layout or a layer list --------------


def feasibility_by_stacks(support, table) -> tuple[bool, np.ndarray | None]:
    """Exact-feasibility oracle: the linear system built per stack, the unit
    sum first, then the real and the imaginary parts of each nontrivial
    block pi(g)^dagger, row-major.  Returns ``(feasible, witness)``."""
    sup = sorted(set(int(g) for g in support))
    rows = [np.ones((1, len(sup)))]
    for stack in [table.stacks[0][1:], *table.stacks[1:]]:  # the trivial irrep is first
        k, d = len(stack), stack.shape[2]
        adjoint = stack[:, sup].conj().transpose(0, 3, 2, 1).reshape(k, d * d, len(sup))
        rows.append(np.concatenate([adjoint.real, adjoint.imag], axis=1).reshape(-1, len(sup)))
    mat = np.concatenate(rows)
    rhs = np.zeros(mat.shape[0])
    rhs[0] = 1.0
    sv = np.linalg.svd(mat, compute_uv=False)
    sv_aug = np.linalg.svd(np.column_stack([mat, rhs]), compute_uv=False)
    cutoff = 1e-9 * (sv_aug[0] if sv_aug.size else 1.0)
    if (sv_aug > cutoff).sum() > (sv > cutoff).sum():
        return False, None
    return True, np.linalg.lstsq(mat, rhs, rcond=None)[0]


def sgd_step_unrolled(model, x, y, lr: float) -> float:
    """SGD-step oracle for the d -> h1 -> h2 -> 1 network, its three layers
    spelled out: every gradient, then every weight update, then every bias
    update."""
    w0, w1, w2 = model.weights
    b0, b1, b2 = model.biases
    h1_pre = x @ w0 + b0
    h1 = np.maximum(h1_pre, 0.0)
    h2_pre = h1 @ w1 + b1
    h2 = np.maximum(h2_pre, 0.0)
    err = (h2 @ w2 + b2).ravel() - y
    loss = float((err**2).mean())
    grad_out = (2.0 / x.shape[0]) * err[:, None]
    gw2, gb2 = h2.T @ grad_out, grad_out.sum(axis=0)
    gh2 = (grad_out @ w2.T) * (h2_pre > 0.0)
    gw1, gb1 = h1.T @ gh2, gh2.sum(axis=0)
    gh1 = (gh2 @ w1.T) * (h1_pre > 0.0)
    gw0, gb0 = x.T @ gh1, gh1.sum(axis=0)
    for w, g in zip(model.weights, (gw0, gw1, gw2)):
        w -= lr * g
    for b, g in zip(model.biases, (gb0, gb1, gb2)):
        b -= lr * g
    return loss
