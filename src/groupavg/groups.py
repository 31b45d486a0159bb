"""Finite groups on dense indices, in closed form or as index tables.

Elements are dense indices ``0..order-1`` with the identity pinned at
index 0; every higher layer of the toolkit speaks indices only and reads
products through :meth:`Group.product`.  Built-in families: cyclic,
sign_flip (bit vectors under xor), dihedral, symmetric, and direct
products; arbitrary multiplication tables are accepted as the ``custom``
family.  Cyclic and sign-flip groups are closed form: their |G| x |G|
table is built, and proved, only when something reads ``Group.mult``.
Dihedral, symmetric, product and custom groups hold their table.  A group
also keeps the ``(order, generators)`` products of every element with each
generator, the one table an exact signed homomorphism check gathers from,
and the ``(order, basis)`` products with its word basis, which every float
check of a representation over the group shares.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate, chain, permutations as _iter_permutations
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import MEMORY_CAP_BYTES, SizeLimitError, UsageError, check_bytes

# a product nested d deep has at least d + 1 factors, so without order-1
# factors its order is at least 2**(d + 1): the table cap (order <= 7327)
# has room for d <= 11
PRODUCT_MAX_DEPTH = 11
_BLOCK_ENTRIES = 1 << 20  # table or power-orbit entries built per block


class Group:
    """Finite group on indices, given by a multiplication table or in closed form.

    Parameters
    ----------
    mult : (order, order) integer array, or None
        ``mult[a, b]`` is the index of the product ``a * b``.  Row and
        column 0 must realize the identity.  None for a closed form.
    labels : sequence of str
        Human-readable element names, one per index.
    family : str
        One of ``cyclic, sign_flip, dihedral, symmetric, product, custom``.
    params : tuple of int
        Family parameters (``(n,)``, ``(d,)``, factor orders for products,
        empty for custom).
    factors : optional pair of Group
        The two factors when ``family == "product"``.
    product, inv : optional
        A closed form: ``product(a, b)`` gives ``a * b`` elementwise over
        index arrays, broadcast as numpy does, and ``inv`` every element's
        inverse; the order is then the number of labels.

    ``generators`` holds at most ``log2(order)`` elements that generate
    the group, found and checked by :meth:`validate` on construction.
    Products are read through :meth:`product` and inverses from ``inv``,
    both over index arrays; powers come from :func:`power_table`.

    A table takes ``order**2`` int64 entries.  A closed-form group (the
    cyclic and sign-flip families) holds none until ``mult`` is read: its
    construction costs O(order * generators) through ``product``, and the
    first read builds and proves the table.  The family constructors
    refuse every order whose table build would pass
    ``MEMORY_CAP_BYTES``, closed forms included.
    """

    def __init__(self, mult, labels, family, params, factors=None, product=None, inv=None):
        self._closed, self._mult = product, None
        if product is None:
            self._mult = np.ascontiguousarray(mult, dtype=np.int64)
            if self._mult.ndim != 2 or self._mult.shape[0] != self._mult.shape[1]:
                raise UsageError("multiplication table must be square")
        self.order = len(labels) if product is not None else int(self._mult.shape[0])
        if self.order < 1:
            raise UsageError("group must be nonempty")
        self.labels = [str(x) for x in labels]
        if len(self.labels) != self.order:
            raise UsageError("labels length must equal group order")
        self.family = str(family)
        self.params = tuple(int(p) for p in params)
        self.factors = factors
        self.identity = 0
        self.inv = np.argmax(self._mult == 0, axis=1).astype(np.int64) if inv is None else inv
        self._label_index = {lab: i for i, lab in enumerate(self.labels)}
        self._word_basis = None
        self.validate()

    # -- basic queries ---------------------------------------------------

    @property
    def mult(self) -> np.ndarray:
        """The ``(order, order)`` table.  A closed form builds it from
        :meth:`product` on first read and proves it there with the checks
        :meth:`validate` makes on a table alone, range and Light's test; a
        table that fails is refused and not kept."""
        if self._mult is None:
            idx = np.arange(self.order)
            table = np.ascontiguousarray(self.product(idx[:, None], idx), dtype=np.int64)
            if table.min() < 0 or table.max() >= self.order:
                raise UsageError("table entries out of range")
            _light_test(table, self.generators)
            self._mult = table
        return self._mult

    def product(self, a, b):
        """Index of ``a * b`` elementwise over index arrays or ints, broadcast
        as numpy does: the closed form, or a gather from the table."""
        return self._mult[a, b] if self._closed is None else self._closed(a, b)

    def __len__(self) -> int:
        return self.order

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Group)
            and self.order == other.order
            and np.array_equal(self.mult, other.mult)
        )

    def __hash__(self) -> int:
        """From the square of every element, which equal tables share."""
        idx = np.arange(self.order)
        return hash((self.order, self.product(idx, idx).tobytes()))

    def __repr__(self) -> str:
        return f"Group({group_spec_string(self)}, order={self.order})"

    @property
    def is_abelian(self) -> bool:
        """Whether the generators commute pairwise, as every pair of elements
        then does: O(generators**2) products, no table."""
        gens = np.array(self.generators, dtype=np.int64)
        ab = self.product(gens[:, None], gens)
        return bool(np.array_equal(ab, ab.T))

    def index_of_label(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise UsageError(f"unknown element label {label!r}") from None

    # -- validation ------------------------------------------------------

    def validate(self) -> None:
        """Prove the group axioms exactly and set ``generators``.

        Range, two-sided identity at 0 and two-sided inverses, each one
        pass of :meth:`product`, then greedy generators (each the smallest
        element not yet generated) and :func:`_light_test` on them.  A
        monoid with two-sided inverses is a group.  A closed form has no
        table to range-check or test yet; the first read of ``mult`` does.
        """
        m, n = self._mult, self.order
        if m is not None and (m.min() < 0 or m.max() >= n):
            raise UsageError("table entries out of range")
        idx = np.arange(n)
        if not (np.array_equal(self.product(0, idx), idx) and np.array_equal(self.product(idx, 0), idx)):
            raise UsageError("index 0 is not a two-sided identity")
        if np.any(self.product(idx, self.inv)) or np.any(self.product(self.inv, idx)):
            raise UsageError("inverse table inconsistent")
        generators: list[int] = []
        generated = idx == 0
        while not generated.all():
            generators.append(int(np.argmin(generated)))
            generated, _ = _generated(self, generators)
        self.generators = tuple(generators)
        if m is not None:
            _light_test(m, self.generators)

    @functools.cached_property
    def _generator_products(self) -> np.ndarray:
        """``(order, generators)`` products g*s of every element g and
        generator s, made on first read."""
        return self.product(np.arange(self.order)[:, None], np.array(self.generators, dtype=np.int64))

    def word_basis(self) -> tuple[tuple[int, ...], int]:
        """Each generator's repeated squares s, s**2, s**4, ... below its
        order, and the depth: every element is a product of at most
        ``depth`` basis elements, found breadth first.

        The squares are rows of one period of the generators'
        :func:`power_table`, whose length is a multiple of each generator's
        order: that length over the count of the generator's identity rows.

        The basis pairs bound every pair of a float homomorphism check.
        With D(g, h) = rho(g h) - rho(g) rho(h) and rho(e) = I exactly,
        D(g, h' t) = D(g h', t) + D(g, h') rho(t) - rho(g) D(h', t).  If
        every ||rho(g)|| <= sigma and every basis pair (g, t) deviates by at
        most delta, each step of a breadth-first word adds at most
        (1 + sigma) * delta and multiplies the earlier deviation by at most
        sigma, so every pair deviates by at most
        depth * (1 + sigma) * sigma**(depth - 1) * delta.
        """
        if self._word_basis is None:
            powers = power_table(self, np.array(self.generators, dtype=np.int64))
            orders = len(powers) // np.count_nonzero(powers == 0, axis=0)
            squares = (int(powers[1 << j, i]) for i, order in enumerate(orders.tolist())
                       for j in range((order - 1).bit_length()))  # 2**j < order
            basis = tuple(dict.fromkeys(squares))
            self._word_basis = (basis, _generated(self, list(basis))[1])
        return self._word_basis

    @functools.cached_property
    def _word_products(self) -> np.ndarray:
        """``(order, len(basis))`` products g*t of every element g and
        :meth:`word_basis` element t, made on first read: every float
        homomorphism check over this group gathers from it."""
        basis = np.array(self.word_basis()[0], dtype=np.int64)
        return self.product(np.arange(self.order)[:, None], basis)


@dataclass(frozen=True)
class ConjugacyPartition:
    """Partition of element indices into conjugacy classes, as int64 arrays.

    Classes are ordered by their minimal element, which is also the
    stored representative: ``representatives`` increases.  ``sizes[c]``
    counts class c and ``class_of[g]`` maps an element to its class.
    """

    representatives: np.ndarray
    sizes: np.ndarray
    class_of: np.ndarray

    def __len__(self) -> int:
        return len(self.representatives)


# -- constructors ---------------------------------------------------------


def _check_table_size(order: int) -> None:
    """Refuse a table over ``MEMORY_CAP_BYTES`` (2 GiB: order <= 7327).
    40 bytes per entry is the measured peak RSS of a build over order**2.
    An order past 2**64 is named only as that, so no huge integer is printed."""
    if order > 1 << 64:
        raise SizeLimitError(f"group table of order above 2**64 is far above the cap of "
                             f"{MEMORY_CAP_BYTES:,} bytes")
    check_bytes(order**2 * 40, f"group table of order {order:,} needs", "order**2 * 40")


def cyclic_group(n: int) -> Group:
    """Integers mod n under addition; element index == residue."""
    if n < 1:
        raise UsageError(f"cyclic group needs n >= 1, got {n}")
    _check_table_size(n)
    return Group(None, [str(i) for i in range(n)], "cyclic", (n,),
                 product=lambda a, b: (a + b) % n, inv=-np.arange(n) % n)


def sign_flip_group(d: int) -> Group:
    """Bit vectors of length d under xor, ordered by binary value.

    Element labels are the d-character bit strings; character i of the
    label corresponds to coordinate i of the flip action.
    """
    if d < 1:
        raise UsageError(f"sign-flip group needs d >= 1, got {d}")
    _check_table_size(family_order("sign_flip", d))
    labels = [format(x, f"0{d}b") for x in range(1 << d)]
    return Group(None, labels, "sign_flip", (d,), product=np.bitwise_xor, inv=np.arange(1 << d))


def dihedral_group(n: int) -> Group:
    """Symmetries of a regular n-gon, order 2n, rotations first.

    Index ``a`` (a < n) is the rotation r^a, index ``n + a`` is the
    reflection r^a s, with the relation s r = r^{-1} s.
    """
    if n < 3:
        raise UsageError(f"dihedral group needs n >= 3, got {n}")
    _check_table_size(2 * n)
    order = 2 * n
    a = np.arange(order) % n
    b = np.arange(order) // n
    sgn = np.where(b == 1, -1, 1)
    a_out = (a[:, None] + sgn[:, None] * a[None, :]) % n
    b_out = (b[:, None] + b[None, :]) % 2
    mult = a_out + n * b_out
    labels = [f"r{i}" for i in range(n)] + [f"r{i}s" for i in range(n)]
    return Group(mult, labels, "dihedral", (n,))


def symmetric_permutations(d: int) -> np.ndarray:
    """All permutations of range(d) in lexicographic one-line order, the
    order ``itertools.permutations`` yields, as the rows of an array."""
    flat = chain.from_iterable(_iter_permutations(range(d)))
    return np.fromiter(flat, dtype=np.int64, count=d * math.factorial(d)).reshape(-1, d)


def symmetric_group(d: int) -> Group:
    """Permutations of d points under composition, lexicographic order.

    Composition convention: ``(sigma * tau)(x) = sigma(tau(x))``, so the
    table row is the outer permutation.  A permutation's code is its
    one-line form read as a base-d number, which lexicographic order
    sorts; the table maps the codes of all composites to ranks through
    one lookup array of d**d entries.
    """
    if d < 1:
        raise UsageError(f"symmetric group needs d >= 1, got {d}")
    _check_table_size(family_order("symmetric", d))
    perms = symmetric_permutations(d)
    n = perms.shape[0]
    place = d ** np.arange(d - 1, -1, -1, dtype=np.int64)
    rank_of_code = np.empty(d**d, dtype=np.int64)
    rank_of_code[perms @ place] = np.arange(n)
    # q[j, tau_j(x)] = d**(d-1-x), so (sigma @ q.T)[i, j] is the code of sigma_i o tau_j
    q = np.empty((n, d), dtype=np.int64)
    np.put_along_axis(q, perms, place[None, :], axis=1)
    mult = np.empty((n, n), dtype=np.int64)
    rows = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, n, rows):
        mult[start : start + rows] = rank_of_code[perms[start : start + rows] @ q.T]
    labels = ["".join(str(v) for v in p) for p in perms]
    return Group(mult, labels, "symmetric", (d,))


def product_group(g1: Group, g2: Group) -> Group:
    """Direct product with index packing ``(a, b) -> a * |G2| + b``, its
    table made from each factor's ``product``: a closed form builds none."""
    o1, o2 = g1.order, g2.order
    _check_table_size(o1 * o2)
    i1, i2 = np.arange(o1), np.arange(o2)
    t1, t2 = g1.product(i1[:, None], i1), g2.product(i2[:, None], i2)
    mult = (t1[:, None, :, None] * o2 + t2[None, :, None, :]).reshape(o1 * o2, o1 * o2)
    labels = [f"({g1.labels[x]},{g2.labels[y]})" for x in range(o1) for y in range(o2)]
    return Group(mult, labels, "product", (o1, o2), factors=(g1, g2))


def custom_group(mult) -> Group:
    """Group from a given multiplication table, validated as any other.

    The table's size is checked against the cap before ``Group`` builds
    its order**2 temporaries (the identity mask, Light's-test gathers).
    """
    try:
        mult = np.asarray(mult, dtype=np.int64)
    except (TypeError, ValueError):
        raise UsageError("multiplication table must be a square array of integers") from None
    _check_table_size(max(mult.shape, default=0))  # Group rejects a non-square table
    return Group(mult, [str(i) for i in range(mult.shape[0])], "custom", ())


# family -> (its spelling in a spec string, the order of family:p for p >= 0 without
# building it); sign-flip and symmetric orders stop at 2**65 and 21! (> 2**64), past every
# cap, with no huge shift.  No constructor: the tracer wraps module-level names alone
FAMILIES = {
    "cyclic": ("cyclic", lambda p: p),
    "sign_flip": ("signflip", lambda p: 1 << min(p, 65)),
    "dihedral": ("dihedral", lambda p: 2 * p),
    "symmetric": ("symmetric", lambda p: math.factorial(min(p, 21))),
}
_SPELLINGS = {name: family for family, (spec, _) in FAMILIES.items() for name in (family, spec)}


def _family(spelling: str) -> str:
    """The family a spec spells, blanks and case ignored; else the spelling lowercased."""
    name = spelling.strip().lower()
    return _SPELLINGS.get(name, name)


def family_order(family: str, p: int) -> Optional[int]:
    """Order of ``family:p`` (p >= 0), in any spelling a spec accepts, unbuilt; else None."""
    entry = FAMILIES.get(_family(family))
    return None if entry is None else entry[1](p)


# -- operations -----------------------------------------------------------


def conjugacy_classes(group: Group) -> ConjugacyPartition:
    """Conjugacy classes, ordered by minimal element index.

    An abelian group's classes are its elements.  Otherwise walks the
    smallest unclassed element g: one pass of s (g s^-1) over every s
    marks g's whole class, and g is that class's minimum since every
    smaller element is classed already.
    """
    inv, n, idx = group.inv, group.order, np.arange(group.order)
    if group.is_abelian:
        return ConjugacyPartition(idx, np.ones(n, dtype=np.int64), idx.copy())
    class_of = np.full(n, -1, dtype=np.int64)
    reps = []
    g = 0
    while g < n:
        class_of[group.product(idx, group.product(g, inv))] = len(reps)
        reps.append(g)
        g += int(np.argmax(class_of[g:] < 0)) or n - g  # 0: none left, g is classed
    return ConjugacyPartition(
        representatives=np.array(reps, dtype=np.int64),
        sizes=np.bincount(class_of),
        class_of=class_of,
    )


def power_table(group: Group, elements: np.ndarray, steps: Optional[int] = None) -> np.ndarray:
    """``out[j, i]`` = ``elements[i] ** j`` for j < steps; without ``steps``, for
    one period: j below the lcm of the orders, the first j > 0 with all identity."""
    rows = [np.zeros(len(elements), dtype=np.int64)]
    while steps is None or len(rows) < steps:
        rows.append(group.product(rows[-1], elements))
        if steps is None and not rows[-1].any():
            return np.array(rows[:-1])
    return np.array(rows[:steps])


def _light_test(mult: np.ndarray, generators) -> None:
    """Light's associativity test: (x*b)*y == x*(b*y) for all x, y at once,
    for each generator b in turn.  It gathers from a copy of the table in
    the narrowest unsigned type that holds its entries (uint8 up to order
    256), which moves a fraction of the int64 table's bytes and gives the
    same answer."""
    narrow = mult.astype(np.min_scalar_type(len(mult) - 1))
    for b in generators:
        if not np.array_equal(narrow[mult[:, b]], np.take(narrow, mult[b], axis=1)):
            raise UsageError(f"associativity fails at b={b}")


def _generated(group: Group, generators: list[int]) -> tuple[np.ndarray, int]:
    """Mask of the elements reached from the identity by right
    multiplication with ``generators``, breadth first, and the depth: the
    number of steps to the last element reached.

    Each step marks the frontier's products in a fresh mask and clears
    what was reached before, so the next frontier comes out sorted and
    without repeats, with no sort."""
    n = group.order
    gens = np.asarray(generators, dtype=np.int64)
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    depth = -1
    while frontier.size:
        new = np.zeros(n, dtype=bool)
        new[group.product(frontier[:, None], gens)] = True
        np.greater(new, reached, out=new)  # new and not reached
        frontier = np.flatnonzero(new)
        reached |= new
        depth += 1
    return reached, depth


def closure(group: Group, generators: Iterable[int]) -> list[int]:
    """Smallest subgroup containing the given elements.

    Contains the identity, is closed under products and inverses; in a
    finite group it is the set of products of generators.
    """
    gens = sorted(set(int(g) for g in generators))
    if not gens:
        raise UsageError("closure needs a nonempty generating set")
    if min(gens) < 0 or max(gens) >= group.order:
        raise UsageError("generator index out of range")
    return np.flatnonzero(_generated(group, gens)[0]).tolist()


def sample_uniform(group: Group, n: int, seed) -> np.ndarray:
    """n i.i.d. uniform element indices from a seeded generator, refused when
    the draws and their sort (19 bytes each measured) could pass the cap."""
    if n < 1:
        raise UsageError(f"sample count must be >= 1, got {n}")
    check_bytes(n * 24, f"{n:,} draws need", "draws * 24")
    rng = np.random.default_rng(seed)
    return rng.integers(0, group.order, size=int(n))


# -- serialization --------------------------------------------------------


def group_spec_string(group: Group) -> str:
    """Canonical spec string, parsable by :func:`parse_group_spec`."""
    if group.family in FAMILIES:
        return f"{FAMILIES[group.family][0]}:{group.params[0]}"
    if group.family == "product":
        f1, f2 = group.factors
        return f"product({group_spec_string(f1)},{group_spec_string(f2)})"
    return "custom"


def parse_group_spec(spec: str) -> Group:
    """Parse specs like ``cyclic:12``, ``signflip:6``, ``dihedral:7``,
    ``symmetric:4`` or ``product(cyclic:2,symmetric:3)``."""
    spec = spec.strip()
    nesting = max(accumulate((ch == "(") - (ch == ")") for ch in spec), default=0)
    if nesting > PRODUCT_MAX_DEPTH:  # refused before the parse recurses that deep
        raise SizeLimitError(f"group spec nests products {nesting} deep, above the limit of "
                             f"{PRODUCT_MAX_DEPTH} that the group table cap leaves room for")
    if spec.startswith("product(") and spec.endswith(")"):
        inner = spec[len("product(") : -1]
        depth, cut = 0, -1
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                cut = i
                break
        if cut < 0:
            raise UsageError(f"malformed product spec {spec!r}")
        return product_group(parse_group_spec(inner[:cut]), parse_group_spec(inner[cut + 1 :]))
    if ":" not in spec:
        raise UsageError(f"malformed group spec {spec!r}")
    family, _, param = spec.partition(":")
    family = _family(family)
    try:
        value = int(param)
    except ValueError:
        raise UsageError(f"non-integer parameter in group spec {spec!r}") from None
    if family == "cyclic":
        return cyclic_group(value)
    if family == "sign_flip":
        return sign_flip_group(value)
    if family == "dihedral":
        return dihedral_group(value)
    if family == "symmetric":
        return symmetric_group(value)
    raise UsageError(f"unknown group family {family!r}")


def group_to_text(group: Group) -> Iterator[str]:
    """Self-describing text format: the header line, then one chunk per
    table row, each read through its own ``tolist``."""
    if group.family == "product":
        param = group_spec_string(group)
    elif group.family == "custom":
        param = "-"
    else:
        param = str(group.params[0])
    yield f"group {group.family} {param} {group.order}\n"
    for row in group.mult:
        yield " ".join(map(str, row.tolist())) + "\n"


def _text_int(field: str, what: str) -> int:
    try:
        return int(field)
    except ValueError:
        raise UsageError(f"non-integer {what} {field!r} in group text") from None


def group_from_text(text: str) -> Group:
    """Inverse of :func:`group_to_text`; round-trip is exact."""
    lines = [ln.split() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or len(lines[0]) != 4 or lines[0][0] != "group":
        raise UsageError("malformed group header")
    _, family, param, order_s = lines[0]
    order = _text_int(order_s, "group order")
    if len(lines) != order + 1:
        raise UsageError("table row count does not match order")
    for i, row in enumerate(lines[1:]):
        if len(row) != order:
            raise UsageError(f"table row {i} has {len(row)} entries, expected {order}")
    mult = np.array([[_text_int(x, "table entry") for x in row] for row in lines[1:]],
                    dtype=np.int64)
    if family == "custom":
        return custom_group(mult)
    if family != "product":
        param = f"{family}:{_text_int(param, 'group parameter')}"
    rebuilt = parse_group_spec(param)
    if not np.array_equal(rebuilt.mult, mult):
        raise UsageError("serialized table disagrees with the named family")
    return rebuilt
