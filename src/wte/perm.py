"""Signed-domain permutation arithmetic, pairing enumeration, and orbits.

Everything downstream runs on the signed index set {-m, ..., -1, 1, ..., m}
(zero excluded): +k is the "front" copy of letter k and -k its "back"
copy on the orientation double cover.  A :class:`SignedPermutation` is an
arbitrary bijection of that set.  Purely positive permutations (factor
rotations, pairings) embed into it by fixing the negative half.

Canonical forms are load-bearing: pairing enumeration order fixes term
indices across runs, and the cycle canonical form (rotate each cycle so
its element of smallest absolute value comes first, positive preferred
when both signs occur; sort cycles by that leading element) keeps golden
output stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union


def _slot(k: int, m: int) -> int:
    """Array slot of signed element k: -m..-1 map to 0..m-1, 1..m to m..2m-1."""
    return k + m if k < 0 else k + m - 1


def signed_domain(m: int) -> tuple[int, ...]:
    """The signed index set in slot order: (-m, ..., -1, 1, ..., m)."""
    return tuple(range(-m, 0)) + tuple(range(1, m + 1))


@dataclass(frozen=True)
class SignedPermutation:
    """A bijection of {-m, ..., -1, 1, ..., m}, stored as a total image map.

    ``images[i]`` is the image of the element occupying slot ``i`` (slots
    run -m..-1 then 1..m).  Instances are immutable and safe to share.
    """

    m: int
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError(f"half-domain size must be >= 0, got {self.m}")
        dom = signed_domain(self.m)
        if len(self.images) != 2 * self.m:
            raise ValueError(
                f"expected {2 * self.m} images for m={self.m}, got {len(self.images)}"
            )
        if sorted(self.images) != list(dom):
            raise ValueError("images do not form a bijection of the signed domain")

    @classmethod
    def identity(cls, m: int) -> "SignedPermutation":
        return cls(m, signed_domain(m))

    @classmethod
    def from_cycles(cls, m: int, cycles: Iterable[Sequence[int]]) -> "SignedPermutation":
        """Build from disjoint cycles over the signed domain; others fixed.

        >>> SignedPermutation.from_cycles(2, [(1, 2)])(1)
        2
        >>> SignedPermutation.from_cycles(2, [(1, 2)])(-1)
        -1
        """
        images = list(signed_domain(m))
        moved: set[int] = set()
        for cyc in cycles:
            for a, b in zip(cyc, tuple(cyc[1:]) + (cyc[0],)):
                if a in moved:
                    raise ValueError(f"element {a} appears in more than one cycle")
                moved.add(a)
                images[_slot(a, m)] = b
        return cls(m, tuple(images))

    def __call__(self, k: int) -> int:
        return self.images[_slot(k, self.m)]

    def domain(self) -> tuple[int, ...]:
        return signed_domain(self.m)

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        return compose(self, other)


def compose(s: SignedPermutation, t: SignedPermutation) -> SignedPermutation:
    """Right-to-left product: (s*t)(k) = s(t(k)).

    >>> s = SignedPermutation.from_cycles(2, [(1, 2)])
    >>> compose(s, SignedPermutation.identity(2)) == s
    True
    """
    if s.m != t.m:
        raise ValueError(f"half-domain sizes differ: {s.m} != {t.m}")
    m = s.m
    s_img = s.images
    return SignedPermutation(m, tuple(s_img[_slot(v, m)] for v in t.images))


def inverse(s: SignedPermutation) -> SignedPermutation:
    m = s.m
    images = [0] * (2 * m)
    for i, v in enumerate(s.images):
        k = i - m if i < m else i - m + 1
        images[_slot(v, m)] = k
    return SignedPermutation(m, tuple(images))


def cycles(s: SignedPermutation) -> tuple[tuple[int, ...], ...]:
    """Canonical cycle decomposition, fixed points included.

    Each cycle is rotated so its element of smallest absolute value comes
    first (positive preferred if both k and -k lie in the cycle); cycles
    are sorted by (|leading|, sign of leading).  The scan visits leads in
    exactly that order, 1, -1, 2, -2, ..., so each new cycle is walked
    from its least element and found after every cycle with a smaller
    one.

    >>> cycles(SignedPermutation.identity(1))
    ((1,), (-1,))
    """
    m = s.m
    seen = [False] * (2 * m)
    out = []
    for start in range(1, m + 1):
        for lead in (start, -start):
            i = _slot(lead, m)
            if seen[i]:
                continue
            cyc = []
            k = lead
            while True:
                j = _slot(k, m)
                if seen[j]:
                    break
                seen[j] = True
                cyc.append(k)
                k = s.images[j]
            out.append(tuple(cyc))
    return tuple(out)


def cycle_string(cyc_list: Iterable[Sequence[int]]) -> str:
    """Render cycles as e.g. ``(1,-9)(-1,9)(2,7)``."""
    return "".join("(" + ",".join(str(k) for k in c) + ")" for c in cyc_list)


@dataclass(frozen=True)
class Pairing:
    """A fixed-point-free involution of {1, ..., m} (m even): one Wick term.

    ``partner`` is 1-indexed via ``partner[k - 1]``.
    """

    m: int
    partner: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.m % 2:
            raise ValueError(f"pairings need an even ground set, got m={self.m}")
        if len(self.partner) != self.m:
            raise ValueError("partner map has wrong length")
        for k in range(1, self.m + 1):
            p = self.partner[k - 1]
            if not 1 <= p <= self.m or p == k or self.partner[p - 1] != k:
                raise ValueError("partner map is not a fixed-point-free involution")

    @classmethod
    def from_blocks(cls, m: int, blocks: Iterable[Sequence[int]]) -> "Pairing":
        partner = [0] * m
        for a, b in blocks:
            partner[a - 1] = b
            partner[b - 1] = a
        return cls(m, tuple(partner))

    def __call__(self, k: int) -> int:
        return self.partner[k - 1]

    def blocks(self) -> tuple[tuple[int, int], ...]:
        """Blocks as (min, max) pairs sorted by first element."""
        return tuple(
            (k, self.partner[k - 1])
            for k in range(1, self.m + 1)
            if k < self.partner[k - 1]
        )


def pairing_count(m: int) -> int:
    """(m-1)!! for even m, the number of pairings; 0 for odd m, 1 for m=0."""
    if m % 2:
        return 0
    count = 1
    for k in range(m - 1, 0, -2):
        count *= k
    return count


def enumerate_pairings(m: int) -> Iterator[Pairing]:
    """All pairings of [m] in canonical order.

    The smallest unpaired element is paired with each larger unpaired
    element in increasing order, recursively; this yields exactly
    (m-1)!! pairings and fixes the term indexing used everywhere.
    Odd m yields nothing; m = 0 yields the single empty pairing.

    >>> [p.blocks() for p in enumerate_pairings(4)][:2]
    [((1, 2), (3, 4)), ((1, 3), (2, 4))]
    """
    if m % 2:
        return
    partner = [0] * m

    def rec(avail: tuple[int, ...]) -> Iterator[Pairing]:
        if not avail:
            yield Pairing(m, tuple(partner))
            return
        a = avail[0]
        for i in range(1, len(avail)):
            b = avail[i]
            partner[a - 1] = b
            partner[b - 1] = a
            yield from rec(avail[1:i] + avail[i + 1 :])
        partner[a - 1] = 0

    yield from rec(tuple(range(1, m + 1)))


def crossings(p: Pairing) -> int:
    """Number of interleaved block pairs {i,j}, {k,l} with i < k < j < l.

    >>> crossings(Pairing.from_blocks(4, [(1, 3), (2, 4)]))
    1
    """
    blocks = p.blocks()
    n = 0
    for x in range(len(blocks)):
        i, j = blocks[x]
        for y in range(x + 1, len(blocks)):
            k, l = blocks[y]
            if i < k < j < l or k < i < l < j:
                n += 1
    return n


class _UnionFind:
    def __init__(self, elements: Iterable[int]):
        self.parent = {x: x for x in elements}

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


Generator = Union[SignedPermutation, Pairing]


def orbits(
    generators: Iterable[Generator], domain: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """Orbits of the group generated by ``generators`` on ``domain``.

    Computed by union-find over generator images; pairings act on positive
    elements only and fix everything else.  Orbits are listed by their
    first element in ``domain``, each in ``domain`` order.

    >>> orbits([Pairing.from_blocks(2, [(1, 2)])], (1, 2, -1))
    ((1, 2), (-1,))
    """
    uf = _UnionFind(domain)
    dom = set(domain)
    for g in generators:
        for x in domain:
            if isinstance(g, Pairing):
                y = g(x) if 1 <= x <= g.m else x
            else:
                y = g(x)
            if y not in dom:
                raise ValueError(f"generator maps {x} outside the domain")
            uf.union(x, y)
    blocks: dict[int, list[int]] = {}
    for x in domain:
        blocks.setdefault(uf.find(x), []).append(x)
    return tuple(tuple(b) for b in blocks.values())
