"""Surface gluings of trace words via the orientation double cover.

A trace word with r factors of letter counts (m_1, ..., m_r) is modelled
as r polygonal faces whose edges are the random-matrix letters, numbered
1..m across factors in word order.  A pairing of the letters glues the
edges in pairs; a glued edge is twisted when the two letters carry the
same transpose sign.  Since twisted gluings can produce non-orientable
surfaces, the corner bookkeeping happens on an orientable two-sheeted
cover, realized on the signed domain: +k is the front copy of letter k,
-k its back copy.

Permutation dictionary (all bijections of {-m..-1, 1..m}):

* ``front_rotation``  -- cycles the letters of each factor in word order
  on the positive half, fixing negatives.
* ``back_rotation``   -- the mirror rotation on the negative half:
  -k -> -(next letter of k's factor), fixing positives.
* ``sign_flip``       -- k -> -k everywhere (swaps the sheets).
* ``transpose_flip``  -- k -> epsilon(|k|) * k: swaps the sheets exactly
  at transposed letters.
* ``lift_pairing``    -- the pairing lifted to the cover, i.e. the product
  transpose_flip . pairing . sign_flip . pairing . transpose_flip with the
  pairing fixing negatives.  Closed form:
  k -> -sign(k) * eps(|k|) * eps(p(|k|)) * p(|k|).
* ``vertex_permutation`` -- back_rotation^-1 . lift_pairing . front_rotation.
  Its cycles walk the constant-matrix corners around each vertex of the
  glued surface, once per sheet, so they occur in mirror pairs: with
  (k_1, ..., k_s) the reversed-and-negated (-k_s, ..., -k_1) is a distinct
  cycle.
* ``particular_cycles`` -- one representative per mirror pair (the cycle
  whose smallest-absolute-value element is positive); this is the cycle
  set the trace formula consumes, with negative letters meaning
  transposed matrices.

``surface_census`` classifies the glued surface per connected component
(V - E + F and orientability) and reports the order exponent of the
corresponding term: a term with V vertices in total contributes at order
N^(V - m/2 - r) when the word is built from traces normalized by 1/N.
It reads everything off the vertex cycles.  Each factor has one face on
each sheet of the cover (2r sheet faces), and the corner +k (-k) lies on
the front (back) face of k's factor.  Consecutive corners of a vertex
cycle are joined by a lifted gluing, so their sheet faces lie in one
connected piece of the cover.  A component of the surface is the union
of a factor's front and back pieces, and it is orientable iff those two
pieces differ, i.e. the two sheets stay apart over it.

These functions work on one pairing at a time.  They are the readable
specification that the engine's chunked numpy kernel
(``engine._combinatorics``) is tested against, pairing by pairing; the
engine itself does not call them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .perm import Pairing, SignedPermutation, _UnionFind, cycles, signed_domain


class MirrorPropertyError(ValueError):
    """The vertex permutation's cycles failed to come in mirror pairs.

    This can only happen when the input was not produced by
    ``vertex_permutation``; it signals a caller bug, not bad data.
    """


@dataclass(frozen=True)
class WordShape:
    """Combinatorial skeleton of a trace word.

    ``lengths``  -- number of random-matrix letters per trace factor;
    ``epsilon``  -- +1 for a plain letter, -1 for a transposed one,
                    indexed by letter 1..m (stored 0-based);
    ``labels``   -- matrix-family name per letter, for the several-matrix
                    model (a single family is the common case).
    """

    lengths: tuple[int, ...]
    epsilon: tuple[int, ...] = ()
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        lengths = tuple(self.lengths)
        m = sum(lengths)
        if any(l < 1 for l in lengths):
            raise ValueError(f"every factor needs at least one letter: {lengths}")
        eps = tuple(self.epsilon) if self.epsilon else (1,) * m
        labels = tuple(self.labels) if self.labels else ("X",) * m
        if len(eps) != m or any(e not in (-1, 1) for e in eps):
            raise ValueError("epsilon must assign +1 or -1 to each of the m letters")
        if len(labels) != m:
            raise ValueError("labels must name each of the m letters")
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def alternating(cls, lengths: Sequence[int], labels: tuple[str, ...] = ()) -> "WordShape":
        """The classical Wishart word: factors of even length, letters
        alternating transposed/plain starting with a transpose.

        >>> WordShape.alternating((2,)).epsilon
        (-1, 1)
        """
        lengths = tuple(lengths)
        if any(l % 2 for l in lengths):
            raise ValueError("alternating words need even factor lengths")
        eps = tuple(-1 if k % 2 else 1 for k in range(1, sum(lengths) + 1))
        return cls(lengths, eps, labels)

    @property
    def m(self) -> int:
        return sum(self.lengths)

    @property
    def r(self) -> int:
        return len(self.lengths)

    def factor_ranges(self) -> tuple[tuple[int, int], ...]:
        """Per factor, the (first, last) letter indices, 1-based inclusive."""
        out = []
        start = 1
        for length in self.lengths:
            out.append((start, start + length - 1))
            start += length
        return tuple(out)


def _rotation_arrays(lengths: Sequence[int]) -> tuple[list[int], list[int]]:
    """(gamma, gamma_inv) on letters, 1-indexed arrays of length m+1."""
    m = sum(lengths)
    gamma = [0] * (m + 1)
    start = 1
    for length in lengths:
        for k in range(start, start + length - 1):
            gamma[k] = k + 1
        gamma[start + length - 1] = start
        start += length
    gamma_inv = [0] * (m + 1)
    for k in range(1, m + 1):
        gamma_inv[gamma[k]] = k
    return gamma, gamma_inv


def front_rotation(shape: WordShape) -> SignedPermutation:
    """Factor rotation on positive letters: (1..m_1)(m_1+1..m_1+m_2)...

    Fixes the negative half; restricted to positives this is the face
    permutation of the glued surface.
    """
    gamma, _ = _rotation_arrays(shape.lengths)
    m = shape.m
    return SignedPermutation(
        m, tuple(range(-m, 0)) + tuple(gamma[k] for k in range(1, m + 1))
    )


def back_rotation(shape: WordShape) -> SignedPermutation:
    """Mirror rotation on the negative half: -k -> -gamma(k), fixing positives.

    Equals sign_flip * front_rotation * sign_flip.
    """
    gamma, _ = _rotation_arrays(shape.lengths)
    m = shape.m
    return SignedPermutation(
        m, tuple(-gamma[-k] for k in range(-m, 0)) + tuple(range(1, m + 1))
    )


def sign_flip(m: int) -> SignedPermutation:
    """The involution k -> -k."""
    return SignedPermutation(
        m, tuple(-k for k in range(-m, 0)) + tuple(-k for k in range(1, m + 1))
    )


def transpose_flip(shape: WordShape) -> SignedPermutation:
    """Sign-flips exactly the transposed letters: k -> epsilon(|k|) * k.

    >>> transpose_flip(WordShape.alternating((2,)))(1)
    -1
    >>> transpose_flip(WordShape.alternating((2,)))(2)
    2
    """
    eps = shape.epsilon
    m = shape.m
    return SignedPermutation(
        m,
        tuple(eps[-k - 1] * k for k in range(-m, 0))
        + tuple(eps[k - 1] * k for k in range(1, m + 1)),
    )


def _eps_from_flip(flip: SignedPermutation) -> list[int]:
    eps = [0] * (flip.m + 1)
    for k in range(1, flip.m + 1):
        v = flip(k)
        if abs(v) != k:
            raise ValueError("transpose flip must map each k to +k or -k")
        eps[k] = 1 if v > 0 else -1
    return eps


def lift_pairing(p: Pairing, flip: SignedPermutation) -> SignedPermutation:
    """Lift a letter pairing to the double cover.

    Returns the product flip . p . sign_flip . p . flip (p fixing the
    negatives), a fixed-point-free involution t with |t(k)| = p(|k|) that
    commutes with the global sign flip.  A block {k, l} whose letters
    carry opposite transpose signs lifts untwisted (front glues to front);
    equal signs lift twisted (front glues to back).

    >>> p = Pairing.from_blocks(2, [(1, 2)])
    >>> lift_pairing(p, SignedPermutation.identity(2))(1)
    -2
    """
    if p.m != flip.m:
        raise ValueError(f"domain mismatch: pairing m={p.m}, flip m={flip.m}")
    m = p.m
    eps = _eps_from_flip(flip)
    partner = p.partner

    def image(k: int) -> int:
        l = partner[abs(k) - 1]
        sign = -1 if k > 0 else 1
        return sign * eps[abs(k)] * eps[l] * l

    return SignedPermutation(m, tuple(image(k) for k in signed_domain(m)))


def vertex_permutation(p: Pairing, shape: WordShape) -> SignedPermutation:
    """back_rotation^-1 . lift_pairing . front_rotation for the word's flip.

    Its cycle list is closed under reverse-and-negate, with each mirror
    pair distinct; the particular representatives enumerate the matrix
    subscripts around each vertex of the glued surface (negatives meaning
    transposes).
    """
    if p.m != shape.m:
        raise ValueError(f"domain mismatch: pairing m={p.m}, word m={shape.m}")
    m = shape.m
    gamma, gamma_inv = _rotation_arrays(shape.lengths)
    eps = [0] + list(shape.epsilon)
    partner = p.partner
    return SignedPermutation(
        m, tuple(_vertex_image(k, partner, eps, gamma, gamma_inv) for k in signed_domain(m))
    )


def _vertex_image(
    k: int, partner: tuple[int, ...], eps: list[int], gamma: list[int], gamma_inv: list[int]
) -> int:
    a = gamma[k] if k > 0 else k
    l = partner[abs(a) - 1]
    sign = -1 if a > 0 else 1
    b = sign * eps[abs(a)] * eps[l] * l
    return b if b > 0 else -gamma_inv[-b]


def particular_cycles(v: SignedPermutation) -> tuple[tuple[int, ...], ...]:
    """One cycle from each mirror pair: those whose smallest-absolute-value
    element is positive.

    Raises :class:`MirrorPropertyError` if the cycles of ``v`` do not come
    in distinct reverse-negated pairs, which means ``v`` was not a vertex
    permutation.  The cycle list is closed under reverse-and-negate iff
    v(-v(k)) = -k for every k; a cycle that is its own mirror is the only
    way to have more than half of the cycles chosen.
    """
    all_cycles = cycles(v)
    chosen = tuple(c for c in all_cycles if c[0] > 0)
    if 2 * len(chosen) != len(all_cycles):
        raise MirrorPropertyError("cycle count is not twice the particular count")
    for k in v.domain():
        if v(-v(k)) != -k:
            raise MirrorPropertyError(f"the cycle through {k} has no mirror partner")
    return chosen


@dataclass(frozen=True)
class ComponentSurface:
    """One connected component of the glued surface."""

    factors: tuple[int, ...]
    vertices: int
    edges: int
    faces: int
    orientable: bool

    @property
    def chi(self) -> int:
        return self.vertices - self.edges + self.faces

    @property
    def genus(self) -> Optional[int]:
        """Genus when orientable (0 for the sphere), else None."""
        return (2 - self.chi) // 2 if self.orientable else None

    @property
    def cross_caps(self) -> Optional[int]:
        """Cross-cap count when non-orientable, else None."""
        return None if self.orientable else 2 - self.chi

    @property
    def is_sphere(self) -> bool:
        return self.chi == 2

    @property
    def classification(self) -> str:
        if self.is_sphere:
            return "sphere"
        if self.orientable:
            return f"genus-{self.genus}"
        return f"crosscap-{self.cross_caps}"


@dataclass(frozen=True)
class SurfaceReport:
    """Per-component census of one pairing's glued surface.

    ``order_exponent`` is the power of N carried by the corresponding
    term when the word uses normalized traces; adding r gives the
    unnormalized-trace equivalent.
    """

    components: tuple[ComponentSurface, ...]
    order_exponent: int

    @property
    def vertex_count(self) -> int:
        return sum(c.vertices for c in self.components)

    @property
    def connected(self) -> bool:
        return len(self.components) == 1

    @property
    def all_spheres(self) -> bool:
        return all(c.is_sphere for c in self.components)

    @property
    def chi_list(self) -> tuple[int, ...]:
        return tuple(c.chi for c in self.components)


def surface_census(p: Pairing, shape: WordShape) -> SurfaceReport:
    """Classify the surface glued by ``p`` on the faces of ``shape``.

    Union-find over the 2r sheet faces (node f is factor f's face on the
    front sheet, node f + r its face on the back sheet): consecutive
    corners x, y of each particular cycle join the sheet faces of x and
    y, and their mirrors join those of -x and -y.  A component is the set
    of factors whose front and back classes meet, listed by its smallest
    factor.  Per component: F counts its faces (trace factors), E its
    glued edges (pairing blocks), V the particular vertex cycles starting
    there.  It is orientable iff its front and back faces stay in
    different classes.
    """
    if p.m != shape.m:
        raise ValueError(f"domain mismatch: pairing m={p.m}, word m={shape.m}")
    m, r = shape.m, shape.r
    particular = particular_cycles(vertex_permutation(p, shape))
    ranges = shape.factor_ranges()
    # Sheet face of the corner k, indexed by slot k + m (slots 0..2m).
    face = [0] * (2 * m + 1)
    for f, (a, b) in enumerate(ranges):
        for k in range(a, b + 1):
            face[m + k] = f
            face[m - k] = f + r

    sheets = _UnionFind(range(2 * r))
    for cyc in particular:
        x = cyc[-1]
        for y in cyc:
            sheets.union(face[m + x], face[m + y])
            sheets.union(face[m - x], face[m - y])
            x = y

    # The classes come in mirror pairs, so two factors' {front, back}
    # class pairs are equal or disjoint, and the smaller root names one.
    component_of = [min(sheets.find(f), sheets.find(f + r)) for f in range(r)]
    orientable = {c: sheets.find(f) != sheets.find(f + r) for f, c in enumerate(component_of)}
    vertex_in = dict.fromkeys(component_of, 0)
    for cyc in particular:
        vertex_in[component_of[face[m + abs(cyc[0])]]] += 1
    return _assemble_surface(shape.lengths, component_of, orientable, vertex_in)


def _assemble_surface(lengths: Sequence[int], component_of, orientable, vertices) -> SurfaceReport:
    """The census of a word with these factor lengths from the component
    label c of each (0-based) factor f, ``component_of[f]``, and each
    component's ``orientable[c]`` and particular vertex count
    ``vertices[c]``; the engine's kernel builds its census here too.
    Components are listed by their smallest factor."""
    members: dict[int, list[int]] = {}
    for f, c in enumerate(component_of):
        members.setdefault(c, []).append(f)
    components = tuple(
        ComponentSurface(
            factors=tuple(f + 1 for f in factors),
            vertices=vertices[c],
            edges=sum(lengths[f] for f in factors) // 2,
            faces=len(factors),
            orientable=bool(orientable[c]),
        )
        for c, factors in members.items()
    )
    return SurfaceReport(
        components, sum(c.vertices for c in components) - sum(lengths) // 2 - len(lengths)
    )


def slot_dimensions(shape: WordShape, n_dim: int, m_dim: int) -> tuple[tuple[int, int], ...]:
    """Required (rows, cols) of each constant-matrix slot.

    The random letter X is m_dim x n_dim.  Slot k sits between letter k
    and the next letter of its factor, so its row count matches the
    output side of letter k (n_dim for a plain letter, m_dim for a
    transposed one) and its column count matches the input side of the
    following letter.  For the alternating word this gives the familiar
    m_dim x m_dim / n_dim x n_dim profile on odd/even slots.
    """
    gamma, _ = _rotation_arrays(shape.lengths)
    eps = [0] + list(shape.epsilon)
    out = []
    for k in range(1, shape.m + 1):
        rows = n_dim if eps[k] == 1 else m_dim
        cols = m_dim if eps[gamma[k]] == 1 else n_dim
        out.append((rows, cols))
    return tuple(out)
