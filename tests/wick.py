"""The Wick expansion one index assignment at a time, for the oracle tests.

``wick_reference`` is the literal sum that ``wick_oracle`` evaluates in
array slices: for every pairing and every sign assignment of the Wigner
letters, one Python product of constant-matrix entries per index
assignment, in ``itertools.product`` order, summed left to right.  It
is the readable specification the oracle is checked against, exactly
in exact mode and bit for bit in float mode.
"""

import itertools
from fractions import Fraction

from wte.gluing import _rotation_arrays
from wte.oracles import _local_crossings
from wte.perm import enumerate_pairings


def wick_reference(spec, exact=True):
    shape = spec.shape
    m, r = shape.m, shape.r
    if m % 2:
        return Fraction(0) if exact else 0.0
    wigner_pos = tuple(
        k for k, lab in enumerate(shape.labels, start=1) if lab in spec.wigner
    )
    w = len(wigner_pos)

    entries = []
    for mat in spec.matrices:
        if exact:
            entries.append(mat.entries)
        else:
            entries.append(tuple(tuple(float(x) for x in row) for row in mat.entries))

    gamma, _ = _rotation_arrays(shape.lengths)
    assignments = list(itertools.product((1, -1), repeat=w))
    share = Fraction(1, 2**w) if exact else 0.5**w

    def eps_for(assign):
        eps = [0] + list(shape.epsilon)
        for pos, sign in zip(wigner_pos, assign):
            eps[pos] = sign
        return eps

    labels = shape.labels
    q = spec.q if exact and isinstance(spec.q, (int, Fraction)) else (
        Fraction(spec.q) if exact else float(spec.q)
    )

    index_pairs = list(itertools.product(range(spec.m_dim), range(spec.n_dim)))
    total = Fraction(0) if exact else 0.0

    for p in enumerate_pairings(m):
        blocks = p.blocks()
        weight = q ** _local_crossings(blocks)
        for a, b in blocks:
            g = spec.gram.value(labels[a - 1], labels[b - 1])
            weight = weight * (g if exact else float(g))
        if weight == 0:
            continue
        block_of = [0] * (m + 1)
        for bi, (a, b) in enumerate(blocks):
            block_of[a] = block_of[b] = bi

        for assign in assignments:
            eps = eps_for(assign)
            # Per letter: which block supplies each index of its slot's
            # entry, and whether that index is the shared row (in [m_dim])
            # or the shared column (in [n_dim]).
            plan = []
            for k in range(1, m + 1):
                j = gamma[k]
                plan.append(
                    (block_of[k], eps[k] == -1, block_of[j], eps[j] == 1, entries[k - 1])
                )
            acc = Fraction(0) if exact else 0.0
            for choice in itertools.product(index_pairs, repeat=len(blocks)):
                prod = 1
                for bf, first_row, bs, second_row, ent in plan:
                    c1 = choice[bf]
                    i1 = c1[0] if first_row else c1[1]
                    c2 = choice[bs]
                    i2 = c2[0] if second_row else c2[1]
                    prod = prod * ent[i1][i2]
                    if prod == 0:
                        break
                acc = acc + prod
            total = total + weight * share * acc

    if exact:
        return Fraction(total) / Fraction(spec.n_dim ** (m // 2 + r))
    return float(total) * float(spec.n_dim) ** (-(m // 2) - r)
