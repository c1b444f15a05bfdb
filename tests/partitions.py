"""Set partitions of the factors, for the moment-cumulant inversion tests."""

from typing import Iterator


def set_partitions(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All partitions of [1..n] via restricted-growth strings, each as its
    blocks ordered by first element, elements increasing.

    >>> sum(1 for _ in set_partitions(3))
    5
    >>> next(set_partitions(2))
    ((1, 2),)
    """
    prefix: list[int] = []

    def rec(used: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if len(prefix) == n:
            blocks: list[list[int]] = [[] for _ in range(used)]
            for e, b in enumerate(prefix, start=1):
                blocks[b].append(e)
            yield tuple(tuple(b) for b in blocks)
            return
        for b in range(used + 1):
            prefix.append(b)
            yield from rec(max(used, b + 1))
            prefix.pop()

    yield from rec(0)
