"""Small shared helpers used across the package.

Nothing here is part of the public API; import from the subpackages
instead.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")


def powerset(items: Iterable[T]) -> Iterator[tuple[T, ...]]:
    """Yield every subset of ``items`` as a tuple, smallest first.

    >>> [set(s) for s in powerset([1, 2])]
    [set(), {1}, {2}, {1, 2}]
    """
    pool = list(items)
    return chain.from_iterable(combinations(pool, r) for r in range(len(pool) + 1))


def interleavings(prefix: Sequence[T], item: T) -> Iterator[tuple[T, ...]]:
    """Yield every tuple obtained by inserting ``item`` into ``prefix``.

    The relative order of ``prefix`` is preserved; ``item`` takes each of
    the ``len(prefix) + 1`` possible positions.
    """
    seq = tuple(prefix)
    for i in range(len(seq) + 1):
        yield seq[:i] + (item,) + seq[i:]


def fresh_names(base: str, taken: Iterable[str]) -> Iterator[str]:
    """Yield ``base0, base1, ...`` skipping names already in ``taken``."""
    used = set(taken)
    i = 0
    while True:
        candidate = f"{base}{i}"
        if candidate not in used:
            used.add(candidate)
            yield candidate
        i += 1
