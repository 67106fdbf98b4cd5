"""Partitions, hook lengths, core predicates, and the first-column-hook bijection.

Hook lengths use the french orientation internally (longest row at the
bottom, cells counted north and east); the hook multiset does not depend
on orientation, so only the diagram rendering offers an english flag.
"""

from __future__ import annotations

from itertools import accumulate, islice
from operator import index, sub
from typing import Iterable, Iterator

from .errors import NotACoreError, check_cap


class CoreModuli(tuple):
    """A generator set as distinct moduli >= 1 in increasing order.

    Normalising is idempotent, so a caller testing many partitions against
    one set builds this once and passes it to is_multicore each time;
    GapPoset.generators is one.
    """

    def __new__(cls, generators: Iterable[int]) -> "CoreModuli":
        if isinstance(generators, CoreModuli):
            return generators
        gens = sorted(set(map(index, generators)))
        if not gens:
            raise ValueError("generator set must be non-empty")
        if gens[0] < 1:
            raise ValueError(f"generators must be >= 1, got {gens[0]}")
        return super().__new__(cls, gens)

    def multiples_below(self, top: int) -> int:
        """Bitmask with bit m set for each multiple 0 < m < top of a modulus."""
        mask = 0
        for g in self:
            if g >= top:
                break  # the moduli increase, so no later one has a multiple below top
            q = (top - 1) // g
            # bits g, 2g, ..., qg: (2^(gq) - 1) / (2^g - 1) has bits 0, g, ..., (q-1)g
            mask |= ((1 << g * q) - 1) // ((1 << g) - 1) << g
        return mask


class Partition:
    """Weakly decreasing positive integer parts; () is the empty partition."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        p = list(map(index, parts))
        while p and p[-1] == 0:
            p.pop()
        if p and not (p[-1] > 0 and p == sorted(p, reverse=True)):
            for i, a in enumerate(p):  # find the first offending part for the message
                if a <= 0:
                    raise ValueError(f"partition parts must be positive, got {a}")
                if i and p[i - 1] < a:
                    raise ValueError(f"parts must be weakly decreasing, got {p}")
        self.parts = tuple(p)

    @classmethod
    def _from_parts(cls, parts: tuple[int, ...]) -> "Partition":
        """A partition from a tuple its caller built positive and weakly decreasing."""
        p = object.__new__(cls)
        p.parts = parts
        return p

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __lt__(self, other: "Partition") -> bool:
        return self.parts < other.parts

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def column_lengths(self) -> tuple[int, ...]:
        """Length of each column, i.e. the conjugate partition's parts."""
        cols: list[int] = []
        prev = 0
        # walking up from the shortest row, the first k rows are the ones
        # reaching columns prev+1 .. parts[k-1]
        for k in range(len(self.parts), 0, -1):
            part = self.parts[k - 1]
            cols += [k] * (part - prev)
            prev = part
        return tuple(cols)

    def hook_length(self, row: int, col: int) -> int:
        """Hook of the cell at 1-indexed (row, col); row 1 is the longest row.

        arm + leg + 1, arm counting cells east in the row and leg counting
        cells north of the cell (french orientation).
        """
        if not 1 <= row <= len(self.parts) or not 1 <= col <= self.parts[row - 1]:
            raise ValueError(f"cell ({row}, {col}) is outside the diagram of {list(self.parts)}")
        arm = self.parts[row - 1] - col
        leg = sum(1 for i in range(row, len(self.parts)) if self.parts[i] >= col)
        return arm + leg + 1

    def hooks(self) -> Iterator[int]:
        """All hook lengths, one per cell, in row-major order."""
        cols = self.column_lengths()
        for i, part in enumerate(self.parts, start=1):
            for j in range(1, part + 1):
                yield (part - j) + (cols[j - 1] - i) + 1

    def is_core(self, s: int) -> bool:
        """True iff no hook length in the diagram is divisible by s."""
        if s < 1:
            raise ValueError(f"core modulus must be >= 1, got {s}")
        return self._first_divisible_hook((s,)) is None

    def is_multicore(self, generators: Iterable[int]) -> bool:
        """Simultaneous core: an s-core for every s in the generator set."""
        return self._first_divisible_hook(generators) is None

    def check_multicore(self, generators: Iterable[int]) -> None:
        """Raise NotACoreError naming the offending hook and divisor."""
        found = self._first_divisible_hook(generators)
        if found is not None:
            raise NotACoreError(self.parts, *found)

    def _first_divisible_hook(self, generators: Iterable[int]) -> tuple[int, int] | None:
        """First (hook, generator) in row-major, increasing-generator order
        with the generator dividing the hook; None for a simultaneous core.

        Cell (i, j), 0-indexed, has hook arm + leg + 1 = (parts[i] - j - 1)
        + (cols[j] - i - 1) + 1: a column term cols[j] + w - 1 - j less a row
        term w + i - parts[i], where w = parts[0].  With a bit set in
        `columns` at every column term, row i's hooks are `columns` shifted
        right by its row term; a column j >= parts[i] has cols[j] <= i, so
        its term falls below bit 0.  The columns of length i + 1 are
        parts[i+1] <= j < parts[i], whose terms are one run of bits just
        above row i's term, so the mask takes O(rows) integer operations.
        Each row's hooks, ANDed with the moduli's multiples, are tested
        longest row first; hooks strictly decrease along a row, so the
        highest bit of the first row that hits is its first offending cell.
        """
        gens = CoreModuli(generators)
        parts = self.parts
        if not parts:
            return None
        w = parts[0]
        multiples = gens.multiples_below(w + len(parts))
        columns = shorter = 0
        for i in range(len(parts) - 1, -1, -1):
            part = parts[i]
            columns |= ((1 << (part - shorter)) - 1) << (w + i - part + 1)
            shorter = part
        for i, part in enumerate(parts):
            hit = (columns >> (w + i - part)) & multiples
            if hit:
                h = hit.bit_length() - 1
                return h, next(g for g in gens if h % g == 0)
        return None

    def first_column_hooks(self) -> frozenset[int]:
        """The set {parts[i] + k - 1 - i}: hook lengths of the first column."""
        k = len(self.parts)
        return frozenset(p + k - 1 - i for i, p in enumerate(self.parts))

    def to_json(self) -> list[int]:
        return list(self.parts)


def partition_from_hooks(hooks: Iterable[int]) -> Partition:
    """The unique partition whose first-column hook set equals `hooks`.

    Sorting the k hooks decreasingly as h_1 > ... > h_k, part i is
    h_i - (k - i); this inverts first_column_hooks.
    """
    hs = sorted(set(map(index, hooks)), reverse=True)
    if hs and hs[-1] < 1:
        raise ValueError(f"hook values must be positive, got {hs[-1]}")
    # distinct positive hooks give positive, weakly decreasing parts; a tuple
    # built straight from the map iterator would be over-allocated
    return Partition._from_parts(tuple(list(map(sub, hs, range(len(hs) - 1, -1, -1)))))


def subpartitions(p: Partition, max_items: int | None = None) -> Iterator[Partition]:
    """All partitions contained in p, the empty partition and p included.

    Streams results in lexicographic order of the zero-padded rows; with
    max_items set, raises EnumerationCapError before the first one when
    count_subpartitions passes it (no silent truncation).
    """
    parts = p.parts
    check_cap(max_items, lambda: count_subpartitions(p), lambda: f"subpartitions of {list(parts)}")
    rows = [0] * len(parts)
    while True:
        yield Partition(rows)
        # step the last row still below min(parts[i], previous row); zero the rest
        for i in range(len(rows) - 1, -1, -1):
            if rows[i] < (parts[i] if i == 0 else min(parts[i], rows[i - 1])):
                rows[i] += 1
                rows[i + 1:] = [0] * (len(rows) - 1 - i)
                break
        else:
            return


def count_subpartitions(p: Partition) -> int:
    """Number of partitions contained in p, without materializing them."""
    parts = p.parts
    # ways[v]: fillings of the rows so far whose last row is v; the row above
    # the first is taken to be parts[0], which caps nothing
    ways = [0] * (parts[0] if parts else 0) + [1]
    for bound in parts:
        ways = list(accumulate(reversed(ways)))[::-1][:bound + 1]
    return sum(ways)


def render_ferrers(p: Partition, hooks: bool = False, orientation: str = "french") -> str:
    """ASCII Ferrers diagram, cells as dots or hook lengths.

    french puts the longest row at the bottom, english at the top.
    """
    if orientation not in ("french", "english"):
        raise ValueError(f"orientation must be french or english, got {orientation!r}")
    if not p.parts:
        return "(empty partition)"
    if hooks:
        stream = p.hooks()
        grid = [list(islice(stream, part)) for part in p.parts]
        width = max(len(str(h)) for row in grid for h in row)
        lines = [" ".join(str(h).rjust(width) for h in row) for row in grid]
    else:
        lines = ["* " * part for part in p.parts]
    if orientation == "french":
        lines.reverse()
    return "\n".join(line.rstrip() for line in lines)
