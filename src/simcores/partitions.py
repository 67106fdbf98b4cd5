"""Partitions, hook lengths, core predicates, and the first-column-hook bijection.

Hook lengths use the french orientation internally (longest row at the
bottom, cells counted north and east); the hook multiset does not depend
on orientation, so only the diagram rendering offers an english flag.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import EnumerationCapError, NotACoreError


class Partition:
    """Weakly decreasing positive integer parts; () is the empty partition."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        p = list(map(int, parts))
        while p and p[-1] == 0:
            p.pop()
        if p and not (p[-1] > 0 and p == sorted(p, reverse=True)):
            for i, a in enumerate(p):  # find the first offending part for the message
                if a <= 0:
                    raise ValueError(f"partition parts must be positive, got {a}")
                if i and p[i - 1] < a:
                    raise ValueError(f"parts must be weakly decreasing, got {p}")
        self.parts = tuple(p)

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

    def contains(self, other: "Partition") -> bool:
        """Componentwise containment (the subpartition order)."""
        if len(other.parts) > len(self.parts):
            return False
        return all(o <= s for o, s in zip(self.parts, other.parts))

    def column_lengths(self) -> tuple[int, ...]:
        """Length of each column, i.e. the conjugate partition's parts."""
        if not self.parts:
            return ()
        cols = []
        k = len(self.parts)
        for j in range(1, self.parts[0] + 1):
            while self.parts[k - 1] < j:
                k -= 1
            cols.append(k)
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
        return all(h % s for h in self.hooks())

    def is_multicore(self, generators: Iterable[int]) -> bool:
        """Simultaneous core: an s-core for every s in the generator set."""
        gens = sorted(set(int(g) for g in generators))
        if not gens:
            raise ValueError("generator set must be non-empty")
        for h in self.hooks():
            for g in gens:
                if h % g == 0:
                    return False
        return True

    def check_multicore(self, generators: Iterable[int]) -> None:
        """Raise NotACoreError naming the offending hook and divisor."""
        gens = sorted(set(int(g) for g in generators))
        if not gens:
            raise ValueError("generator set must be non-empty")
        for h in self.hooks():
            for g in gens:
                if h % g == 0:
                    raise NotACoreError(self.parts, h, g)

    def first_column_hooks(self) -> frozenset[int]:
        """The set {parts[i] + k - 1 - i}: hook lengths of the first column."""
        k = len(self.parts)
        return frozenset(p + k - 1 - i for i, p in enumerate(self.parts))

    def to_json(self) -> list[int]:
        return list(self.parts)


def partition_from_hooks(hooks: Iterable[int]) -> Partition:
    """The unique partition whose first-column hook set equals `hooks`.

    Sorting the hooks increasingly as h_1 < ... < h_k, the parts are
    h_(k+1-i) - (k-i); this inverts first_column_hooks.
    """
    hs = sorted(set(map(int, hooks)))
    if hs and hs[0] < 1:
        raise ValueError(f"hook values must be positive, got {hs[0]}")
    return Partition([h - j for j, h in enumerate(hs)][::-1])


def subpartitions(p: Partition, max_items: int | None = None) -> Iterator[Partition]:
    """All partitions contained in p, the empty partition and p included.

    Streams results; with max_items set, raises EnumerationCapError once the
    cap would be exceeded (no silent truncation).
    """
    parts = p.parts
    count = 0

    def rec(i: int, cap: int, prefix: list[int]) -> Iterator[Partition]:
        nonlocal count
        if i == len(parts):
            count += 1
            if max_items is not None and count > max_items:
                raise EnumerationCapError(f"subpartitions of {list(parts)}", max_items)
            yield Partition(prefix)
            return
        for v in range(min(cap, parts[i]) + 1):
            prefix.append(v)
            yield from rec(i + 1, v, prefix)
            prefix.pop()

    yield from rec(0, parts[0] if parts else 0, [])


def count_subpartitions(p: Partition) -> int:
    """Number of partitions contained in p, without materializing them."""
    parts = p.parts
    memo: dict[tuple[int, int], int] = {}

    def rec(i: int, cap: int) -> int:
        if i == len(parts):
            return 1
        cap = min(cap, parts[i])
        key = (i, cap)
        if key not in memo:
            memo[key] = sum(rec(i + 1, v) for v in range(cap + 1))
        return memo[key]

    return rec(0, parts[0] if parts else 0)


def partitions_in_box(max_parts: int, max_part: int) -> Iterator[Partition]:
    """All partitions with at most max_parts parts, each at most max_part."""
    def rec(rows_left: int, cap: int, prefix: list[int]) -> Iterator[Partition]:
        yield Partition(prefix)
        if rows_left == 0:
            return
        for v in range(1, cap + 1):
            prefix.append(v)
            yield from rec(rows_left - 1, v, prefix)
            prefix.pop()

    yield from rec(max_parts, max_part, [])


def render_ferrers(p: Partition, hooks: bool = False, orientation: str = "french") -> str:
    """ASCII Ferrers diagram, cells as dots or hook lengths.

    french puts the longest row at the bottom, english at the top.
    """
    if orientation not in ("french", "english"):
        raise ValueError(f"orientation must be french or english, got {orientation!r}")
    if not p.parts:
        return "(empty partition)"
    if hooks:
        grid = [
            [p.hook_length(i, j) for j in range(1, part + 1)]
            for i, part in enumerate(p.parts, start=1)
        ]
        width = max(len(str(h)) for row in grid for h in row)
        lines = [" ".join(str(h).rjust(width) for h in row) for row in grid]
    else:
        lines = ["* " * part for part in p.parts]
    if orientation == "french":
        lines.reverse()
    return "\n".join(line.rstrip() for line in lines)
