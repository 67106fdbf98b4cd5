"""Lattice paths: rectangle Dyck paths, their coarea, and generalized Dyck paths.

Rectangle convention: the (s, t) rectangle has width t and height s, paths
run from (0,0) to (t, s) weakly above the line y = (s/t)x, and the region
above a path is read off as a partition via its column heights.  The
diagonal-hugging path then carries the partition with parts floor(s*i/t).

Generalized paths run from (0,0) to (n,n) weakly above y = x with steps
(0,k), (k,0) and (i,i) for 1 <= i <= k-1; k = 1 gives classical Dyck paths
and k = 2 encodes Motzkin paths.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from itertools import chain
from operator import or_
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InvariantError, NonCoprimeError, check_cap
from .exact import binomial
from .partitions import Partition
from .posets import LIST_CAP, GapPoset, consecutive_poset, multi_catalan


def _require_coprime(s: int, t: int) -> None:
    if s < 1 or t < 1:
        raise ValueError(f"rectangle sides must be >= 1, got ({s}, {t})")
    g = math.gcd(s, t)
    if g != 1:
        raise NonCoprimeError(s, t, g)


# ---------------------------------------------------------------------------
# walks: a path is a tuple of step names, and its family's `moves` maps each
# name to its displacement (dx, dy)


class _LatticePath:
    """Walk of named steps from (0,0) to `target`, weakly above the segment joining them.

    A subclass gives the two parameter slots its own names and supplies
    `target`, the step table `moves`, `_family` (named in the error for a
    step the table lacks) and `_show` (how `__repr__` writes the steps).
    """

    __slots__ = ("_a", "_b", "steps")

    def __init__(self, a: int, b: int, steps: Sequence[str]):
        self._a, self._b, self.steps = a, b, tuple(steps)
        for step in self.steps:
            if step not in self.moves:
                raise ValueError(f"step {step!r} is not valid for {self._family}")
        tx, ty = target = self.target
        for x, y in self.points():
            if tx * y < ty * x:
                raise ValueError(f"path dips below the diagonal at ({x}, {y})")
        if (x, y) != target:
            raise ValueError(f"path ends at ({x}, {y}), expected {target}")

    @classmethod
    def _from_walk(cls, a: int, b: int, steps: Sequence[str]):
        """A path from steps that _lattice_walks already kept on or above the diagonal."""
        # plain slot assignments: enumeration builds one path per walk
        path = object.__new__(cls)
        path._a, path._b, path.steps = a, b, tuple(steps)
        return path

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self._a, self._b, self.steps) == (other._a, other._b, other.steps)

    def __hash__(self):
        return hash((self._a, self._b, self.steps))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._a}, {self._b}, {self._show(self.steps)!r})"

    def points(self) -> Iterator[tuple[int, int]]:
        """Every lattice point of the walk, from (0,0) on."""
        moves = self.moves
        x = y = 0
        yield (x, y)
        for step in self.steps:
            dx, dy = moves[step]
            x, y = x + dx, y + dy
            yield (x, y)

    def to_json(self) -> list[str]:
        return list(self.steps)


class RectPath(_LatticePath):
    """N/E path from (0,0) to (t, s) staying weakly above y = (s/t)x."""

    __slots__ = ()
    # the base's parameter slots under this family's names
    s, t = _LatticePath._a, _LatticePath._b
    moves = MappingProxyType({"N": (0, 1), "E": (1, 0)})
    _family = "rectangle paths"
    _show = "".join

    def __init__(self, s: int, t: int, steps: Sequence[str]):
        _require_coprime(s, t)
        super().__init__(s, t, steps)

    @property
    def target(self) -> tuple[int, int]:
        return (self.t, self.s)

    def heights(self) -> tuple[int, ...]:
        """Path height over each unit column, weakly increasing."""
        return tuple(y for (_, y), step in zip(self.points(), self.steps) if step == "E")

    def partition_above(self) -> Partition:
        """Cells above the path, read as column heights (weakly decreasing)."""
        return Partition(self.s - h for h in self.heights() if h < self.s)

    def coarea(self) -> int:
        """Number of cells between the path and the top-left corner."""
        return sum(self.s - h for h in self.heights())


def count_rect_paths(s: int, t: int) -> int:
    """binomial(s+t, s) / (s+t): the cycle-lemma count, exact division."""
    _require_coprime(s, t)
    q, r = divmod(binomial(s + t, s), s + t)
    if r:
        raise InvariantError("cycle-lemma division must be exact for coprime sides")
    return q


def diagonal_partition(s: int, t: int) -> Partition:
    """Partition above the diagonal-hugging path: parts floor(s*i/t), i < t."""
    _require_coprime(s, t)
    return Partition(sorted((s * i // t for i in range(1, t)), reverse=True))


def rect_paths_name(s: int, t: int) -> str:
    """How the (s, t) rectangle paths are named in a cap error."""
    return f"({s},{t}) rectangle paths"


def enumerate_rect_paths(s: int, t: int, max_items: int | None = LIST_CAP) -> Iterator[RectPath]:
    """All (s, t) paths, N-step first at every branch (deterministic order).

    Past the cap, the error comes before the first path: count_rect_paths
    is compared with it before the walk.
    """
    _require_coprime(s, t)
    check_cap(max_items, lambda: count_rect_paths(s, t), lambda: rect_paths_name(s, t))
    for steps in _lattice_walks(RectPath.moves, (t, s)):
        yield RectPath._from_walk(s, t, steps)


def _lattice_walks(moves: Mapping[str, tuple[int, int]], target: tuple[int, int],
                   labels: Sequence[Sequence[int]] | None = None
                   ) -> Iterator[tuple[str, ...] | int]:
    """Every walk from (0,0) to target that stays weakly above the segment
    joining them and never rises above target's height, as the sum of the
    heads of its steps.

    A step's head is its name as a 1-tuple, so a walk is the tuple of its
    step names.  With `labels`, a table whose entry [x][h] is the bitmask of
    column x's labels strictly below height h, a step's head is the bitmask
    of the labels it takes, so a walk is its label set as one int: a step
    from (x, y) to (x+dx, y+dy) takes the labels of columns x .. x+dx-1
    below y+dy, and every column is crossed by exactly one step with dx > 0,
    so no label is taken twice and + on the masks is |.

    Depth-first order, trying `moves` (name -> (dx, dy)) in their order at
    each point.  The points near the target keep their walks to it as lists
    (_walk_tails); an explicit stack of (x, y, next move, walk so far) frames
    walks only the points farther out, so path length is not limited by
    recursion depth, and hands out the list of each point it steps to with
    one map of the walk so far over it.  The walk has no cap of its own:
    every caller compares the family's closed-form count with its cap first
    (errors.check_cap).
    """
    tx, ty = target
    width = tx + 1
    zero, steps = _walk_heads(moves, target, labels)
    tails = _walk_tails(steps, target, zero)
    if 0 in tails:
        yield from tails[0]
        return
    n_moves = len(steps)
    stack = [(0, 0, 0, zero)]
    while stack:
        x, y, m, walk = stack.pop()
        while m < n_moves:
            dx, dy, heads = steps[m]
            m += 1
            nx, ny = x + dx, y + dy
            if ny > ty or tx * ny < ty * nx:
                continue
            reached = walk + heads[x][ny]
            tail = tails.get(ny * width + nx)
            if tail is None:
                stack.append((x, y, m, walk))
                stack.append((nx, ny, 0, reached))
                break
            if tail:
                yield from map(reached.__add__, tail)


def _walk_heads(moves: Mapping[str, tuple[int, int]], target: tuple[int, int],
                labels: Sequence[Sequence[int]] | None) -> tuple[tuple | int, list[tuple]]:
    """(the empty walk, (dx, dy, heads) per move), where heads[x][h] is the
    move's head from column x to height h (_lattice_walks).  A family's step
    table holds only the moves that fit in its target (_gd_moves)."""
    tx, ty = target
    if labels is None:
        return (), [(dx, dy, [[(name,)] * (ty + 1)] * (tx + 1))
                    for name, (dx, dy) in moves.items()]
    return 0, [(dx, dy, _step_gains(labels, dx, tx)) for dx, dy in moves.values()]


# a lattice point with at most this many walks to the target keeps them in
# one list, and the kept lists hold at most _TAIL_STEPS steps between them
# (each walk counted at the longest length from its point), so their memory
# is bounded however many walks there are
_TAIL_ITEMS = 256
_TAIL_STEPS = 1 << 18


def _walk_tails(steps: list[tuple], target: tuple[int, int], zero: tuple | int
                ) -> dict[int, list]:
    """tails[y * (tx+1) + x]: every walk from (x, y) to target in walk order,
    as sums of heads starting from `zero`, for the points near the target
    with at most _TAIL_ITEMS of them; `steps` and `zero` come from
    _walk_heads.

    Built back from the target in reverse row-major order, which puts every
    point after the points its steps reach.  A point's list adds, move by
    move, the step's head to each walk of the point it reaches, so no
    separate count is needed; a point that reaches a point without a list,
    or whose list would pass either bound, gets none.  The fill visits every
    point of the region: each caller compares the walk's closed-form count
    with its cap first (errors.check_cap), so the regions it fills are small.
    """
    tx, ty = target
    width = tx + 1
    tails = {width * (ty + 1) - 1: [zero]}
    budget = _TAIL_STEPS
    for y in range(ty, -1, -1):
        for x in range(tx * y // ty - (y == ty), -1, -1):  # the target is done
            joins = []
            total = 0
            for dx, dy, heads in steps:
                nx, ny = x + dx, y + dy
                if ny > ty or tx * ny < ty * nx:
                    continue
                tail = tails.get(ny * width + nx)
                if tail is None:
                    break
                if tail:
                    joins.append((heads[x][ny], tail))
                    total += len(tail)
            else:
                # a walk from (x, y) takes at most tx - x + ty - y steps
                cost = total * (tx - x + ty - y)
                if total <= _TAIL_ITEMS and cost <= budget:
                    budget -= cost
                    tails[y * width + x] = [head + walk for head, tail in joins for walk in tail]
    return tails


def _step_gains(labels: Sequence[Sequence[int]], dx: int, tx: int) -> list[list[int]]:
    """gain[x][h]: the labels a step of width dx from column x to height h
    takes, the OR of labels[x .. x+dx-1][h], for every start column
    x <= tx - dx; all zero for a step that crosses no column."""
    if not dx:
        return [[0] * len(labels[0])] * (tx + 1)
    return [[reduce(or_, column_masks) for column_masks in zip(*labels[x:x + dx])]
            for x in range(tx - dx + 1)]


# ---------------------------------------------------------------------------
# generalized Dyck paths


def _require_nk(n: int, k: int) -> None:
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")


class GeneralizedDyckPath(_LatticePath):
    """Path from (0,0) to (n,n) weakly above y = x over steps Nk, Ek, D1..D(k-1)."""

    __slots__ = ()
    # the base's parameter slots under this family's names
    n, k = _LatticePath._a, _LatticePath._b
    _show = list

    def __init__(self, n: int, k: int, steps: Sequence[str]):
        _require_nk(n, k)
        super().__init__(n, k, steps)

    @property
    def target(self) -> tuple[int, int]:
        return (self.n, self.n)

    @property
    def moves(self) -> MappingProxyType:
        return _gd_moves(self.n, self.k)

    @property
    def _family(self) -> str:
        return f"k={self.k} in the {self.n} x {self.n} square"

    def inflate(self) -> tuple[str, ...]:
        """Unit N/E path with each step (dx, dy) replaced by N^dy E^dx; injective on paths."""
        moves = self.moves
        out: list[str] = []
        for step in self.steps:
            dx, dy = moves[step]
            out.extend("N" * dy)
            out.extend("E" * dx)
        return tuple(out)


def count_gd(n: int, k: int) -> int:
    """Number of generalized (n,k) paths via first-return decomposition.

    Value 1 for n <= 0 by convention; a first diagonal return at point s < k
    forces a leading D_s step, at s >= k a leading Nk and a closing Ek.  That
    is the multi-Catalan rule, so the count is read from its shared table.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return multi_catalan(n, k)


def gd_paths_name(n: int, k: int) -> str:
    """How the generalized (n,k) paths are named in a cap error."""
    return f"generalized ({n},{k}) paths"


def enumerate_gd(n: int, k: int, max_items: int | None = LIST_CAP) -> Iterator[GeneralizedDyckPath]:
    """All generalized (n,k) paths; step order Nk, Ek, D1..D(k-1) at each branch.

    Past the cap, the error comes before the first path: count_gd is
    compared with it before the walk.  With max_items=None nothing bounds
    the region _walk_tails fills before the first path: at (1200, 1) that
    fill takes about 0.3 s on a 2-vCPU Xeon under Python 3.11.
    """
    _require_nk(n, k)
    check_cap(max_items, lambda: count_gd(n, k), lambda: gd_paths_name(n, k))
    for steps in _lattice_walks(_gd_moves(n, k), (n, n)):
        yield GeneralizedDyckPath._from_walk(n, k, steps)


def gd_label_masks(n: int, k: int, max_items: int | None = LIST_CAP) -> Iterator[int]:
    """The label set of every generalized (n,k) path as a bitmask, in enumerate_gd order.

    Bit l is set for each label l that gd_to_ideal collects from the path,
    but no path object is built and the set is not checked to be a lower
    ideal (GapPoset.is_lower_ideal_mask checks it).  Shares enumerate_gd's
    walk, cap and cap message; past the cap, the error comes on the call,
    before the label table is built.
    """
    _require_nk(n, k)
    check_cap(max_items, lambda: count_gd(n, k), lambda: gd_paths_name(n, k))
    return _lattice_walks(_gd_moves(n, k), (n, n), _gd_label_table(n, k))


def _gd_label_table(n: int, k: int) -> list[list[int]]:
    """table[x][h]: the bitmask of column x's labels strictly below height h <= n.

    Column x's labels below h are column 0's labels below h - x, each raised by x.
    """
    by_rise = [_labels_mask(_labels_below(n, k, 0, d)) for d in range(n + 1)]
    return [[0] * x + [mask << x for mask in by_rise[:n + 1 - x]] for x in range(n)]


@lru_cache(maxsize=64)
def _gd_moves(n: int, k: int) -> MappingProxyType:
    """Displacement of every step name that fits in the n x n square, in
    enumerate_gd's order Nk, Ek, D1..D(k-1): Nk and Ek only for k <= n, and
    D_i only for i <= n."""
    moves = {f"N{k}": (0, k), f"E{k}": (k, 0)} if k <= n else {}
    moves.update((f"D{i}", (i, i)) for i in range(1, min(k - 1, n) + 1))
    return MappingProxyType(moves)


def diagonal_cell_labels(n: int, k: int) -> dict[tuple[int, int], int]:
    """Labels of the cells on every k-th diagonal of the n x n lattice.

    Cells are unit squares indexed by their lower-left corner; only the
    diagonals y - x = qk + 1 carry labels, and cell (x, x + qk + 1) gets
    q*(n+k) + 1 + x, so labels increase to the northeast along a diagonal
    and successive diagonals start at 1, 1+(n+k), 1+2(n+k), ...  The dict
    runs diagonal by diagonal, each from x = 0.
    """
    return {(x, x + q * k + 1): q * (n + k) + 1 + x
            for q in range((n - 2) // k + 1) for x in range(n - q * k - 1)}


def _labels_below(n: int, k: int, x: int, h: int) -> range:
    """Column x's labels strictly below height h <= n, bottom to top.

    The column's cells (x, x + qk + 1) carry q*(n+k) + 1 + x, an arithmetic
    progression with difference n+k, and the first max(0, ceil((h-x-1)/k))
    of them lie below h.
    """
    return range(1 + x, 1 + x + max(0, (h - x + k - 2) // k) * (n + k), n + k)


def _labels_mask(labels: Sequence[int]) -> int:
    """The bitmask of a sequence of labels, set byte by byte: linear in the top
    label, where one OR of 1 << label per label would be quadratic."""
    bits = bytearray(max(labels, default=0) // 8 + 1)
    for label in labels:
        bits[label >> 3] |= 1 << (label & 7)
    return int.from_bytes(bits, "little")


@lru_cache(maxsize=64)
def _step_labels(n: int, k: int) -> tuple[GapPoset, dict[str, tuple[int, dict]]]:
    """The gap poset of the run (n, ..., n+k), whose gaps the labels are, and
    per step name (advance, taken): the step moves the point index
    y * (n+1) + x by advance, and taken[i] holds (labels, mask), the labels
    the step takes from index i, as _labels_below gives them, and their
    bitmask.  gd_to_ideal fills `taken` on first use, so its size follows the
    points that paths have visited; an entry is one assignment of a fixed
    value, so threads may race to fill it."""
    return consecutive_poset(n, k), {
        name: (dy * (n + 1) + dx, {}) for name, (dx, dy) in _gd_moves(n, k).items()}


def gd_to_ideal(path: GeneralizedDyckPath) -> frozenset[int]:
    """Lower ideal of the consecutive poset for {n, ..., n+k} matching the path.

    Collects the diagonal_cell_labels of the cells strictly below the
    inflated path, so the all-vertical-first path maps to the full gap set
    and the diagonal-hugging path to the empty ideal; this orientation is
    the one under which the label sets are downward closed.  The OR of the
    steps' label masks is checked by GapPoset.is_lower_ideal_mask; a failure
    there (InvariantError) means a labeling bug, not bad input.
    """
    n, k = path.n, path.k
    poset, moves = _step_labels(n, k)
    labels: list[int] = []
    mask = 0
    at = 0  # y * (n+1) + x at the current point
    for step in path.steps:
        advance, taken = moves[step]
        got = taken.get(at)
        if got is None:
            # a step (dx, dy) rises first (D_i inflates to N^i E^i), then runs
            # east at its new height, so it takes the labels below that height
            # in the columns it crosses
            y, x = divmod(at, n + 1)
            dx, dy = _gd_moves(n, k)[step]
            took = tuple(chain.from_iterable(
                _labels_below(n, k, cx, y + dy) for cx in range(x, x + dx)))
            got = taken[at] = took, _labels_mask(took)
        labels += got[0]
        mask |= got[1]
        at += advance
    ideal = frozenset(labels)
    if not poset.is_lower_ideal_mask(mask):
        raise InvariantError(
            f"label set {sorted(ideal)} from path {list(path.steps)} is not a lower "
            f"ideal of P_{list(poset.generators)}; labeling orientation bug"
        )
    return ideal


# ---------------------------------------------------------------------------
# number and total size of the cores, by one DP over either family's walk


def _rect_labels_below(s: int, t: int, x: int, h: int) -> range:
    """Column x's labels strictly below height h <= s, bottom to top.

    Anderson's labels t*r - s*(x+1) for s(x+1)/t < r < h: one per lattice
    point (x+1, r) strictly above the diagonal.
    """
    low = s * (x + 1)
    return range(t * (low // t + 1) - low, t * h - low, t)


def _count_and_sum(labels: range) -> tuple[int, int]:
    if not labels:
        return 0, 0
    return len(labels), len(labels) * (labels[0] + labels[-1]) // 2


def _walk_size_totals(moves: Mapping[str, tuple[int, int]], target: tuple[int, int],
                      below: Sequence[Sequence[tuple[int, int]]]) -> tuple[int, int]:
    """(number, total core size) over the walks _lattice_walks takes, with no walk built.

    A dynamic program over the lattice points of the walks' region, taking
    the same steps.  Every column is crossed by exactly one step with
    dx > 0, and that step takes the column's labels strictly below the
    height it ends at, so a step from (x, y) to (x+dx, y+dy) takes the
    labels in columns x .. x+dx-1 below y+dy; below[col][h] is the (count,
    sum) of column col's labels below height h.

    A walk's labels are the first-column hook set I of a core, of size
    |I| = K and sum S, and the core has size |lambda| = S - K(K-1)/2.  Each
    point carries (N, sum |lambda|, sum K) over the walks reaching it; a
    step adding c labels of sum sigma adds N sigma - c sum K - N c(c-1)/2 to
    sum |lambda| and N c to sum K.  Polynomial: O(points * moves) steps.
    """
    tx, ty = target
    steps = list(moves.values())
    width = tx + 1
    moments = [(0, 0, 0)] * (width * (ty + 1))  # moments[y * width + x]
    moments[0] = (1, 0, 0)
    # every step raises y or keeps y and raises x, so row-major order is topological
    for y in range(ty + 1):
        for x in range(tx * y // ty + 1):
            cnt, size_sum, k_sum = moments[y * width + x]
            if not cnt:
                continue
            for dx, dy in steps:
                nx, ny = x + dx, y + dy
                if ny > ty or tx * ny < ty * nx:
                    continue
                c = sigma = 0
                for col in range(x, nx):
                    dc, dsigma = below[col][ny]
                    c, sigma = c + dc, sigma + dsigma
                at = ny * width + nx
                old_n, old_size, old_k = moments[at]
                moments[at] = (
                    old_n + cnt,
                    old_size + size_sum + cnt * sigma - c * k_sum - cnt * (c * (c - 1) // 2),
                    old_k + k_sum + cnt * c,
                )
    count, size_sum, _ = moments[-1]
    return count, size_sum


def rect_size_totals(s: int, t: int) -> tuple[int, int]:
    """(number, total size) of the (s, t)-cores, with no path built.

    The walk DP over enumerate_rect_paths' walk, where an east step in
    column x at height y takes Anderson's labels t*r - s*(x+1) for
    s(x+1)/t < r < y; a path's labels are the lower ideal of the (s, t) gap
    poset that is the first-column hook set of its core (Anderson,
    Partitions which are simultaneously t1- and t2-core, Discrete Math.
    2002).  Polynomial: O(st) steps.  N is returned unchecked, for the
    caller to compare with count_rect_paths and the lower ideals.
    """
    _require_coprime(s, t)
    below = [[_count_and_sum(_rect_labels_below(s, t, x, h)) for h in range(s + 1)]
             for x in range(t)]
    return _walk_size_totals(RectPath.moves, (t, s), below)


def gd_size_totals(n: int, k: int) -> tuple[int, int]:
    """(number, total size) of the cores for {n, ..., n+k}, with no path built.

    The walk DP over enumerate_gd's walk, where a step takes the labels
    gd_to_ideal collects (_labels_below).  Polynomial: O(n^2 k) steps.  N is
    checked against multi_catalan(n, k).
    """
    _require_nk(n, k)
    # column x's labels below height h are column 0's labels below h - x, each
    # raised by x; by_rise[d] = (count, sum) of column 0's labels below d
    by_rise = [_count_and_sum(_labels_below(n, k, 0, d)) for d in range(n + 1)]
    below = [[(0, 0)] * x + [(c, sigma + c * x) for c, sigma in by_rise[:n + 1 - x]]
             for x in range(n)]
    count, size_sum = _walk_size_totals(_gd_moves(n, k), (n, n), below)
    if count != multi_catalan(n, k):
        raise InvariantError(
            f"path DP counts {count} generalized ({n},{k}) paths, multi_catalan says "
            f"{multi_catalan(n, k)}"
        )
    return count, size_sum


# ---------------------------------------------------------------------------
# SVG rendering

_CELL = 24
_MARGIN = 12


def _svg_panel(target: tuple[int, int], path_points: Iterable[tuple[int, int]],
               offset: tuple[int, int],
               cell_labels: dict[tuple[int, int], int] | None = None) -> list[str]:
    width, height = target
    ox, oy = offset

    def pt(x: float, y: float) -> tuple[float, float]:
        # flip y so the origin sits at the bottom-left of the panel
        return (ox + x * _CELL, oy + (height - y) * _CELL)

    out = []
    for i in range(width + 1):
        x0, y0 = pt(i, 0)
        x1, y1 = pt(i, height)
        out.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" stroke="#ccc"/>')
    for j in range(height + 1):
        x0, y0 = pt(0, j)
        x1, y1 = pt(width, j)
        out.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" stroke="#ccc"/>')
    bx, by = pt(width, height)
    x0, y0 = pt(0, 0)
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{bx}" y2="{by}" stroke="#888" stroke-dasharray="4 3"/>')
    for (cx, cy), label in (cell_labels or {}).items():
        tx, ty = pt(cx + 0.5, cy + 0.35)
        out.append(
            f'<text x="{tx}" y="{ty}" font-size="10" text-anchor="middle" fill="#555">{label}</text>'
        )
    points = " ".join(f"{pt(x, y)[0]},{pt(x, y)[1]}" for x, y in path_points)
    out.append(f'<polyline points="{points}" fill="none" stroke="#c22" stroke-width="2.5"/>')
    return out


def svg_paths(paths: Sequence[RectPath] | Sequence[GeneralizedDyckPath], columns: int = 5,
              labels: bool = False) -> str:
    """Standalone SVG showing every path as one panel in a grid.

    With labels=True, generalized-path panels also print the diagonal cell
    labels used by gd_to_ideal; the option is ignored for rectangle paths,
    which carry no labeling.  Every path must share the first one's family
    and parameters, and `columns` must be at least 1.
    """
    if not paths:
        raise ValueError("no paths to render")
    if columns < 1:
        raise ValueError(f"need at least one column of panels, got columns={columns}")
    first = paths[0]
    # every panel is drawn, and labelled, for the first path's family and parameters
    if any((type(p), p._a, p._b) != (type(first), first._a, first._b) for p in paths):
        raise ValueError("paths of different families or parameters cannot share one grid")
    width, height = first.target
    cell_labels = None
    if labels and isinstance(first, GeneralizedDyckPath):
        cell_labels = diagonal_cell_labels(first.n, first.k)
    cols = min(columns, len(paths))
    rows = (len(paths) + cols - 1) // cols
    panel_w = width * _CELL + _MARGIN
    panel_h = height * _CELL + _MARGIN
    total_w = cols * panel_w + _MARGIN
    total_h = rows * panel_h + _MARGIN
    body = []
    for idx, p in enumerate(paths):
        r, c = divmod(idx, cols)
        offset = (_MARGIN + c * panel_w, _MARGIN + r * panel_h)
        body.extend(_svg_panel(first.target, p.points(), offset, cell_labels))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" height="{total_h}">\n'
        + "\n".join(body)
        + "\n</svg>\n"
    )
