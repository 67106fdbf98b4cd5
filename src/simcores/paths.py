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
from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate, chain
from typing import Iterable, Iterator, Sequence

from .errors import EnumerationCapError, InvariantError, NonCoprimeError
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
# walks: a path is a sequence of step names, and `move` maps a name to its
# displacement (dx, dy), raising ValueError for a name the family lacks

_RECT_MOVES = {"N": (0, 1), "E": (1, 0)}


def _rect_move(step: str) -> tuple[int, int]:
    move = _RECT_MOVES.get(step)
    if move is None:
        raise ValueError(f"rectangle path steps must be N or E, got {step!r}")
    return move


def _points(steps: Iterable[str], move) -> Iterator[tuple[int, int]]:
    """Every lattice point of the walk, from (0,0) on."""
    x = y = 0
    yield (x, y)
    for step in steps:
        dx, dy = move(step)
        x, y = x + dx, y + dy
        yield (x, y)


def _check_walk(steps: Sequence[str], move, target: tuple[int, int]) -> tuple[str, ...]:
    """The steps as a tuple, once the walk is checked to stay weakly above the
    segment from (0,0) to target and to end at target."""
    steps = tuple(steps)
    tx, ty = target
    for x, y in _points(steps, move):
        if tx * y < ty * x:
            raise ValueError(f"path dips below the diagonal at ({x}, {y})")
    if (x, y) != target:
        raise ValueError(f"path ends at ({x}, {y}), expected {target}")
    return steps


class RectPath:
    """N/E path from (0,0) to (t, s) staying weakly above y = (s/t)x."""

    __slots__ = ("s", "t", "steps")

    def __init__(self, s: int, t: int, steps: Sequence[str]):
        _require_coprime(s, t)
        self.s, self.t = s, t
        self.steps = _check_walk(steps, _rect_move, self.target)

    @classmethod
    def _from_walk(cls, s: int, t: int, steps: Sequence[str]) -> "RectPath":
        """A path from steps that _lattice_walks already kept on or above the diagonal."""
        path = object.__new__(cls)
        path.s, path.t, path.steps = s, t, tuple(steps)
        return path

    @property
    def target(self) -> tuple[int, int]:
        return (self.t, self.s)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RectPath):
            return NotImplemented
        return (self.s, self.t, self.steps) == (other.s, other.t, other.steps)

    def __hash__(self):
        return hash((self.s, self.t, self.steps))

    def __repr__(self) -> str:
        return f"RectPath({self.s}, {self.t}, {''.join(self.steps)!r})"

    def heights(self) -> tuple[int, ...]:
        """Path height over each unit column, weakly increasing."""
        out = []
        y = 0
        for step in self.steps:
            if step == "N":
                y += 1
            else:
                out.append(y)
        return tuple(out)

    def partition_above(self) -> Partition:
        """Cells above the path, read as column heights (weakly decreasing)."""
        return Partition(self.s - h for h in self.heights() if h < self.s)

    def coarea(self) -> int:
        """Number of cells between the path and the top-left corner."""
        return sum(self.s - h for h in self.heights())

    def points(self) -> Iterator[tuple[int, int]]:
        return _points(self.steps, _RECT_MOVES.__getitem__)

    def to_json(self) -> list[str]:
        return list(self.steps)


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


def enumerate_rect_paths(s: int, t: int, max_items: int | None = LIST_CAP) -> Iterator[RectPath]:
    """All (s, t) paths, N-step first at every branch (deterministic order)."""
    _require_coprime(s, t)
    for steps in _lattice_walks(_RECT_MOVES, (t, s), max_items, f"({s},{t}) rectangle paths"):
        yield RectPath._from_walk(s, t, steps)


def _lattice_walks(moves: dict[str, tuple[int, int]], target: tuple[int, int],
                   max_items: int | None, what: str) -> Iterator[list[str]]:
    """Step names of every walk from (0,0) to target that stays weakly above the
    segment joining them and never rises above target's height.

    Depth first, trying `moves` (name -> (dx, dy)) in their order at each
    point, as one loop over an explicit stack of (x, y, next move) frames,
    so path length is not limited by recursion depth.  The yielded list is
    reused: callers copy it before resuming.  Raises EnumerationCapError
    (naming `what`) on reaching walk max_items + 1.
    """
    tx, ty = target
    moves = [(name, dx, dy) for name, (dx, dy) in moves.items()]
    n_moves = len(moves)
    steps: list[str] = []
    stack = [(0, 0, 0)]
    count = 0
    while stack:
        x, y, m = stack.pop()
        if x == tx and y == ty:
            count += 1
            if max_items is not None and count > max_items:
                raise EnumerationCapError(what, max_items)
            yield steps
            m = n_moves  # nothing is admissible from the target
        while m < n_moves:
            name, dx, dy = moves[m]
            m += 1
            nx, ny = x + dx, y + dy
            if ny <= ty and tx * ny >= ty * nx:
                stack.append((x, y, m))
                stack.append((nx, ny, 0))
                steps.append(name)
                break
        else:
            if stack:  # every frame but the first was entered by a step
                steps.pop()


# ---------------------------------------------------------------------------
# generalized Dyck paths


def _step_displacement(step: str, k: int) -> tuple[int, int]:
    move = _gd_moves(k).get(step)
    if move is None:
        raise ValueError(f"step {step!r} is not valid for k={k}")
    return move


class GeneralizedDyckPath:
    """Path from (0,0) to (n,n) weakly above y = x over steps Nk, Ek, D1..D(k-1)."""

    __slots__ = ("n", "k", "steps")

    def __init__(self, n: int, k: int, steps: Sequence[str]):
        if n < 1 or k < 1:
            raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
        self.n, self.k = n, k
        self.steps = _check_walk(steps, lambda step: _step_displacement(step, k), self.target)

    @classmethod
    def _from_walk(cls, n: int, k: int, steps: Sequence[str]) -> "GeneralizedDyckPath":
        """A path from steps that _lattice_walks already kept on or above y = x."""
        path = object.__new__(cls)
        path.n, path.k, path.steps = n, k, tuple(steps)
        return path

    @property
    def target(self) -> tuple[int, int]:
        return (self.n, self.n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GeneralizedDyckPath):
            return NotImplemented
        return (self.n, self.k, self.steps) == (other.n, other.k, other.steps)

    def __hash__(self):
        return hash((self.n, self.k, self.steps))

    def __repr__(self) -> str:
        return f"GeneralizedDyckPath({self.n}, {self.k}, {list(self.steps)})"

    def points(self) -> Iterator[tuple[int, int]]:
        return _points(self.steps, _gd_moves(self.k).__getitem__)

    def inflate(self) -> tuple[str, ...]:
        """Unit N/E path with each step (dx, dy) replaced by N^dy E^dx; injective on paths."""
        moves = _gd_moves(self.k)
        out: list[str] = []
        for step in self.steps:
            dx, dy = moves[step]
            out.extend("N" * dy)
            out.extend("E" * dx)
        return tuple(out)

    def to_json(self) -> list[str]:
        return list(self.steps)


def count_gd(n: int, k: int) -> int:
    """Number of generalized (n,k) paths via first-return decomposition.

    Value 1 for n <= 0 by convention; a first diagonal return at point s < k
    forces a leading D_s step, at s >= k a leading Nk and a closing Ek.  That
    is the multi-Catalan rule, so the count is read from its shared table.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return multi_catalan(n, k)


def enumerate_gd(n: int, k: int, max_items: int | None = LIST_CAP) -> Iterator[GeneralizedDyckPath]:
    """All generalized (n,k) paths; step order Nk, Ek, D1..D(k-1) at each branch."""
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    for steps in _lattice_walks(_gd_moves(k), (n, n), max_items, f"generalized ({n},{k}) paths"):
        yield GeneralizedDyckPath._from_walk(n, k, steps)


@lru_cache(maxsize=64)
def _gd_moves(k: int) -> dict[str, tuple[int, int]]:
    """Displacement of every step name, in enumerate_gd's order Nk, Ek, D1..D(k-1)."""
    return {f"N{k}": (0, k), f"E{k}": (k, 0), **{f"D{i}": (i, i) for i in range(1, k)}}


def diagonal_cell_labels(n: int, k: int) -> dict[tuple[int, int], int]:
    """Labels of the cells on every k-th diagonal of the n x n lattice.

    Cells are unit squares indexed by their lower-left corner; only the
    diagonals y - x = qk + 1 carry labels, and cell (x, x + qk + 1) gets
    q*(n+k) + 1 + x, so labels increase to the northeast along a diagonal
    and successive diagonals start at 1, 1+(n+k), 1+2(n+k), ...
    """
    return {(x, y): label for x, y, label in _cell_label_table(n, k)}


@lru_cache(maxsize=64)
def _cell_label_table(n: int, k: int) -> tuple[tuple[int, int, int], ...]:
    """(x, y, label) of every labelled cell, diagonal by diagonal."""
    table = []
    q = 0
    while q * k + 1 <= n - 1:
        d = q * k + 1
        for x in range(n - d):
            table.append((x, x + d, q * (n + k) + 1 + x))
        q += 1
    return tuple(table)


@lru_cache(maxsize=64)
def _column_labels(n: int, k: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Per column x, (labels, cut): the column's labels bottom to top, which is
    increasing order, and cut[h] = how many of them lie strictly below height h."""
    columns: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for cx, cy, label in _cell_label_table(n, k):
        columns[cx].append((cy, label))
    out = []
    for cells in columns:
        cells.sort()
        heights = [cy for cy, _ in cells]
        out.append((tuple(label for _, label in cells),
                    tuple(bisect_left(heights, h) for h in range(n + 1))))
    return tuple(out)


@lru_cache(maxsize=64)
def _step_labels(n: int, k: int) -> dict[str, tuple[int, int, dict[int, tuple[int, ...]]]]:
    """Per step name, (dx, dy * (n+1), taken): a step that starts in column x
    and rises to height y takes taken[y * (n+1) + x], the labels below y in
    the columns x .. x+dx-1 it crosses.  gd_to_ideal fills `taken` on first
    use, so its size follows the points that paths have visited; an entry
    is one assignment of a fixed value, so threads may race to fill it."""
    return {name: (dx, dy * (n + 1), {}) for name, (dx, dy) in _gd_moves(k).items()}


def gd_to_ideal(path: GeneralizedDyckPath, poset: GapPoset | None = None) -> frozenset[int]:
    """Lower ideal of the consecutive poset for {n, ..., n+k} matching the path.

    Collects the diagonal_cell_labels of the cells strictly below the
    inflated path, so the all-vertical-first path maps to the full gap set
    and the diagonal-hugging path to the empty ideal; this orientation is
    the one under which the label sets are downward closed.  The result is
    checked to be a lower ideal; a failure there (InvariantError) means a
    labeling bug, not bad input.
    """
    n, k = path.n, path.k
    if poset is None:
        poset = consecutive_poset(n, k)
    # a step (dx, dy) rises first (D_i inflates to N^i E^i), then runs east
    # at its new height, so it takes the labels below that height in the
    # columns it crosses
    columns, moves = _column_labels(n, k), _step_labels(n, k)
    labels: list[int] = []
    at = 0  # y * (n+1) + x at the current point
    for step in path.steps:
        dx, rise, taken = moves[step]
        at += rise
        got = taken.get(at)
        if got is None:
            y, x = divmod(at, n + 1)
            got = taken[at] = tuple(chain.from_iterable(
                columns[cx][0][:columns[cx][1][y]] for cx in range(x, x + dx)))
        labels += got
        at += dx
    ideal = frozenset(labels)
    if not poset.is_lower_ideal(ideal):
        raise InvariantError(
            f"label set {sorted(ideal)} from path {list(path.steps)} is not a lower "
            f"ideal of P_{list(poset.generators)}; labeling orientation bug"
        )
    return ideal


def gd_size_totals(n: int, k: int) -> tuple[int, int]:
    """(number, total size) of the cores for {n, ..., n+k}, with no path built.

    A dynamic program over the lattice points 0 <= x <= y <= n of
    enumerate_gd's walk, taking the same steps.  Every column is crossed by
    exactly one step with dx > 0, and gd_to_ideal collects that column's
    labels strictly below the height the step ends at, so a step from (x, y)
    to (x+dx, y+dy) adds the labels in columns x .. x+dx-1 below y+dy.

    The first-column hook set I of a core has size |I| = K and sum S, and
    the core has size |lambda| = S - K(K-1)/2.  Each point carries
    (N, sum |lambda|, sum K) over the paths reaching it; a step adding c
    labels of sum sigma adds N sigma - c sum K - N c(c-1)/2 to sum |lambda|
    and N c to sum K.  Polynomial: O(n^2 k) steps.  N is checked against
    multi_catalan(n, k).
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    # below[x][h] = (count, sum) of the labels in column x under height h
    below = []
    for labels, cut in _column_labels(n, k):
        sums = [0, *accumulate(labels)]
        below.append([(c, sums[c]) for c in cut])
    steps = list(_gd_moves(k).values())
    width = n + 1
    moments = [(0, 0, 0)] * (width * width)  # moments[y * width + x]
    moments[0] = (1, 0, 0)
    # every step raises y or keeps y and raises x, so row-major order is topological
    for y in range(n + 1):
        for x in range(y + 1):
            cnt, size_sum, k_sum = moments[y * width + x]
            if not cnt:
                continue
            for dx, dy in steps:
                nx, ny = x + dx, y + dy
                if ny > n or nx > ny:
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
    which carry no labeling.
    """
    if not paths:
        raise ValueError("no paths to render")
    first = paths[0]
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
