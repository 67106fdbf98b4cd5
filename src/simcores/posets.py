"""Gap posets of numerical semigroups, their lower ideals, and multi-Catalan counts.

The poset on the gaps (positive integers not representable over the
generators) has a above b whenever a - b is a generator.  The partial
order is the reflexive-transitive closure of that relation, which on gaps
coincides with "a - b is a nonzero representable integer": if a - b is a sum
of generators, every partial sum from b up to a is itself a gap (otherwise a
would be representable), so the whole chain stays inside the poset.

In that order a covers b exactly when a - b is a minimal generator, one
that is not a sum of two positive representable values: if a - b = x + y
is such a sum, b + x is a gap strictly between them.  So the covers, the
lower-ideal rule and the ideal walk read the minimal generators, and every
other generator only repeats their edges.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress
from operator import mul
from typing import Iterable, Iterator

from .errors import EnumerationCapError, InfinitePosetError, InvariantError, check_cap
from .partitions import CoreModuli, Partition, partition_from_hooks

# the package's one cap: listings fail with EnumerationCapError before their
# first item when they would pass LIST_CAP items, and the counting DP before
# it holds more than LIST_CAP states.  A DP state costs about 140 bytes and a
# residue step holds two state dicts, so the cap must fire before memory runs
# out (about 260 MB at 10^6 states)
LIST_CAP = 10**6

# the binary digits "0" and "1" as the bytes 0 and 1, for itertools.compress
_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")


class GapPoset:
    """Immutable poset of the gaps of a numerical semigroup.

    `generators` is the given set, normalised; `minimal_generators` its
    members that are no sum of two positive representable values, which
    alone give the covers.
    """

    __slots__ = ("generators", "minimal_generators", "gaps", "_gapset", "_gapmask")

    def __init__(self, generators: Iterable[int]):
        self.generators = gens = _finite_moduli(generators)
        self._gapmask = _sieve(gens)
        bits = format(self._gapmask, "b")[::-1]  # bits[m] is "1" exactly when m is a gap
        self.gaps = tuple(compress(range(len(bits)), bits.encode().translate(_DIGIT_VALUES)))
        self._gapset = frozenset(self.gaps)
        # g is minimal unless g - a is representable for a smaller minimal a;
        # past the largest gap plus the smallest generator, g - gens[0] always is
        bound = (self.frobenius_number or 0) + gens[0]
        minimal: list[int] = []
        for g in gens:
            if g > bound:
                break
            if not any(self.is_representable(g - a) for a in minimal):
                minimal.append(g)
        self.minimal_generators = tuple(minimal)

    def is_representable(self, m: int) -> bool:
        """Whether m is a non-negative combination of the generators."""
        return m >= 0 and m not in self._gapset

    @property
    def gap_mask(self) -> int:
        """Bitmask of the gaps: bit m is set exactly when m is a gap."""
        return self._gapmask

    @property
    def frobenius_number(self) -> int | None:
        """Largest gap, or None when every positive integer is representable."""
        return self.gaps[-1] if self.gaps else None

    def leq(self, b: int, a: int) -> bool:
        """b <= a in the gap order (both must be gaps)."""
        if b not in self._gapset or a not in self._gapset:
            raise ValueError(f"{b} and {a} must both be gaps of {list(self.generators)}")
        return b == a or (a - b > 0 and self.is_representable(a - b))

    @property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """The Hasse diagram: every pair of gaps (a, b) with a - b a minimal
        generator, by increasing a, then in generator order.

        Computed on each read; a caller that needs it twice keeps it.
        """
        return tuple((a, c) for a in self.gaps for c in self.lower_covers(a))

    def lower_covers(self, a: int) -> tuple[int, ...]:
        """The gaps a - g over the minimal generators g, in order, for any int a."""
        gapset = self._gapset
        return tuple(a - g for g in self.minimal_generators if a - g in gapset)

    def is_lower_ideal(self, subset: Iterable[int]) -> bool:
        """Whether a set of values is a set of gaps closed downward (is_lower_ideal_mask)."""
        gapset = self._gapset
        mask = 0
        for a in subset:
            if a not in gapset:
                return False
            mask |= 1 << a
        return self.is_lower_ideal_mask(mask)

    def is_lower_ideal_mask(self, mask: int) -> bool:
        """Whether the gaps with a bit set in `mask` form a lower ideal.

        Every bit must be a gap, and the set must be closed under covers,
        which is closure under the order: for each minimal generator g, a
        member a whose a - g is a gap must hold a - g.  Shifting the mask
        right by g moves a to a - g, so that is one test per minimal
        generator.
        """
        gapmask = self._gapmask
        if mask & ~gapmask:
            return False  # a non-gap bit, or a negative mask
        missing = gapmask & ~mask
        for g in self.minimal_generators:
            if mask >> g & missing:
                return False
        return True

    def iter_lower_ideals(self, max_items: int | None = LIST_CAP) -> Iterator[frozenset[int]]:
        """Every lower ideal exactly once, as a frozenset of gap values.

        Deterministic order: gaps are decided in increasing value, exclusion
        branch first, so the empty ideal comes first and the full gap set last.
        Past max_items it fails before the first ideal: the residue DP counts
        them first, with max_items as its state cap too (errors.check_cap).
        """
        check_cap(max_items, lambda: self.count_lower_ideals(max_items), self.ideals_name)
        yield from map(frozenset, self._walk_lower_ideals())

    def iter_core_rows(self, max_items: int | None = LIST_CAP
                       ) -> Iterator[tuple[tuple[int, ...], int, int]]:
        """(parts, size, hook mask) of every lower ideal's core, with no Partition built.

        In iter_lower_ideals order and under its cap; no ideal check is made
        on the way.  Each list the walk yields is the one before cut to some
        depth d and extended by one larger gap h, and gap j of a list is row
        j of the core (partition_from_hooks), counted from the shortest, so
        the new gap adds a new longest row p = h - d.  That row leaves the
        arms and legs of the rows below it unchanged, and its cell in column
        i has hook p + (c_i - i), where c_i is the length of column i of the
        rows below (0 past their width).  So one state per depth gives each
        new row in O(1) integer operations besides prepending it to the
        parts: a mask with bit top + c_i - i set for each column
        0 <= i <= top, the hook mask, the size and the parts.  The new row's
        hooks are the column mask shifted right by top - p: column p, with
        c_p = 0, lands on bit 0 and the columns past it fall below.  The row
        adds 1 to c_i for the columns i < p, whose bits are those above
        top - p, so the column mask doubles its part above that bit.  A cut
        just reads the state at the shorter depth, so only the length and
        the top gap of each list are read.  Only row and column lengths
        enter the hook mask, so it tests a core independently of whether
        the gaps form a lower ideal.
        """
        check_cap(max_items, lambda: self.count_lower_ideals(max_items), self.ideals_name)
        top = (self.frobenius_number or 0) + 1
        # states[d]: (column mask, hook mask, size, parts) of the first d rows;
        # a lower ideal holds at most top - 1 gaps
        states = [((1 << (top + 1)) - 1, 0, 0, ())] * (top + 1)
        for gaps in self._walk_lower_ideals():
            depth = len(gaps)
            if depth:
                columns, hooks, size, parts = states[depth - 1]
                p = gaps[-1] - depth + 1
                cut = top - p
                states[depth] = (columns + (columns >> (cut + 1) << (cut + 1)),
                                 hooks | (columns >> cut) & ~1, size + p, (p,) + parts)
            _, hooks, size, parts = states[depth]
            yield parts, size, hooks

    def ideals_name(self) -> str:
        """The name cap errors give this poset's lower ideals."""
        return f"lower ideals of P_{list(self.generators)}"

    def _walk_lower_ideals(self) -> Iterator[list[int]]:
        """The uncapped walk behind iter_lower_ideals: one list of gaps, reused.

        Bit i of `mask` records whether gaps[i] is in the current ideal, and
        `chosen` holds those gaps in increasing order.  Lower covers have
        smaller indices, so the successor of an ideal includes
        i* = max{i not in mask : the lower covers of gaps[i] are in mask},
        drops the gaps above i* and keeps those below.  `addable` holds that
        set of indices as a bitmask, so i* is its top bit.  Dropping or adding
        a gap changes `addable` only at that gap and its upper covers, at most
        one per minimal generator; each step adds one gap and a gap is dropped
        only after it was added, so an ideal costs amortized
        O(#minimal generators) steps.
        Each yielded `chosen` is the previous one with its top gaps popped
        and one larger gap pushed.
        """
        gaps = self.gaps
        index = {g: i for i, g in enumerate(gaps)}
        lower = [[index[c] for c in self.lower_covers(g)] for g in gaps]
        need = [sum(1 << c for c in cs) for cs in lower]
        ups: list[list[int]] = [[] for _ in gaps]
        for i, cs in enumerate(lower):
            for c in cs:
                ups[c].append(i)
        # complement of the upper covers of each gap, as a bitmask
        not_above = [~sum(1 << u for u in us) for us in ups]
        mask = 0
        addable = sum(1 << i for i, n in enumerate(need) if not n)
        chosen: list[int] = []
        while True:
            yield chosen
            if not addable:
                return  # only the full gap set has no addable gap
            i = addable.bit_length() - 1
            # drop the gaps above i from the top, so the mask stays an ideal;
            # a dropped gap is addable again and its upper covers are not
            while mask >> i:
                top = mask.bit_length() - 1
                mask ^= 1 << top
                chosen.pop()
                addable = (addable | 1 << top) & not_above[top]
            mask |= 1 << i
            addable ^= 1 << i
            chosen.append(gaps[i])
            for u in ups[i]:
                if need[u] & mask == need[u]:
                    addable |= 1 << u

    def count_lower_ideals(self, max_states: int | None = LIST_CAP) -> int:
        """Number of lower ideals: the N of core_size_totals' residue-class DP,
        under the same state cap.

        Independent of the closed multi-Catalan recursion.
        """
        return self.core_size_totals(max_states)[0]

    def core_size_totals(self, max_states: int | None = LIST_CAP) -> tuple[int, int]:
        """(number, total size) of the simultaneous cores, by a DP over the residues mod m.

        No ideal is built.  With m = min(generators), the gaps = r (mod m)
        form the chain r, r + m, ..., r + (n_r - 1) m that ends just below
        the Apery element of r (class 0 has none), and a lower ideal, closed
        under subtracting m, meets that chain in its h_r lowest gaps,
        0 <= h_r <= n_r.  For every other generator g,
        r + i m - g = r' + (i - c) m with r' = (r - g) mod m and
        c = (g - r + r') / m, which is a gap whenever i >= c (a gap minus a
        generator is never representable), so closure under subtracting g
        is the difference constraint h_r' >= h_r - c.  It is vacuous when r' = 0, when g is a multiple of
        m (r' = r, c > 0) and when c >= n_r, and those are dropped.  The
        ideals are the height vectors that meet every constraint left.

        The residues are taken in the order j (g_1 mod m), j = 1 .. m-1,
        when g_1 mod m is a unit, else 1 .. m-1; any order counts right, and
        this one makes the constraints of a pair a path and those of a
        consecutive run {s, ..., s+k} reach back k residues, so both are
        polynomial.  A state is the tuple of the heights of the residues
        already taken that a later residue still constrains, and carries
        (N, sum |lambda|, sum K) over its partial ideals.  An ideal of K
        gaps with sum S is the first-column hook set of a core of size
        |lambda| = S - K(K-1)/2 (ideal_to_core), so taking the h gaps of
        class r, of sum sigma = h r + m h(h-1)/2, adds
        N sigma - h sum K - N h(h-1)/2 to sum |lambda| and N h to sum K, as
        in paths._walk_size_totals.  It reads every generator, where the
        walk reads only the minimal ones, so it counts the walk's ideals
        independently.  Valid for any generators; it raises
        EnumerationCapError when a residue step is about to add a state past
        max_states (LIST_CAP by default, None for no cap), so no step holds
        more than max_states states.
        """
        gens = self.generators
        m = gens[0]
        n = [0] * m
        for a in self.gaps:
            n[a % m] += 1
        # slack[r][r2] = c of the tightest constraint h_r2 >= h_r - c
        slack: list[dict[int, int]] = [{} for _ in range(m)]
        for g in gens[1:]:
            for r in range(1, m):
                r2 = (r - g) % m
                c = (g - r + r2) // m
                if r2 and r2 != r and c < n[r]:
                    slack[r][r2] = min(c, slack[r].get(r2, c))
        unit = gens[1] % m if m > 1 else 1
        order = ([j * unit % m for j in range(1, m)] if math.gcd(unit, m) == 1
                 else list(range(1, m)))
        step = {r: j for j, r in enumerate(order)}
        # the last step at which a residue is constrained; its height stays
        # in the key until then
        last = dict(step)
        for r in order:
            for r2 in slack[r]:
                j = max(step[r], step[r2])
                last[r], last[r2] = max(last[r], j), max(last[r2], j)
        live: list[int] = []  # the residues whose heights make up the key
        limit = math.inf if max_states is None else max_states
        states: dict[tuple[int, ...], tuple[int, int, int]] = {(): (1, 0, 0)}
        for j, r in enumerate(order):
            # h_r <= h_r2 + c for r's own constraints on residues taken
            # before, h_r >= h_r1 - c for theirs on r; both are in the key
            upper = [(live.index(r2), c) for r2, c in slack[r].items() if step[r2] < j]
            lower = [(i, slack[r1][r]) for i, r1 in enumerate(live) if r in slack[r1]]
            keep = [i for i, r1 in enumerate(live) if last[r1] > j]
            stays = last[r] > j
            live = [live[i] for i in keep] + [r] * stays
            nxt: dict[tuple[int, ...], tuple[int, int, int]] = {}
            for key, (cnt, size_sum, k_sum) in states.items():
                lo = max([0] + [key[i] - c for i, c in lower])
                hi = min([n[r]] + [key[i] + c for i, c in upper])
                base = tuple(key[i] for i in keep)
                for h in range(lo, hi + 1):
                    half = h * (h - 1) // 2
                    sigma = h * r + m * half
                    here = (cnt, size_sum + cnt * sigma - h * k_sum - cnt * half, k_sum + cnt * h)
                    new_key = base + (h,) if stays else base
                    old = nxt.get(new_key)
                    if old is not None:
                        here = (old[0] + here[0], old[1] + here[1], old[2] + here[2])
                    elif len(nxt) >= limit:
                        raise EnumerationCapError(
                            f"ideal-counting state space for P_{list(gens)}", max_states)
                    nxt[new_key] = here
            states = nxt
        # every height has left the key, so one state holds all the ideals
        count, size_sum, _ = states[()]
        return count, size_sum

    def to_dot(self) -> str:
        """DOT digraph of the Hasse diagram; edges point from each gap up to its covers."""
        lines = ["digraph gap_poset {", "  rankdir=BT;", "  node [shape=circle];"]
        for g in self.gaps:
            lines.append(f"  {g};")
        for a, b in sorted(self.covers, key=lambda e: (e[1], e[0])):
            lines.append(f"  {b} -> {a};")
        lines.append("}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "generators": list(self.generators),
            "gaps": list(self.gaps),
            "covers": [[a, b] for a, b in self.covers],
        }

    def __repr__(self) -> str:
        return f"GapPoset(generators={list(self.generators)}, gaps={len(self.gaps)})"


def _finite_moduli(generators: Iterable[int]) -> CoreModuli:
    gens = CoreModuli(generators)
    g = math.gcd(*gens)
    if g > 1:
        raise InfinitePosetError(gens, g)
    return gens


def semigroup_gap_mask(generators: Iterable[int]) -> int:
    """GapPoset(generators).gap_mask, with no poset built and none cached."""
    return _sieve(_finite_moduli(generators))


def _sieve(gens: CoreModuli) -> int:
    """Bitmask of the gaps: bit m set exactly when m is not representable.

    Below a bound B, one bitmask of the representable values starts at {0}
    and is closed under +g for each generator g in turn by doubling shifts
    (g, 2g, 4g, ... below B), so after g it holds every x + jg below B.
    Every bit below B is then exact.  Once min(gens) consecutive values are
    representable, every larger value is too (keep adding the smallest
    generator), so the mask is complete when the values above its top gap
    and below B are at least min(gens) many; until then B doubles.  The
    cost follows the Frobenius number, not the largest generator: a
    generator at or past B shifts nothing in.
    """
    smallest = gens[0]
    bound = 2 * smallest
    while True:
        full = (1 << bound) - 1
        rep = 1
        for g in gens:
            if g >= bound:
                break  # the generators are increasing
            shift = g
            while shift < bound:
                rep = (rep | rep << shift) & full
                shift <<= 1
        gapmask = full & ~rep
        if bound - gapmask.bit_length() >= smallest:
            return gapmask
        bound *= 2


def build_gap_poset(generators: Iterable[int]) -> GapPoset:
    """GapPoset for a generator set; requires gcd 1 (finite gap set)."""
    return _cached_poset(CoreModuli(generators))


@lru_cache(maxsize=512)
def _cached_poset(generators: CoreModuli) -> GapPoset:
    return GapPoset(generators)


def consecutive_poset(s: int, p: int) -> GapPoset:
    """Gap poset of the consecutive run {s, s+1, ..., s+p}."""
    if s < 1 or p < 1:
        raise ValueError(f"need s >= 1 and p >= 1, got s={s}, p={p}")
    return build_gap_poset(range(s, s + p + 1))


# p -> [M(0), M(1), ...]; a list is never mutated once published here
_MULTI_CATALAN: dict[int, list[int]] = {}


def multi_catalan(s: int, p: int) -> int:
    """Number of lower ideals of the consecutive poset for {s, ..., s+p}.

    First-return rule M(s) = sum_{i=1..s} M(i-p) M(s-i), with M(s) = 1 for
    s <= 0; p = 1 gives Catalan numbers and p = 2 gives Motzkin numbers.
    One table per p is kept and grown bottom-up on demand.
    """
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    if s <= 0:
        return 1
    table = _MULTI_CATALAN.get(p, [1])
    if s >= len(table):
        # extend a private copy and publish it by one assignment, so that
        # --jobs worker threads never see a half-built table
        table = list(table)
        for n in range(len(table), s + 1):
            # i <= p contributes M(n-i); i = p+j contributes M(j) M(m-j), m = n-p
            m = max(n - p, 0)
            table.append(sum(table[m:n]) + sum(map(mul, table[1:m + 1], reversed(table[:m]))))
        _MULTI_CATALAN[p] = table
    return table[s]


def ideal_to_core(poset: GapPoset, ideal: Iterable[int]) -> Partition:
    """Partition whose first-column hook lengths are the ideal's elements."""
    elems = frozenset(ideal)
    if not poset.is_lower_ideal(elems):
        raise ValueError(
            f"{sorted(elems)} is not a lower ideal of P_{list(poset.generators)}"
        )
    return partition_from_hooks(elems)


def core_to_ideal(p: Partition, poset: GapPoset) -> frozenset[int]:
    """First-column hook set of a simultaneous core, as a lower ideal.

    Rejects partitions that are not cores for the poset's generators,
    naming the offending hook and divisor.
    """
    p.check_multicore(poset.generators)
    hooks = p.first_column_hooks()
    if not poset.is_lower_ideal(hooks):
        raise InvariantError(
            f"hook set {sorted(hooks)} of a verified core is not an ideal; "
            "this indicates an internal ordering bug"
        )
    return hooks
