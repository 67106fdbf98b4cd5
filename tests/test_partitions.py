import random
from itertools import combinations

import pytest

from simcores.errors import EnumerationCapError, NotACoreError
from simcores.partitions import (
    CoreModuli,
    Partition,
    count_subpartitions,
    partition_from_hooks,
    partitions_in_box,
    render_ferrers,
    subpartitions,
)
from simcores.verify import kreweras_count


def all_partitions_of(n):
    # independent generator of the partitions of n
    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


def test_constructor():
    assert Partition((3, 2, 2)).parts == (3, 2, 2)
    assert Partition((3, 1, 0, 0)).parts == (3, 1)
    assert Partition().parts == ()
    assert Partition().size == 0
    assert Partition((4, 1)).size == 5
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_constructor_error_messages():
    for parts, message in [
        ([3, 0, 1], "partition parts must be positive, got 0"),
        ([1, 2], "parts must be weakly decreasing, got [1, 2]"),
        ([2, -1], "partition parts must be positive, got -1"),
        ([3, 1, 2, 0], "parts must be weakly decreasing, got [3, 1, 2]"),
        ([0, 0, -2], "partition parts must be positive, got 0"),
    ]:
        with pytest.raises(ValueError) as err:
            Partition(parts)
        assert str(err.value) == message, parts


def test_hook_length_examples():
    big = Partition((6, 3, 1, 1))
    assert big.hook_length(1, 1) == 9
    assert Partition((1,)).hook_length(1, 1) == 1
    assert Partition((2, 1)).hook_length(1, 1) == 3
    with pytest.raises(ValueError):
        big.hook_length(2, 4)
    with pytest.raises(ValueError):
        big.hook_length(5, 1)


def test_hooks_against_direct_count():
    # oracle: count cells east in the row and north in the column directly
    for parts in [(6, 3, 1, 1), (4, 4, 2), (5,), (2, 2, 2, 2), (3, 1)]:
        p = Partition(parts)
        expected = []
        for i, row in enumerate(p.parts, start=1):
            for j in range(1, row + 1):
                east = row - j
                north = sum(1 for other in p.parts[i:] if other >= j)
                expected.append(east + north + 1)
        assert list(p.hooks()) == expected
        for i, row in enumerate(p.parts, start=1):
            for j in range(1, row + 1):
                east = row - j
                north = sum(1 for other in p.parts[i:] if other >= j)
                assert p.hook_length(i, j) == east + north + 1


def test_is_core_examples():
    assert Partition((6, 3, 1, 1)).is_core(4)
    assert Partition().is_core(3)
    for s in (5, 7, 13):
        assert Partition((8, 4, 3, 1)).is_core(s)
    assert not Partition((2, 1)).is_core(3)
    assert not Partition((1,)).is_core(1)


def test_is_multicore_examples():
    assert Partition((8, 4, 3, 1)).is_multicore({5, 7, 13})
    assert Partition((1,)).is_multicore({2, 3})
    assert not Partition((1,)).is_multicore({1})
    assert not Partition((2, 1)).is_multicore({3})
    with pytest.raises(ValueError):
        Partition((1,)).is_multicore(set())


def test_check_multicore_reports_offender():
    with pytest.raises(NotACoreError) as err:
        Partition((2, 1)).check_multicore({3, 5})
    assert err.value.hook == 3
    assert err.value.divisor == 3


def direct_hook_grid(p):
    # oracle: arm + leg + 1, counting cells east and north one by one
    return [
        [(row - j) + sum(1 for other in p.parts[i:] if other >= j) + 1 for j in range(1, row + 1)]
        for i, row in enumerate(p.parts, start=1)
    ]


def first_divisible_by_scan(grid, gens):
    # oracle: row-major cells, increasing generators, plain % per pair
    for row in grid:
        for h in row:
            for g in sorted(gens):
                if h % g == 0:
                    return h, g
    return None


def test_column_lengths_match_the_direct_definition():
    for n in range(21):
        for parts in all_partitions_of(n):
            expected = tuple(
                sum(1 for part in parts if part >= j) for j in range(1, (parts[0] if parts else 0) + 1)
            )
            assert Partition(parts).column_lengths() == expected, parts


def test_hook_bitmask_agrees_with_a_cell_scan():
    gen_sets = [gens for size in (1, 2, 3) for gens in combinations(range(1, 10), size)]
    for n in range(15):
        for parts in all_partitions_of(n):
            p = Partition(parts)
            grid = direct_hook_grid(p)
            for gens in gen_sets:
                found = first_divisible_by_scan(grid, gens)
                assert p.is_multicore(gens) == (found is None), (parts, gens)
                if found is None:
                    p.check_multicore(gens)
                else:
                    with pytest.raises(NotACoreError) as err:
                        p.check_multicore(gens)
                    assert (err.value.hook, err.value.divisor) == found, (parts, gens)
                if len(gens) == 1:
                    assert p.is_core(gens[0]) == (found is None), (parts, gens)
    rng = random.Random(20141)
    for _ in range(500):
        p = Partition(sorted((rng.randint(1, 60) for _ in range(rng.randint(1, 40))), reverse=True))
        grid = direct_hook_grid(p)
        for gens in ((2,), (3, 7), (5, 11, 13)):
            assert p._first_divisible_hook(gens) == first_divisible_by_scan(grid, gens), (p, gens)
    # 500 to 1,000 rows: for some single moduli the first offender sits
    # dozens of rows and over a thousand cells into row-major order, and one
    # above the largest hook finds none after searching every row
    for _ in range(3):
        p = Partition(sorted((rng.randint(1, 60) for _ in range(rng.randint(500, 1000))), reverse=True))
        grid = direct_hook_grid(p)
        top = grid[0][0] + 1
        for gens in [(2,), (3, 7), (5, 11, 13), *((g,) for g in range(2, top + 1))]:
            assert p._first_divisible_hook(gens) == first_divisible_by_scan(grid, gens), (len(p), gens)


def test_hook_bitmask_edge_cases():
    assert Partition().is_multicore({1})
    Partition().check_multicore({1, 2})
    for p in (Partition([40]), Partition([1] * 40)):
        # hooks 40, 39, ..., 1 in row-major order
        assert p.is_multicore({41, 50}) and p.is_core(41)
        assert not p.is_core(40) and not p.is_multicore({40, 41})
        with pytest.raises(NotACoreError) as err:
            p.check_multicore({3, 37})
        assert (err.value.hook, err.value.divisor) == (39, 3)
    # generator 1 divides the first hook of any non-empty partition
    for parts in ((1,), (6, 3, 1, 1), (2, 2)):
        p = Partition(parts)
        with pytest.raises(NotACoreError) as err:
            p.check_multicore({1, 5})
        assert (err.value.hook, err.value.divisor) == (p.hook_length(1, 1), 1)
    # generators above every hook (the largest is 9)
    assert Partition((6, 3, 1, 1)).is_multicore({10, 11, 12})
    # the only even hook is the 2 in the fifth cell of the longest row; its
    # column sits 7 bits below the row bitmask, so only the right shift finds it
    staircase_plus = Partition((6, 3, 2, 1))
    assert [h for h in staircase_plus.hooks() if h % 2 == 0] == [2]
    assert staircase_plus.hook_length(1, 5) == 2
    assert not staircase_plus.is_core(2)
    with pytest.raises(NotACoreError) as err:
        staircase_plus.check_multicore({2, 10})
    assert (err.value.hook, err.value.divisor) == (2, 2)
    assert str(err.value) == (
        "partition [6, 3, 2, 1] has hook length 2 divisible by 2, so it is not a 2-core"
    )


def test_core_moduli_normalise_once():
    gens = CoreModuli([7, 3, 3, 5])
    assert gens == (3, 5, 7)
    assert CoreModuli(gens) is gens
    assert gens.multiples_below(11) == sum(1 << m for m in (3, 5, 6, 7, 9, 10))
    assert CoreModuli([4]).multiples_below(4) == 0
    assert CoreModuli([3]).multiples_below(0) == 0
    assert CoreModuli(range(5, 3006)).multiples_below(5) == 0
    for bad, message in [([], "generator set must be non-empty"),
                         ([0, 3], "generators must be >= 1, got 0"),
                         ([-2, 5], "generators must be >= 1, got -2")]:
        with pytest.raises(ValueError) as err:
            Partition((2, 1)).is_multicore(bad)
        assert str(err.value) == message



def test_partition_rejects_non_integral_parts():
    with pytest.raises(TypeError):
        Partition([2.5, 1.9])


def test_multicore_rejects_non_integral_generators():
    with pytest.raises(TypeError):
        Partition((2, 1)).is_multicore([3.9])


def test_partition_from_hooks_rejects_non_integral_hooks():
    with pytest.raises(TypeError):
        partition_from_hooks([2.5])


def test_first_column_hooks():
    assert Partition((6, 3, 1, 1)).first_column_hooks() == {1, 2, 5, 9}
    assert Partition().first_column_hooks() == frozenset()
    assert Partition((8, 4, 3, 1)).first_column_hooks() == {1, 4, 6, 11}


def test_partition_from_hooks():
    assert partition_from_hooks({1, 4, 6, 11}) == Partition((8, 4, 3, 1))
    assert partition_from_hooks(set()) == Partition()
    assert partition_from_hooks({1, 2, 3, 7}) == Partition((4, 1, 1, 1))
    with pytest.raises(ValueError):
        partition_from_hooks({0, 2})


def test_hook_round_trips():
    for n in range(21):
        for parts in all_partitions_of(n):
            p = Partition(parts)
            assert partition_from_hooks(p.first_column_hooks()) == p
    for mask in range(1 << 10):
        hooks = frozenset(i + 1 for i in range(10) if mask >> i & 1)
        p = partition_from_hooks(hooks)
        assert p.first_column_hooks() == hooks
        assert Partition(p.parts) == p  # built unchecked; must pass the constructor's checks


def test_is_core_scan_agrees_with_hook_set_criterion():
    # oracle: h in H and h >= s forces h - s in H (0 is never in H)
    def core_by_hookset(p, s):
        hooks = p.first_column_hooks()
        return all(h < s or (h - s) in hooks for h in hooks)

    for n in range(16):
        for parts in all_partitions_of(n):
            p = Partition(parts)
            for s in range(1, 8):
                assert p.is_core(s) == core_by_hookset(p, s), (parts, s)


def test_subpartitions_examples():
    found = set(subpartitions(Partition((2, 1))))
    assert found == {
        Partition(),
        Partition((1,)),
        Partition((2,)),
        Partition((1, 1)),
        Partition((2, 1)),
    }
    assert list(subpartitions(Partition())) == [Partition()]
    assert sum(1 for _ in subpartitions(Partition((2, 1, 1)))) == 7


def test_subpartitions_cap():
    with pytest.raises(EnumerationCapError):
        list(subpartitions(Partition((3, 3, 3)), max_items=5))


def test_count_subpartitions_matches_enumeration():
    for parts in [(), (1,), (3, 2), (2, 1, 1), (4, 4, 4), (5, 3, 2, 1)]:
        p = Partition(parts)
        assert count_subpartitions(p) == sum(1 for _ in subpartitions(p))


def test_subpartition_count_matches_determinant():
    for p in partitions_in_box(4, 4):
        assert count_subpartitions(p) == kreweras_count(p)


def test_partitions_in_box_count():
    assert sum(1 for _ in partitions_in_box(5, 5)) == 252
    assert sum(1 for _ in partitions_in_box(4, 4)) == 70
    for sides in ((-1, 3), (3, -1)):
        with pytest.raises(ValueError, match="box sides must be >= 0"):
            partitions_in_box(*sides)


def box_partitions_reference(max_parts, max_part):
    # independent recursive generator: each prefix, then its extensions by 1..cap
    def rec(rows_left, cap, prefix):
        yield tuple(prefix)
        if rows_left:
            for v in range(1, cap + 1):
                yield from rec(rows_left - 1, v, prefix + [v])

    return list(rec(max_parts, max_part, []))


def test_partitions_in_box_order():
    for m in range(6):
        for n in range(6):
            assert [p.parts for p in partitions_in_box(m, n)] == box_partitions_reference(m, n)


def test_long_shapes_do_not_hit_the_recursion_limit():
    column = Partition([1] * 1500)
    assert count_subpartitions(column) == 1501
    assert sum(1 for _ in subpartitions(column)) == 1501


def test_render_ferrers():
    p = Partition((2, 1))
    assert render_ferrers(p) == "*\n* *"
    assert render_ferrers(p, orientation="english") == "* *\n*"
    hooks = render_ferrers(p, hooks=True)
    assert hooks.splitlines() == ["1", "3 1"]
    assert render_ferrers(Partition()) == "(empty partition)"
    with pytest.raises(ValueError):
        render_ferrers(p, orientation="sideways")


def test_render_ferrers_hooks_match_per_cell_hook_lengths():
    for n in range(1, 13):
        for parts in all_partitions_of(n):
            p = Partition(parts)
            grid = [
                [p.hook_length(i, j) for j in range(1, part + 1)]
                for i, part in enumerate(parts, start=1)
            ]
            width = max(len(str(h)) for row in grid for h in row)
            lines = [" ".join(str(h).rjust(width) for h in row).rstrip() for row in grid]
            assert render_ferrers(p, hooks=True, orientation="english") == "\n".join(lines)
            assert render_ferrers(p, hooks=True) == "\n".join(reversed(lines))
