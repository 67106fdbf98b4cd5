import itertools
import math
import random
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from simcores.errors import EnumerationCapError, InfinitePosetError, NotACoreError
from simcores.exact import binomial, catalan_number
import simcores.posets as posets_mod
from simcores.partitions import Partition, count_subpartitions, partition_from_hooks, subpartitions
from simcores.posets import (
    GapPoset,
    build_gap_poset,
    consecutive_poset,
    core_to_ideal,
    ideal_to_core,
    multi_catalan,
)
from simcores.verify import popoviciu


def brute_gaps(gens, bound):
    # oracle: coin-style reachability up to the bound
    reachable = [False] * (bound + 1)
    reachable[0] = True
    for m in range(1, bound + 1):
        reachable[m] = any(m >= g and reachable[m - g] for g in gens)
    return [m for m in range(1, bound + 1) if not reachable[m]]


def test_gap_sets():
    assert build_gap_poset((5, 7, 13)).gaps == (1, 2, 3, 4, 6, 8, 9, 11, 16)
    assert build_gap_poset((1,)).gaps == ()
    p57 = build_gap_poset((5, 7))
    assert len(p57.gaps) == 12
    assert p57.frobenius_number == 23
    assert build_gap_poset((2, 3)).gaps == (1,)


def test_gaps_match_brute_force():
    for gens in [(5, 7, 13), (5, 7), (3, 4), (2, 7), (4, 5, 6), (6, 7, 8, 9, 10, 11)]:
        poset = build_gap_poset(gens)
        assert list(poset.gaps) == brute_gaps(gens, 200)
        for m in range(60):
            assert poset.is_representable(m) == (m not in set(brute_gaps(gens, 60)) and m >= 0)


def reference_gap_mask(gens):
    # per-value sieve, extended until min(gens) consecutive values are
    # representable; bit m of the result is set when m is a gap
    reachable = [True]
    run = 0
    while run < gens[0]:
        m = len(reachable)
        reachable.append(any(m >= g and reachable[m - g] for g in gens))
        run = run + 1 if reachable[-1] else 0
    return sum(1 << m for m, hit in enumerate(reachable) if not hit)


def test_sieve_matches_a_per_value_reference_on_every_small_set():
    sets = [gens for n in range(1, 5) for gens in itertools.combinations(range(1, 19), n)
            if math.gcd(*gens) == 1]
    assert len(sets) == 3733
    for gens in sets:
        poset = GapPoset(gens)
        mask = reference_gap_mask(gens)
        assert poset.gap_mask == mask, gens
        assert poset.gaps == tuple(m for m in range(mask.bit_length()) if mask >> m & 1), gens
        assert poset.frobenius_number == (mask.bit_length() - 1 if mask else None), gens


def test_sieve_cost_follows_the_frobenius_number_not_the_largest_generator():
    # a sieve bounded by the largest generator would scan past 5_000_000 and
    # 10**9; these bounds are generous against a build of a few ms and 0.1 s
    start = time.perf_counter()
    poset = GapPoset((2, 3, 5_000_000))
    assert time.perf_counter() - start < 1.0
    assert poset.gaps == (1,) and poset.is_representable(4_999_999)
    start = time.perf_counter()
    poset = GapPoset((1000, 1001, 10**9))
    assert time.perf_counter() - start < 5.0
    # 10**9 lies past the Frobenius number of (1000, 1001), so it adds nothing
    assert poset.frobenius_number == 1000 * 1001 - 1000 - 1001
    assert len(poset.gaps) == 999 * 1000 // 2
    assert not poset.is_representable(998_999) and poset.is_representable(999_000)


def cover_views(poset):
    values = range(-1, (poset.frobenius_number or 0) + 3)
    return (poset.covers, [poset.lower_covers(a) for a in values], poset.to_dot(),
            poset.to_json_dict())


def test_a_poset_answers_gap_questions_without_building_its_covers():
    for gens in [(5, 7, 13), (5, 7), (4, 5, 6), (1,)]:
        poset = GapPoset(gens)
        gaps = brute_gaps(gens, 200)
        assert list(poset.gaps) == gaps
        assert poset.frobenius_number == (gaps[-1] if gaps else None)
        assert [m for m in range(-3, 201) if not poset.is_representable(m)] == [-3, -2, -1] + gaps


def test_shared_posets_read_the_same_across_threads():
    gens_list = [(5, 7, 13), (7, 9), (6, 7, 8), (4, 9, 11)] * 8
    expected = {gens: cover_views(GapPoset(gens)) for gens in set(gens_list)}
    # shared posets that every thread walks and reads at once
    shared = {gens: GapPoset(gens) for gens in expected}

    def read(gens):
        poset = shared[gens]
        walked = sum(1 for _ in poset.iter_lower_ideals())
        return walked, cover_views(poset)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(read, gens_list, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for gens, (walked, views) in zip(gens_list, got):
        assert views == expected[gens], gens
        assert walked == GapPoset(gens).count_lower_ideals(), gens


def test_infinite_poset_rejected():
    with pytest.raises(InfinitePosetError) as err:
        build_gap_poset((4, 6))
    assert err.value.gcd == 2
    with pytest.raises(ValueError):
        build_gap_poset(())


def test_non_integral_generators_rejected():
    with pytest.raises(TypeError):
        build_gap_poset([3.5, 5.2])  # never truncated to (3, 5)


def test_frobenius_matches_formula_for_pairs():
    for s, t in [(2, 3), (3, 4), (5, 7), (7, 9), (5, 11)]:
        assert build_gap_poset((s, t)).frobenius_number == s * t - s - t


def test_covers_definition():
    poset = build_gap_poset((5, 7, 13))
    gapset = set(poset.gaps)
    expected = {
        (a, b) for a in gapset for b in gapset if a - b in {5, 7, 13}
    }
    assert set(poset.covers) == expected
    assert set(poset.lower_covers(16)) == {3, 9, 11}


def brute_minimal_generators(gens):
    # oracle: the generators that are not a sum of two positive representable values
    top = max(gens)
    gaps = set(brute_gaps(gens, top))
    return tuple(g for g in gens
                 if not any(x not in gaps and g - x not in gaps for x in range(1, g)))


def test_covers_match_brute_force_in_order_and_are_the_hasse_diagram():
    # pairs, runs, sets with one generator the sum of two others or of three
    # (9 = 3+3+3, 6 = 2+2+2), and sets holding 1, which have no gaps
    sets = [(2, 3), (3, 4), (3, 5), (5, 7), (4, 9), (7, 9), (3, 4, 5), (4, 5, 6), (5, 6, 7),
            (7, 8, 9, 10), (6, 7, 8, 9, 10, 11), (4, 5, 9), (3, 5, 8), (5, 7, 12),
            (5, 7, 13), (4, 9, 11), (3, 9, 10), (2, 6, 8, 9), (1, 4), (1,)]
    for gens in sets:
        poset = GapPoset(gens)
        gaps = brute_gaps(gens, 200)
        gapset = set(gaps)
        minimal = brute_minimal_generators(gens)
        assert list(poset.gaps) == gaps, gens
        # covers by increasing a, then in increasing generator order
        assert poset.covers == tuple(
            (a, a - g) for a in gaps for g in minimal if a - g in gapset), gens
        top = gaps[-1] if gaps else 0
        for a in range(-1, top + 3):
            assert poset.lower_covers(a) == tuple(
                a - g for g in minimal if a - g in gapset), (gens, a)
        # Hasse diagram of the order "a - b is representable": b below a with
        # no gap strictly between them in that order
        below = {a: {b for b in gaps if b < a and a - b not in gapset} for a in gaps}
        hasse = {(a, b) for a in gaps for b in below[a]
                 if not any(b in below[c] for c in below[a])}
        assert set(poset.covers) == hasse, gens
        edges = [tuple(map(int, line.strip(" ;").split(" -> ")))
                 for line in poset.to_dot().splitlines() if "->" in line]
        assert len(edges) == len(set(edges)), gens
        assert {(a, b) for b, a in edges} == hasse, gens


def test_minimal_generators_and_the_walk_over_every_small_set():
    sets = [gens for size in (2, 3, 4) for gens in itertools.combinations(range(2, 15), size)
            if math.gcd(*gens) == 1]
    assert len(sets) == 976
    walked = 0
    for gens in sets:
        poset = GapPoset(gens)
        assert poset.minimal_generators == brute_minimal_generators(gens), gens
        # the residue DP reads every generator, the walk only the minimal
        # ones; every set with a non-minimal generator has at most 3,876
        # ideals, and the 14 sets past 5,000 have only minimal generators
        count = poset.count_lower_ideals()
        if count <= 5000:
            assert sum(1 for _ in poset.iter_lower_ideals(None)) == count, gens
            walked += 1
    assert walked == 962
    # a long run: the walk and the ideal test read two generators, not 3001
    poset = GapPoset(range(2, 3003))
    assert poset.generators == tuple(range(2, 3003))
    assert poset.minimal_generators == (2, 3)
    assert poset.covers == () and poset.count_lower_ideals() == 2


def test_order_is_transitive_closure_of_covers():
    # oracle: reachability over cover edges
    for gens in [(5, 7, 13), (5, 7), (4, 5, 6), (3, 8), (4, 9)]:
        poset = build_gap_poset(gens)
        up = {g: set() for g in poset.gaps}
        for a, b in poset.covers:
            up[b].add(a)
        for b in poset.gaps:
            reach = set()
            frontier = [b]
            while frontier:
                cur = frontier.pop()
                for nxt in up[cur]:
                    if nxt not in reach:
                        reach.add(nxt)
                        frontier.append(nxt)
            for a in poset.gaps:
                assert poset.leq(b, a) == (a == b or a in reach), (gens, a, b)


def test_leq_rejects_non_gaps():
    poset = build_gap_poset((2, 3))
    with pytest.raises(ValueError):
        poset.leq(1, 5)


def test_ideal_counts():
    assert sum(1 for _ in build_gap_poset((2, 3)).iter_lower_ideals()) == 2
    assert sum(1 for _ in build_gap_poset((3, 4, 5)).iter_lower_ideals()) == 4
    p57 = build_gap_poset((5, 7))
    assert sum(1 for _ in p57.iter_lower_ideals()) == 66
    assert p57.count_lower_ideals() == 66 == binomial(12, 5) // 12
    assert build_gap_poset((1, 4)).count_lower_ideals() == 1  # no gaps: only the empty ideal


def test_ideal_enumeration_is_deterministic_and_valid():
    poset = build_gap_poset((5, 7, 13))
    ideals = list(poset.iter_lower_ideals())
    assert ideals[0] == frozenset()
    assert ideals[-1] == frozenset(poset.gaps)
    assert ideals == list(poset.iter_lower_ideals())
    assert len(set(ideals)) == len(ideals)
    for ideal in ideals:
        assert poset.is_lower_ideal(ideal)
    assert not poset.is_lower_ideal({16})
    assert not poset.is_lower_ideal({1, 99})


def cover_closed(poset, subset):
    # the cover-closure rule: every member is a gap and holds its lower covers
    ideal = frozenset(subset)
    gaps = frozenset(poset.gaps)
    return ideal <= gaps and all(c in ideal for a in ideal for c in poset.lower_covers(a))


def test_is_lower_ideal_matches_the_cover_closure_rule():
    rng = random.Random(14)
    cases = []
    for gens in [(3, 5), (4, 7), (5, 6, 7)]:
        poset = build_gap_poset(gens)
        subsets = itertools.chain.from_iterable(
            itertools.combinations(poset.gaps, r) for r in range(len(poset.gaps) + 1))
        cases.append((poset, list(subsets)))
    poset = consecutive_poset(12, 2)
    ideals = [sorted(ideal) for ideal in itertools.islice(poset.iter_lower_ideals(), 0, None, 97)]
    cases.append((poset, [rng.sample(poset.gaps, rng.randrange(len(poset.gaps) + 1))
                          for _ in range(2000)] + ideals))
    for poset, subsets in cases:
        n_ideals = 0
        for subset in subsets:
            want = cover_closed(poset, subset)
            assert poset.is_lower_ideal(subset) == want, (poset, subset)
            assert poset.is_lower_ideal_mask(sum(1 << a for a in subset)) == want, (poset, subset)
            n_ideals += want
        assert 0 < n_ideals < len(subsets), poset
    poset = build_gap_poset((3, 5))
    assert poset.is_lower_ideal([]) and poset.is_lower_ideal_mask(0)
    for bad in ([0], [3], [-1], [1, -2], [1, 8], [1, 99]):
        assert not poset.is_lower_ideal(bad), bad
    assert not poset.is_lower_ideal_mask(1)  # 0 is not a gap
    assert not poset.is_lower_ideal_mask(-1 << 1)  # nor is any negative bit pattern
    assert not poset.is_lower_ideal_mask(1 << 8)


def recursive_lower_ideals(poset):
    # reference: the include/exclude recursion, exclusion branch first
    gaps = poset.gaps
    included = set()
    out = []

    def rec(i):
        if i == len(gaps):
            out.append(frozenset(included))
            return
        rec(i + 1)
        if all(c in included for c in poset.lower_covers(gaps[i])):
            included.add(gaps[i])
            rec(i + 1)
            included.discard(gaps[i])

    rec(0)
    return out


def test_ideal_enumeration_matches_recursive_reference():
    for gens in [(5, 7), (4, 6, 9), (12, 13, 14), (2, 3), (1,), (3, 4, 5)]:
        poset = build_gap_poset(gens)
        assert list(poset.iter_lower_ideals()) == recursive_lower_ideals(poset), gens


def top_down_scan_lower_ideals(poset):
    # reference: the scan the successor rule replaced; after each ideal, clear
    # included gaps from the top until an excluded gap whose lower covers are
    # all included, then include that gap
    gaps = poset.gaps
    index = {g: i for i, g in enumerate(gaps)}
    need = [sum(1 << index[c] for c in poset.lower_covers(g)) for g in gaps]
    mask = 0
    out = []
    while True:
        out.append(frozenset(g for i, g in enumerate(gaps) if mask >> i & 1))
        i = len(gaps) - 1
        while i >= 0:
            if mask >> i & 1:
                mask ^= 1 << i
            elif need[i] & mask == need[i]:
                break
            i -= 1
        if i < 0:
            return out
        mask |= 1 << i


def test_successor_matches_the_top_down_scan():
    # a single generator from 2..10 has gcd > 1, so sizes 2 and 3 cover size <= 3
    gen_sets = [
        gens
        for size in (2, 3)
        for gens in itertools.combinations(range(2, 11), size)
        if math.gcd(*gens) == 1
    ]
    gen_sets += [(4, 5, 6, 7), (5, 7, 9, 11), (6, 7, 8, 9), (3, 7, 8, 10), (7, 8, 11, 13)]
    for gens in gen_sets:
        poset = build_gap_poset(gens)
        assert list(poset.iter_lower_ideals()) == top_down_scan_lower_ideals(poset), gens


def test_a_listing_past_its_cap_fails_on_the_first_next():
    # one cap rule: a listing compares its count with the cap before its
    # first item.  The ideals are counted by the residue DP with the cap as
    # its state cap too, so a cap below the DP's peak fails on the states.
    poset = build_gap_poset((4, 7))
    total = poset.count_lower_ideals()

    def counts_within(cap):
        try:
            return poset.count_lower_ideals(max_states=cap) == total
        except EnumerationCapError:
            return False

    peak = next(cap for cap in range(total + 1) if counts_within(cap))
    assert 1 < peak <= total // 2
    box = Partition((3, 3, 2))
    listings = (
        (poset.iter_lower_ideals, total, "lower ideals of P_[4, 7]"),
        (poset.iter_core_rows, total, "lower ideals of P_[4, 7]"),
        (lambda cap: subpartitions(box, max_items=cap), count_subpartitions(box),
         "subpartitions of [3, 3, 2]"),
    )
    for listing, count, what in listings:
        for cap in range(count):
            if what.startswith("lower ideals") and cap < peak:
                what_failed = "ideal-counting state space for P_[4, 7]"
            else:
                what_failed = what
            with pytest.raises(EnumerationCapError) as err:
                next(listing(cap))
            assert str(err.value) == f"{what_failed} exceeds the cap of {cap}; raise the cap to proceed"
        assert len(list(listing(count))) == count
    assert list(poset.iter_lower_ideals(max_items=total)) == top_down_scan_lower_ideals(poset)


def test_the_pre_count_never_refuses_a_listing_that_fits():
    # a listing capped at its own count runs the residue DP with that cap on
    # its states, so the DP must never hold more states than there are ideals
    sets = [gens for size in (2, 3, 4) for gens in itertools.combinations(range(2, 13), size)
            if math.gcd(*gens) == 1]
    assert len(sets) == 489
    for gens in sets:
        poset = GapPoset(gens)
        n = poset.count_lower_ideals()
        assert poset.count_lower_ideals(max_states=n) == n, gens


def test_successor_with_generator_one_yields_only_the_empty_ideal():
    for gens in [(1,), (1, 5), (1, 4, 9)]:
        assert list(build_gap_poset(gens).iter_lower_ideals()) == [frozenset()]


def test_successor_counts_the_consecutive_run_14_15_16():
    poset = consecutive_poset(14, 2)
    assert sum(1 for _ in poset.iter_lower_ideals()) == multi_catalan(14, 2)


def test_enumeration_cap():
    poset = build_gap_poset((5, 7))
    with pytest.raises(EnumerationCapError) as err:
        list(poset.iter_lower_ideals(max_items=10))
    assert str(err.value).startswith("lower ideals of P_[5, 7]")
    assert len(list(poset.iter_lower_ideals(max_items=66))) == 66
    with pytest.raises(EnumerationCapError):
        poset.count_lower_ideals(max_states=2)


def test_count_matches_enumeration():
    for gens in [(2, 3), (3, 4, 5), (5, 7), (5, 7, 13), (3, 8), (7, 9), (5, 6, 7, 8)]:
        poset = build_gap_poset(gens)
        assert poset.count_lower_ideals() == sum(1 for _ in poset.iter_lower_ideals())


def test_count_matches_enumeration_on_random_generator_sets():
    rng = random.Random(42)
    checked = 0
    while checked < 25:
        gens = tuple(sorted(rng.sample(range(2, 15), rng.randint(2, 4))))
        if math.gcd(*gens) != 1:
            continue
        poset = build_gap_poset(gens)
        if len(poset.gaps) > 18:
            continue
        ideals = list(poset.iter_lower_ideals())
        assert poset.count_lower_ideals() == len(ideals), gens
        total_size = 0
        for ideal in ideals:
            core = ideal_to_core(poset, ideal)
            assert core.is_multicore(gens), (gens, ideal)
            assert core_to_ideal(core, poset) == ideal, (gens, ideal)
            total_size += core.size
        assert poset.core_size_totals() == (len(ideals), total_size), gens
        checked += 1


def enumerated_size_totals(poset):
    sizes = [ideal_to_core(poset, ideal).size for ideal in poset.iter_lower_ideals()]
    return len(sizes), sum(sizes)


def test_core_size_totals_match_enumeration_on_pairs():
    for s in range(1, 22):
        for t in range(s, 23 - s):
            if math.gcd(s, t) == 1:
                poset = build_gap_poset((s, t))
                assert poset.core_size_totals() == enumerated_size_totals(poset), (s, t)


def test_core_size_totals_match_enumeration_on_consecutive_runs():
    for k, max_s in ((1, 10), (2, 12), (3, 12)):
        for s in range(1, max_s + 1):
            poset = consecutive_poset(s, k)
            assert poset.core_size_totals() == enumerated_size_totals(poset), (s, k)


def window_size_totals(poset):
    # reference: the window DP the residue-class DP replaced, exponential in
    # max(generators).  Over the gaps in increasing value, a key's bit d
    # says whether g - d is in the ideal, for the values within
    # max(generators) of the current gap g; each key carries (N, sum |lambda|,
    # sum K), and adding g to every ideal of a key adds N g - sum K to
    # sum |lambda| and N to sum K
    in_range = (1 << (poset.generators[-1] + 1)) - 1
    states = {0: (1, 0, 0)}
    prev = 0
    for g in poset.gaps:
        need = sum(1 << (g - c) for c in poset.lower_covers(g))
        nxt = {}
        for key, (cnt, size_sum, k_sum) in states.items():
            key = (key << (g - prev)) & in_range
            n0, size0, k0 = nxt.get(key, (0, 0, 0))
            nxt[key] = (n0 + cnt, size0 + size_sum, k0 + k_sum)
        # shifted keys have bit 0 clear, so the keys with g included are new
        nxt.update({
            key | 1: (cnt, size_sum + cnt * g - k_sum, k_sum + cnt)
            for key, (cnt, size_sum, k_sum) in nxt.items() if key & need == need
        })
        states = nxt
        prev = g
    count, size_sum, _ = map(sum, zip(*states.values()))
    return count, size_sum


def assert_residue_matches_window(gens):
    poset = build_gap_poset(gens)
    totals = poset.core_size_totals()
    assert totals == window_size_totals(poset), gens
    assert poset.count_lower_ideals() == totals[0], gens


def test_residue_dp_matches_the_window_dp_on_small_generator_sets():
    for size in (2, 3, 4):
        for gens in itertools.combinations(range(2, 13), size):
            if math.gcd(*gens) == 1:
                assert_residue_matches_window(gens)


def test_residue_dp_matches_the_window_dp_on_random_generator_sets():
    rng = random.Random(15)
    checked = 0
    while checked < 60:
        gens = tuple(sorted(rng.sample(range(2, 18), rng.randint(2, 5))))
        if math.gcd(*gens) == 1:
            assert_residue_matches_window(gens)
            checked += 1


def test_residue_dp_matches_the_window_dp_off_the_unit_order():
    # gens[1] mod m is not a unit mod m, so the residues go in the order 1 .. m-1
    for gens in [(6, 9, 10), (4, 6, 9), (6, 10, 15), (8, 12, 18, 27)]:
        assert_residue_matches_window(gens)
    # a multiple of m binds h_r >= h_r - c, which always holds
    assert_residue_matches_window((3, 6, 7))
    assert_residue_matches_window((4, 8, 13, 15))
    # generator 1: no gaps, so only the empty ideal, of core size 0
    for gens in [(1,), (1, 4, 9)]:
        assert_residue_matches_window(gens)
        assert build_gap_poset(gens).core_size_totals() == (1, 0)


def test_core_size_totals_share_the_count_state_cap():
    poset = build_gap_poset((9, 11))
    assert poset.core_size_totals(max_states=9)[0] == binomial(20, 9) // 20
    with pytest.raises(EnumerationCapError) as err:
        poset.core_size_totals(max_states=8)
    assert str(err.value).startswith("ideal-counting state space for P_[9, 11]")


PEAK_STATES = [
    ((5, 7), 5, binomial(12, 5) // 12),
    ((7, 9), 7, binomial(16, 7) // 16),
    ((9, 11), 9, binomial(20, 9) // 20),
    ((13, 17), 15, binomial(30, 13) // 30),
    ((29, 31), 29, binomial(60, 29) // 60),
    ((30, 31, 32), 134, multi_catalan(30, 2)),
]


@pytest.mark.parametrize("gens, peak, count", PEAK_STATES,
                         ids=["-".join(map(str, gens)) for gens, _, _ in PEAK_STATES])
def test_count_state_cap_bounds_the_peak_state_count(gens, peak, count):
    poset = build_gap_poset(gens)
    assert poset.count_lower_ideals(max_states=peak) == count
    with pytest.raises(EnumerationCapError) as err:
        poset.count_lower_ideals(max_states=peak - 1)
    assert str(err.value).startswith(f"ideal-counting state space for P_{list(gens)}")


def test_count_state_cap_fires_as_a_step_adds_states():
    # one residue step can multiply the states by n_r + 1, so the cap is
    # checked as each state is added: past a cap of 100 states, (100, 150,
    # 199) fails holding about 0.07 MB, where a check after each step held
    # about 1 MB (and 32 MB past a cap of 10^4)
    poset = build_gap_poset((100, 150, 199))
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapError) as err:
            poset.core_size_totals(max_states=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == ("ideal-counting state space for P_[100, 150, 199] exceeds "
                              "the cap of 100; raise the cap to proceed")
    assert peak < 300_000, peak


def test_enumerated_ideals_closed_under_order():
    poset = build_gap_poset((5, 7, 13))
    for ideal in poset.iter_lower_ideals():
        for a in ideal:
            for b in poset.gaps:
                if poset.leq(b, a):
                    assert b in ideal


def test_multi_catalan_values():
    assert multi_catalan(4, 1) == 14
    assert multi_catalan(4, 2) == 9
    for p in range(1, 5):
        assert multi_catalan(0, p) == 1
        assert multi_catalan(-3, p) == 1
    for s in range(13):
        assert multi_catalan(s, 1) == catalan_number(s)
    for p in range(1, 6):
        for s in range(1, p + 1):
            assert multi_catalan(s, p) == 2 ** (s - 1)
    with pytest.raises(ValueError):
        multi_catalan(3, 0)


def test_multi_catalan_matches_ideal_count():
    for p in range(1, 5):
        for s in range(1, 9):
            assert multi_catalan(s, p) == consecutive_poset(s, p).count_lower_ideals()


def gd_lattice_counts(max_n, k):
    # independent oracle: paths (0,0) -> (n,n) on or above y = x with steps
    # (0,k), (k,0) and (i,i) for 0 < i < k, counted point by point
    ways = [[0] * (max_n + 1) for _ in range(max_n + 1)]  # ways[y][x]
    ways[0][0] = 1
    steps = [(0, k), (k, 0)] + [(i, i) for i in range(1, k)]
    for y in range(max_n + 1):
        for x in range(y + 1):
            for dx, dy in steps:
                if y + dy <= max_n and x + dx <= y + dy:
                    ways[y + dy][x + dx] += ways[y][x]
    return [ways[n][n] for n in range(max_n + 1)]


def test_multi_catalan_table_grows_safely_across_threads(monkeypatch):
    monkeypatch.setattr(posets_mod, "_MULTI_CATALAN", {})
    sizes = list(range(120)) * 4
    random.Random(3).shuffle(sizes)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda s: multi_catalan(s, 3), sizes, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    expected = gd_lattice_counts(119, 3)
    assert got == [expected[s] for s in sizes]


def test_consecutive_poset():
    assert consecutive_poset(1, 2).gaps == ()
    t42 = consecutive_poset(4, 2)
    assert t42.gaps == (1, 2, 3, 7)
    assert set(t42.lower_covers(7)) == {1, 2, 3}
    t132 = consecutive_poset(13, 2)
    assert len(t132.gaps) == 42
    assert t132.frobenius_number == 77
    assert t132.generators == (13, 14, 15)


def test_ideal_core_bijection_examples():
    p = build_gap_poset((5, 7, 13))
    assert ideal_to_core(p, {1, 4, 6, 11}) == Partition((8, 4, 3, 1))
    assert ideal_to_core(p, set()) == Partition()
    assert core_to_ideal(Partition((8, 4, 3, 1)), p) == {1, 4, 6, 11}
    assert core_to_ideal(Partition(), p) == frozenset()
    t = build_gap_poset((4, 5, 6))
    assert ideal_to_core(t, {1, 2, 3, 7}) == Partition((4, 1, 1, 1))
    p345 = build_gap_poset((3, 4, 5))
    assert core_to_ideal(Partition((2,)), p345) == {2}


def test_ideal_to_core_rejects_non_ideal():
    p = build_gap_poset((5, 7, 13))
    for not_an_ideal in ({16}, {6}, {1, 2, 16}, {1, 99}):
        with pytest.raises(ValueError):
            ideal_to_core(p, not_an_ideal)


def test_core_to_ideal_rejects_non_core():
    p34 = build_gap_poset((3, 4))
    with pytest.raises(NotACoreError) as err:
        core_to_ideal(Partition((2, 1)), p34)
    assert err.value.hook == 3 and err.value.divisor == 3


def test_bijection_round_trip_over_small_posets():
    for gens in [(5, 7), (5, 7, 13), (4, 5, 6), (3, 8), (6, 7), (5, 6, 7, 8, 9)]:
        poset = build_gap_poset(gens)
        assert len(poset.gaps) <= 20
        cores = []
        for ideal in poset.iter_lower_ideals():
            core = ideal_to_core(poset, ideal)
            assert core.is_multicore(gens)
            assert core_to_ideal(core, poset) == ideal
            cores.append(core)
        assert len(set(cores)) == len(cores)


def test_cores_built_row_by_row_match_the_sort_and_the_cell_scan():
    posets = [build_gap_poset((s, t)) for s in range(1, 18) for t in range(s, 19 - s)
              if math.gcd(s, t) == 1]
    posets += [consecutive_poset(n, k) for n in range(1, 11) for k in range(1, 4)]
    posets += [build_gap_poset((5, 8, 13)), build_gap_poset((7, 9, 11, 13))]
    n_cores = 0
    for poset in posets:
        rows = poset.iter_core_rows()
        for (parts, size, hooks), ideal in zip(rows, poset.iter_lower_ideals(), strict=True):
            core = partition_from_hooks(ideal)
            assert parts == core.parts and size == core.size, (poset, ideal)
            assert hooks == sum(1 << h for h in set(core.hooks())), (poset, core)
            n_cores += 1
    assert n_cores == 37648


def test_iter_core_rows_shares_the_walk_cap():
    poset = build_gap_poset((5, 7))
    with pytest.raises(EnumerationCapError) as err:
        list(poset.iter_core_rows(max_items=65))
    assert str(err.value) == "lower ideals of P_[5, 7] exceeds the cap of 65; raise the cap to proceed"
    assert len(list(poset.iter_core_rows(max_items=66))) == 66
    # no gaps: only the empty ideal, whose core has no parts and no hooks
    assert list(build_gap_poset((1, 4)).iter_core_rows()) == [((), 0, 0)]


def test_core_rows_collected_whole_are_their_own_values():
    # collected first, then checked: an item that held a list the walk goes
    # on to change would be unhashable, and would read its final state
    for gens in [(3, 5), (5, 7, 13), (4, 5, 6), (1, 4)]:
        poset = build_gap_poset(gens)
        rows = list(poset.iter_core_rows())
        assert len(set(rows)) == len(rows), gens
        expected = []
        for ideal in poset.iter_lower_ideals():
            core = partition_from_hooks(ideal)
            expected.append((core.parts, core.size, sum(1 << h for h in set(core.hooks()))))
        assert rows == expected, gens


def test_gap_membership_matches_popoviciu():
    for s, t in [(2, 3), (3, 5), (5, 7), (4, 9)]:
        poset = build_gap_poset((s, t))
        gapset = set(poset.gaps)
        for m in range(1, s * t + 1):
            assert (popoviciu(s, t, m) == 0) == (m in gapset)


def test_dot_export():
    poset = build_gap_poset((5, 7, 13))
    dot = poset.to_dot()
    assert dot.startswith("digraph")
    assert dot.count("->") == len(poset.covers)
    assert "16;" in dot
    # {4, 5, 9}: 9 = 4 + 5, so 11 > 2 (difference 9) is no cover: 11 > 7 > 2
    poset459 = build_gap_poset((4, 5, 9))
    assert poset459.minimal_generators == (4, 5)
    assert (11, 2) not in poset459.covers
    dot = poset459.to_dot()
    assert "2 -> 11" not in dot
    assert "7 -> 11" in dot and "2 -> 7" in dot


def test_json_export():
    data = build_gap_poset((2, 3)).to_json_dict()
    assert data == {"generators": [2, 3], "gaps": [1], "covers": []}
