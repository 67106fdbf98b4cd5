import gc
import inspect
import json
import math
import random
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from itertools import zip_longest

import pytest

from simcores import paths, posets, verify
from simcores.exact import binomial, catalan_number
from simcores.errors import EnumerationCapError, InvariantError, NonCoprimeError
from simcores.partitions import Partition, subpartitions
from simcores.paths import count_rect_paths, diagonal_partition, gd_size_totals
from simcores.posets import GapPoset, build_gap_poset, consecutive_poset, multi_catalan
from simcores.qpoly import QPolynomial
from simcores.verify import (
    _check_consecutive,
    _check_pair,
    _ideals_and_cores,
    catalan_identity,
    check_conjecture_range,
    check_gf_range,
    conjecture_total_size,
    count_representations,
    equinumerosity_suite,
    frobenius_pair,
    gf_coefficients,
    kreweras_count,
    motzkin_identity_check,
    motzkin_sum,
    popoviciu,
    qdet_coarea,
    representation_counts,
    subpartition_size_polynomial,
    sylvester_check,
    symmetry_check,
    total_core_size_via_paths,
)


def test_kreweras_examples():
    assert kreweras_count(Partition((2, 1))) == 5
    assert kreweras_count(Partition()) == 1
    assert kreweras_count(Partition((2, 1, 1))) == 7


def test_qdet_examples():
    assert qdet_coarea(Partition((1,))) == QPolynomial([1, 1])
    assert qdet_coarea(Partition((2, 1))) == QPolynomial([1, 1, 2, 1])
    assert qdet_coarea(diagonal_partition(3, 5)) == QPolynomial([1, 1, 2, 2, 1])


def test_qdet_matches_brute_force_in_3x3_box():
    for p in subpartitions(Partition([3] * 3)):
        poly = qdet_coarea(p)
        assert poly == subpartition_size_polynomial(p)
        assert poly(1) == kreweras_count(p)


def subpartition_size_coefficients(parts):
    # independent oracle: row by row, ways[v] is the coefficient list of
    # sum q^(size so far) over fillings of the rows so far whose last row is v;
    # the next row w <= its part sums ways[v] over v >= w (a suffix sum) and
    # shifts by q^w
    ways = [[0]] * parts[0] + [[1]]  # the row above the first caps nothing
    for bound in parts:
        grown, acc = [], []
        for v in range(len(ways) - 1, -1, -1):
            acc = [a + b for a, b in zip_longest(acc, ways[v], fillvalue=0)]
            if v <= bound:
                grown.append([0] * v + acc)
        ways = grown[::-1]
    total = []
    for poly in ways:
        total = [a + b for a, b in zip_longest(total, poly, fillvalue=0)]
    return total


def test_qdet_of_the_29_31_diagonal_partition_is_the_subpartition_dp():
    # 30 nonzero parts and degree 420: general fraction-free elimination on
    # the packed integers took about 34 s at this size, the Hessenberg expansion 0.3 s
    p = diagonal_partition(29, 31)
    poly = qdet_coarea(p)
    assert poly == QPolynomial(subpartition_size_coefficients(p.parts))
    assert poly(1) == count_rect_paths(29, 31)


def full_alternating_catalan_sum(n):
    # the sum over every k = 1..n, including the terms whose binomial vanishes
    return sum((-1) ** k * binomial(k + 1, n - k) * catalan_number(k) for k in range(1, n + 1))


def test_catalan_identity():
    for n in range(2, 401):
        assert catalan_identity(n) == 0
    for n in range(2, 61):
        assert catalan_identity(n) == full_alternating_catalan_sum(n)
    with pytest.raises(ValueError):
        catalan_identity(1)


def test_popoviciu_examples():
    assert popoviciu(5, 7, 23) == 0
    assert popoviciu(5, 7, 24) == 1
    assert popoviciu(5, 7, 0) == 1
    assert popoviciu(1, 4, 9) == 3  # 9, 5+4, 1+4+4
    with pytest.raises(NonCoprimeError):
        popoviciu(4, 6, 10)
    with pytest.raises(ValueError):
        popoviciu(5, 7, -1)
    # the generators are checked before m
    with pytest.raises(ValueError, match="generators must be >= 1"):
        popoviciu(0, 7, -1)
    with pytest.raises(NonCoprimeError):
        popoviciu(4, 6, -1)


def test_popoviciu_range_computes_the_inverses_once_per_pair(monkeypatch):
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(verify, "pow", counting_pow, raising=False)
    report = verify.check_popoviciu_range(12)
    pairs = sum(1 for s in range(1, 13) for t in range(s + 1, 13) if math.gcd(s, t) == 1)
    assert report.passed and report.total == pairs
    assert len(calls) == 2 * pairs



def test_popoviciu_range_fails_a_pair_whose_sieve_disagrees_with_the_formula(monkeypatch):
    real = posets._sieve

    def sieve_with_an_extra_gap(gens):
        # 9 = 3 + 3 + 3 is representable; calling it a gap moves the largest gap
        return real(gens) | (1 << 9 if gens == (3, 5) else 0)

    monkeypatch.setattr(posets, "_sieve", sieve_with_an_extra_gap)
    report = verify.check_popoviciu_range(5)
    assert report.failures == [
        "(s,t)=(3,5): invariant failed: sieve says largest gap 9, formula 7"]

def test_popoviciu_matches_brute_force():
    for s in range(1, 26):
        for t in range(s + 1, 26):
            if math.gcd(s, t) != 1:
                continue
            for m in range(s * t + 1):
                assert popoviciu(s, t, m) == count_representations(s, t, m), (s, t, m)


def test_representation_table_matches_the_scalar_oracle():
    for s in range(1, 13):
        for t in range(s + 1, 13):
            if math.gcd(s, t) == 1:
                table = representation_counts(s, t, s * t)
                assert table == [count_representations(s, t, m) for m in range(s * t + 1)], (s, t)


def test_frobenius_and_sylvester():
    assert frobenius_pair(5, 7) == 23
    assert frobenius_pair(2, 3) == 1
    assert frobenius_pair(3, 4) == 5
    assert build_gap_poset((3, 4)).gaps == (1, 2, 5)
    for s, t in [(2, 3), (3, 4), (5, 7), (7, 9)]:
        assert sylvester_check(s, t)
    with pytest.raises(NonCoprimeError):
        frobenius_pair(4, 6)
    with pytest.raises(ValueError):
        frobenius_pair(1, 5)


def test_symmetry_check():
    report = symmetry_check(3)
    assert report.passed
    assert report.total == 4 * 2
    report7 = symmetry_check(7)
    assert report7.passed
    mask = build_gap_poset((7, 9)).gap_mask
    assert mask >> 1 & 1
    assert not mask >> (8 * 5 + 1) & 1
    with pytest.raises(ValueError):
        symmetry_check(4)
    with pytest.raises(ValueError):
        symmetry_check(1)


def per_value_symmetry_failures(s, poset):
    # the rectangle's cells one by one, i outer and j inner
    total, failures = 0, []
    for i in range(1, s + 2):
        for j in range(1, s):
            v1 = (s + 1) * (j - 1) + i
            v2 = (s + 1) * (s - 1 - j) + i
            gap1, gap2 = bool(poset.gap_mask >> v1 & 1), bool(poset.gap_mask >> v2 & 1)
            total += 1
            if gap1 == gap2:
                failures.append(f"s={s} i={i} j={j}: {v1} gap={gap1} but {v2} gap={gap2}")
    return total, failures


def test_symmetry_failures_match_the_per_value_loop(monkeypatch):
    for s in (3, 5, 7, 9, 13):
        for other in ((s, s + 1), (s, s + 4), (s + 2, s + 4)):
            poset = build_gap_poset(other)
            monkeypatch.setattr(verify, "semigroup_gap_mask",
                                lambda gens, poset=poset: poset.gap_mask)
            report = symmetry_check(s)
            total, failures = per_value_symmetry_failures(s, poset)
            assert failures, (s, other)
            assert (report.total, report.failures) == (total, failures), (s, other)
    monkeypatch.undo()
    for s in (3, 11, 61):
        assert (symmetry_check(s).total, []) == per_value_symmetry_failures(
            s, build_gap_poset((s, s + 2)))


def test_no_check_keeps_or_needs_a_poset(monkeypatch):
    # no check keeps a poset once it returns, so a long run's memory does not
    # grow with its instances, and the gap checks read the sieve mask alone
    def live_posets():
        gc.collect()
        return sum(1 for obj in gc.get_objects() if type(obj) is GapPoset)

    before = live_posets()
    assert equinumerosity_suite(2, 2, 200).passed
    assert live_posets() == before
    assert build_gap_poset((3, 5)) is not build_gap_poset((3, 5))

    def refuse(self, generators):
        raise AssertionError("built a GapPoset")

    monkeypatch.setattr(GapPoset, "__init__", refuse)
    assert verify.check_popoviciu_range(12).passed
    report = verify.check_symmetry_range(3, 61)
    assert report.passed and report.total == 30


def test_symmetry_reflection_is_involution():
    s = 7
    for i in range(1, s + 2):
        for j in range(1, s):
            partner = s - j
            value = (s + 1) * (j - 1) + i
            reflected = (s + 1) * (s - 1 - j) + i
            assert reflected == (s + 1) * (partner - 1) + i
            assert (s + 1) * (s - 1 - partner) + i == value


def test_motzkin_identity():
    assert motzkin_identity_check(0)
    assert multi_catalan(4, 2) == 9 == 1 + 6 * 1 + 1 * 2
    for s in range(11):
        assert motzkin_identity_check(s)
    with pytest.raises(ValueError):
        motzkin_identity_check(-1)


def test_carried_motzkin_terms_match_the_binomial_sum():
    for s in range(401):
        expected = sum(math.comb(s, 2 * k) * (math.comb(2 * k, k) // (k + 1))
                       for k in range(s // 2 + 1))
        assert motzkin_sum(s) == expected, s


def test_gf_coefficients():
    assert gf_coefficients(1, 6) == [1, 1, 2, 5, 14, 42]
    assert gf_coefficients(2, 6) == [1, 1, 2, 4, 9, 21]
    assert gf_coefficients(3, 8) == [multi_catalan(s, 3) for s in range(8)]
    with pytest.raises(ValueError):
        gf_coefficients(0, 5)
    with pytest.raises(ValueError):
        gf_coefficients(1, 0)


def test_conjecture_total_size():
    assert conjecture_total_size(3) == (5, 5)
    assert conjecture_total_size(4) == (25, 25)
    for s in range(3, 7):
        lhs, rhs = conjecture_total_size(s)
        assert lhs == rhs == total_core_size_via_paths(s)
    with pytest.raises(ValueError):
        conjecture_total_size(2)


def test_path_enumeration_fails_when_two_paths_share_an_ideal(monkeypatch):
    # {1} is a lower ideal of P_[4, 5, 6]; mapping all nine paths onto it must fail
    monkeypatch.setattr(verify, "gd_to_ideal", lambda path: frozenset({1}))
    with pytest.raises(InvariantError, match="two paths map to the ideal"):
        total_core_size_via_paths(4)



def test_the_path_dp_at_s_200():
    # the scale README cites: lhs = rhs is the Yang-Zhong-Zhou theorem, and
    # the DP's path count is the closed-form multi-Catalan number
    lhs, rhs = conjecture_total_size(200)
    assert lhs == rhs
    assert gd_size_totals(200, 3)[0] == multi_catalan(200, 3)

def test_conjecture_rhs_formula():
    lhs, rhs = conjecture_total_size(4)
    assert rhs == binomial(3, 3) * 1 + binomial(4, 3) * 1 + binomial(5, 3) * 2


def test_equinumerosity_suite_small():
    report = equinumerosity_suite(max_pair_sum=10, max_n=5, max_k=2)
    assert report.passed
    n_pairs = sum(
        1
        for s in range(1, 10)
        for t in range(s, 11 - s)
        if math.gcd(s, t) == 1
    )
    assert report.total == n_pairs + 5 * 2


def test_ideals_and_cores_counts_without_keeping_the_ideals():
    poset = build_gap_poset((3, 5))
    ideals = list(poset.iter_lower_ideals())
    assert len(ideals) == 7
    # the (3,5)-cores have sizes 0, 1, 2, 2, 4, 4, 8
    assert _ideals_and_cores(poset) == (7, 21, True)


def test_equinumerosity_failure_details(monkeypatch):
    assert _check_pair(3, 5, _ideals_and_cores, 7) == (True, "")
    assert _check_consecutive(4, 2, _ideals_and_cores, 9) == (True, "")
    monkeypatch.setattr(verify, "rect_size_totals", lambda s, t: (7, 20))
    assert _check_pair(3, 5, _ideals_and_cores, 7) == (
        False, "ideals=7 paths=7 formula=7 cores ok=True total size: paths=20 cores=21")
    monkeypatch.undo()
    # a closed form that disagrees with the walk and the path DP
    assert _check_pair(3, 5, _ideals_and_cores, 8) == (
        False, "ideals=7 paths=7 formula=8 cores ok=True total size: paths=21 cores=21")
    # every path yields the empty label set
    monkeypatch.setattr(paths, "_gd_label_table", lambda n, k: [[0] * (n + 1)] * n)
    assert _check_consecutive(4, 2, _ideals_and_cores, 9) == (
        False, "ideals=9 paths=9 formula=9 cores ok=True total size: paths=25 cores=25 bijection=NO"
    )


def test_a_path_whose_labels_are_not_an_ideal_fails_the_bijection(monkeypatch):
    real = paths._gd_label_table(4, 2)
    # only N2 N2 E2 E2 crosses column 0 at height 4; adding the non-gap 0 to
    # its labels there makes that one image a non-ideal, distinct from the rest
    table = [list(column) for column in real]
    table[0][4] |= 1
    monkeypatch.setattr(paths, "_gd_label_table", lambda n, k: table)
    masks = list(paths.gd_label_masks(4, 2))
    monkeypatch.setattr(paths, "_gd_label_table", lambda n, k: real)
    changed = [a for a, b in zip(masks, paths.gd_label_masks(4, 2), strict=True) if a != b]
    assert len(changed) == 1 and len(set(masks)) == 9
    monkeypatch.setattr(paths, "_gd_label_table", lambda n, k: table)
    assert _check_consecutive(4, 2, _ideals_and_cores, 9) == (
        False, "ideals=9 paths=9 formula=9 cores ok=True total size: paths=25 cores=25 bijection=NO"
    )


def test_a_run_whose_path_dp_total_size_is_wrong_fails(monkeypatch):
    # the {4, 5, 6}-cores number 9 and have total size 25
    monkeypatch.setattr(verify, "gd_size_totals", lambda n, k: (multi_catalan(n, k), 24))
    assert _check_consecutive(4, 2, _ideals_and_cores, 9) == (
        False, "ideals=9 paths=9 formula=9 cores ok=True total size: paths=24 cores=25 bijection=yes"
    )


def test_a_run_whose_path_dp_count_disagrees_with_multi_catalan_fails(monkeypatch):
    real = paths._walk_size_totals

    def one_too_many(*args):
        count, size_sum = real(*args)
        return count + 1, size_sum

    monkeypatch.setattr(paths, "_walk_size_totals", one_too_many)
    assert verify._outcome(lambda: _check_consecutive(4, 2, _ideals_and_cores, 9)) == (
        False, "invariant failed: path DP counts 10 generalized (4,2) paths, multi_catalan says 9"
    )


def test_the_equinumerosity_checks_build_no_path_partition_or_frozenset(monkeypatch):
    # the posets are built before frozenset is refused, since their
    # constructor keeps a frozenset of the gaps, and the checks are handed them
    run, pair = consecutive_poset(9, 3), build_gap_poset((9, 11))
    monkeypatch.setattr(verify, "consecutive_poset", lambda n, k: run)
    monkeypatch.setattr(verify, "build_gap_poset", lambda gens: pair)

    def refuse(*args, **kwargs):
        raise AssertionError("built an object the check should not build")

    monkeypatch.setattr(paths.GeneralizedDyckPath, "_from_walk", refuse)
    monkeypatch.setattr(Partition, "_from_parts", refuse)
    monkeypatch.setattr(Partition, "__init__", refuse)
    monkeypatch.setattr(GapPoset, "is_lower_ideal", refuse)
    monkeypatch.setattr(GapPoset, "iter_lower_ideals", refuse)
    for module in (verify, paths, posets):
        monkeypatch.setattr(module, "frozenset", refuse, raising=False)
    assert _check_consecutive(9, 3, _ideals_and_cores, multi_catalan(9, 3)) == (True, "")
    assert _check_pair(9, 11, _ideals_and_cores, count_rect_paths(9, 11)) == (True, "")


def test_a_pair_past_the_listing_cap_fails_on_its_closed_form_before_any_walk(monkeypatch):
    # the walk behind _ideals_and_cores has no cap: the suite compares every
    # instance's closed-form count with LIST_CAP as it builds the instance
    # list.  Of the 17 instances of (10, 1, 1), only pair (4,5), the 16th,
    # has more than 13 paths (14), and of the 26 of (10, 5, 2) only run
    # (5,1), the 25th, more than 41 (42); each fails with the message its own
    # check would raise, and no instance before it is walked
    def no_walk(self):
        raise AssertionError("a suite with an instance past the cap walked a poset")

    monkeypatch.setattr(GapPoset, "_walk_lower_ideals", no_walk)
    for cap, ranges, what in ((13, (10, 1, 1), "lower ideals of P_[4, 5]"),
                              (41, (10, 5, 2), "generalized (5,1) paths")):
        monkeypatch.setattr(verify, "LIST_CAP", cap)
        with pytest.raises(EnumerationCapError) as err:
            equinumerosity_suite(*ranges)
        assert str(err.value) == f"{what} exceeds the cap of {cap}; raise the cap to proceed"
    monkeypatch.undo()
    monkeypatch.setattr(verify, "LIST_CAP", 42)
    assert equinumerosity_suite(10, 5, 2).passed


def test_a_walk_that_yields_a_non_ideal_or_a_repeat_fails_cores_ok(monkeypatch):
    # each list is the one before cut to some length and extended by one gap,
    # as the real walk yields them; {4} replaces the ideal {1, 4} of (3,5), and
    # {5} the ideal {1, 2, 5} of (3,4), keeping the counts and total sizes.
    # Neither comes last, so a test of the last core alone misses them.
    walks = {(3, 5): [[], [1], [1, 2], [1, 2, 4], [1, 2, 4, 7], [4], [2]],
             (3, 4): [[], [1], [1, 2], [5], [2]]}
    monkeypatch.setattr(GapPoset, "_walk_lower_ideals",
                        lambda self: iter(walks[self.generators]))
    assert _check_pair(3, 5, _ideals_and_cores, 7) == (
        False, "ideals=7 paths=7 formula=7 cores ok=False total size: paths=21 cores=21")
    # the path images are checked pointwise, not against the walk, so only
    # the hook test sees the non-ideal
    assert _check_consecutive(3, 1, _ideals_and_cores, 5) == (
        False, "ideals=5 paths=5 formula=5 cores ok=False total size: paths=10 cores=10 bijection=yes")
    # a repeated ideal: every core passes the hook test, but two are equal
    walks[3, 5] = [[], [1], [1, 2], [1, 2, 4], [1, 2, 4, 7], [1], [2]]
    assert _check_pair(3, 5, _ideals_and_cores, 7) == (
        False, "ideals=7 paths=7 formula=7 cores ok=False total size: paths=21 cores=18")


@pytest.mark.parametrize("jobs", [1, 2])
def test_equinumerosity_walks_each_poset_once(monkeypatch, jobs):
    # the benchmark's range: 64 pairs and 27 runs, where pair (n, n+1) and
    # run (n, 1) share a poset for n <= 9
    walked = []

    def counting(poset):
        walked.append(poset.generators)
        return _ideals_and_cores(poset)

    monkeypatch.setattr(verify, "_ideals_and_cores", counting)
    report = equinumerosity_suite(20, 9, 3, jobs=jobs)
    assert report.passed and report.total == 91
    assert len(walked) == len(set(walked)) == 82


def test_a_shared_poset_is_walked_once_across_threads(monkeypatch):
    walked = []

    def counting(poset):
        walked.append(poset.generators)
        return _ideals_and_cores(poset)

    monkeypatch.setattr(verify, "_ideals_and_cores", counting)
    shared = verify._shared_ideals_and_cores()
    gens_list = [(3, 4), (3, 5), (4, 5), (5, 7), (5, 6, 7)] * 8
    random.Random(5).shuffle(gens_list)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda gens: shared(build_gap_poset(gens)), gens_list, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(walked) == sorted(set(gens_list))
    assert got == [_ideals_and_cores(build_gap_poset(gens)) for gens in gens_list]


def test_a_shared_poset_fails_both_of_its_instances(monkeypatch):
    def cores_fail_for_3_4(poset):
        n_ideals, size_sum, cores_ok = _ideals_and_cores(poset)
        return n_ideals, size_sum, cores_ok and poset.generators != (3, 4)

    monkeypatch.setattr(verify, "_ideals_and_cores", cores_fail_for_3_4)
    # the details are those of the checks run on their own
    expected = [f"pair (3,4): {_check_pair(3, 4, cores_fail_for_3_4, 5)[1]}",
                f"consecutive (3,1): {_check_consecutive(3, 1, cores_fail_for_3_4, 5)[1]}"]
    assert expected == [
        "pair (3,4): ideals=5 paths=5 formula=5 cores ok=False total size: paths=10 cores=10",
        "consecutive (3,1): ideals=5 paths=5 formula=5 cores ok=False total size: paths=10 "
        "cores=10 bijection=yes"]
    for jobs in (1, 2):
        assert equinumerosity_suite(10, 5, 2, jobs=jobs).failures == expected, jobs

    def invariant_fails_for_3_4(poset):
        if poset.generators == (3, 4):
            raise InvariantError("the walk broke")
        return _ideals_and_cores(poset)

    monkeypatch.setattr(verify, "_ideals_and_cores", invariant_fails_for_3_4)
    for jobs in (1, 2):
        assert equinumerosity_suite(10, 5, 2, jobs=jobs).failures == [
            "pair (3,4): invariant failed: the walk broke",
            "consecutive (3,1): invariant failed: the walk broke"], jobs



def test_a_failed_shared_walk_is_neither_kept_nor_cached(monkeypatch):
    class Walked:
        pass

    refs = []

    def walk_fails(poset):
        walked = Walked()  # a local of the walk, as the real walk's ideals are
        refs.append(weakref.ref(walked))
        raise InvariantError("the walk broke")

    monkeypatch.setattr(verify, "_ideals_and_cores", walk_fails)
    shared = verify._shared_ideals_and_cores()
    poset = build_gap_poset((3, 4))
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):
            try:
                shared(poset)
            except InvariantError as exc:
                assert str(exc) == "the walk broke"
            else:
                raise AssertionError("the failed walk was not raised")
            # with no collection, only reference counts can free the walk's
            # frames: nothing may hold them once the caller drops the exception
            assert refs[-1]() is None
    finally:
        if enabled:
            gc.enable()
    # a failed walk stores nothing, so the next caller walks again
    assert len(refs) == 2

def test_check_report_shape():
    report = check_gf_range(max_p=2, terms=8)
    assert report.passed
    data = report.to_json_dict()
    assert data["instances"] == 2
    assert data["passed"] is True
    assert "p <= 2" in data["tested"]
    assert json.dumps(data)
    assert report.summary().startswith("PASS")


def test_jobs_do_not_change_results():
    seq = check_conjecture_range(3, 6, jobs=1)
    par = check_conjecture_range(3, 6, jobs=3)
    assert seq.notes == par.notes
    assert seq.failures == par.failures
    assert seq.total == par.total


def test_range_runners_take_every_range_from_the_caller():
    # the CLI's verify flags state the default ranges once; the runners default only jobs
    runners = (verify.check_symmetry_range, verify.check_popoviciu_range,
               verify.check_catalan_identity_range, verify.check_gf_range,
               verify.check_conjecture_range, verify.check_motzkin_range,
               verify.equinumerosity_suite)
    for runner in runners:
        params = inspect.signature(runner).parameters.values()
        assert {p.name: p.default for p in params if p.default is not p.empty} == {"jobs": 1}, runner


def test_catalan_case_closed_form():
    # the (s, s+1) pair count collapses to a Catalan number
    for s in range(1, 7):
        assert count_rect_paths_catalan(s) == catalan_number(s)


def count_rect_paths_catalan(s):
    from simcores.paths import count_rect_paths

    return count_rect_paths(s, s + 1)


@pytest.mark.parametrize("parts", [
    (8, 7, 6, 5, 4, 3, 2, 1),
    (9, 9, 5, 5, 3, 3, 1, 1, 1),
    (7, 7, 7, 3, 3, 3, 2, 2, 1, 1),
    (12, 10, 8, 6, 4, 2, 2, 2, 1, 1, 1),
    (105, 6, 3, 2, 2, 2, 1, 1, 1, 1, 1, 1),  # size 126
])
def test_qdet_matches_brute_force_on_long_shapes(parts):
    p = Partition(parts)
    poly = qdet_coarea(p)
    assert poly == subpartition_size_polynomial(p)
    assert poly(1) == kreweras_count(p)
