import hashlib
import math
import re
from collections import Counter
from functools import lru_cache, reduce
from operator import or_

import pytest

from simcores.errors import EnumerationCapError, InvariantError, NonCoprimeError
from simcores.exact import catalan_number
from simcores.partitions import Partition, subpartitions
import simcores.paths as paths_mod
from simcores.paths import (
    GeneralizedDyckPath,
    RectPath,
    _gd_label_table,
    _gd_moves,
    _labels_below,
    _lattice_walks,
    _rect_labels_below,
    _step_gains,
    _walk_heads,
    _walk_tails,
    count_gd,
    count_rect_paths,
    diagonal_cell_labels,
    diagonal_partition,
    enumerate_gd,
    enumerate_rect_paths,
    gd_label_masks,
    gd_size_totals,
    gd_to_ideal,
    rect_size_totals,
    svg_paths,
)
from simcores.posets import (
    build_gap_poset,
    consecutive_poset,
    core_to_ideal,
    ideal_to_core,
    multi_catalan,
)


def test_count_rect_paths():
    assert count_rect_paths(3, 5) == 7
    assert count_rect_paths(5, 7) == 66
    for t in range(1, 8):
        assert count_rect_paths(1, t) == 1
    with pytest.raises(NonCoprimeError):
        count_rect_paths(4, 6)


def test_diagonal_partition():
    assert diagonal_partition(7, 5) == Partition((5, 4, 2, 1))
    assert diagonal_partition(3, 5) == Partition((2, 1, 1))
    for t in range(2, 7):
        assert diagonal_partition(1, t) == Partition()


def test_enumerate_rect_paths_counts():
    assert sum(1 for _ in enumerate_rect_paths(3, 5)) == 7
    assert sum(1 for _ in enumerate_rect_paths(1, 2)) == 1
    paths = list(enumerate_rect_paths(5, 7))
    assert len(paths) == 66 == len(set(paths))
    with pytest.raises(EnumerationCapError) as err:
        list(enumerate_rect_paths(5, 7, max_items=10))
    assert str(err.value).startswith("(5,7) rectangle paths exceeds the cap of 10")
    # the count is compared with the cap before the first path
    for cap in (10, 65, -1):
        with pytest.raises(EnumerationCapError) as early:
            next(enumerate_rect_paths(5, 7, max_items=cap))
        assert str(early.value).startswith(f"(5,7) rectangle paths exceeds the cap of {cap};")
    assert len(list(enumerate_rect_paths(5, 7, max_items=66))) == 66


def recursive_walks(moves, admissible, target):
    # reference: the recursive depth-first walk, moves tried in order
    out = []

    def rec(x, y, steps):
        if (x, y) == target:
            out.append(tuple(steps))
            return
        for name, dx, dy in moves:
            if admissible(x + dx, y + dy):
                rec(x + dx, y + dy, steps + [name])

    rec(0, 0, [])
    return out


def test_path_enumeration_order_matches_recursive_reference():
    for s, t in [(1, 1), (1, 6), (3, 5), (5, 3), (5, 7), (4, 9)]:
        want = recursive_walks([("N", 0, 1), ("E", 1, 0)],
                               lambda x, y: y <= s and x <= t and t * y >= s * x, (t, s))
        assert [p.steps for p in enumerate_rect_paths(s, t)] == want, (s, t)
    for n, k in [(1, 1), (5, 1), (6, 2), (7, 3), (9, 4)]:
        moves = [(f"N{k}", 0, k), (f"E{k}", k, 0)] + [(f"D{i}", i, i) for i in range(1, k)]
        want = recursive_walks(moves, lambda x, y: y <= n and x <= y, (n, n))
        assert [p.steps for p in enumerate_gd(n, k)] == want, (n, k)


def test_long_generalized_paths_have_no_depth_limit():
    # 2400 steps: deeper than the interpreter's recursion limit
    first = next(enumerate_gd(1200, 1, max_items=None))
    assert first.steps == ("N1",) * 1200 + ("E1",) * 1200


def test_rect_path_validation():
    RectPath(3, 5, "NNNEEEEE")
    with pytest.raises(ValueError):
        RectPath(3, 5, "ENNNEEEE")  # dips below at the first step
    with pytest.raises(ValueError):
        RectPath(3, 5, "NNNEEEE")  # wrong endpoint
    with pytest.raises(ValueError):
        RectPath(3, 5, "NNNEEEEX")


def test_enumerated_rect_paths_pass_the_constructor():
    # the walk builds rectangle paths unchecked; each must pass the constructor's checks
    for s, t in [(3, 5), (5, 7), (4, 9), (9, 11)]:
        paths = list(enumerate_rect_paths(s, t))
        assert len(paths) == count_rect_paths(s, t), (s, t)
        assert all(RectPath(s, t, p.steps) == p for p in paths), (s, t)
    for path in enumerate_rect_paths(5, 7):
        # oracle: the height of a unit N/E walk over each column
        heights, y = [], 0
        for step in path.steps:
            if step == "N":
                y += 1
            else:
                heights.append(y)
        assert path.heights() == tuple(heights)
        assert path.coarea() == sum(5 - h for h in heights)
        assert path.partition_above() == Partition(5 - h for h in heights if h < 5)


def test_coarea_extremes():
    boundary = RectPath(7, 5, "N" * 7 + "E" * 5)
    assert boundary.coarea() == 0
    assert boundary.partition_above() == Partition()
    diag = max(enumerate_rect_paths(7, 5), key=lambda p: p.coarea())
    assert diag.coarea() == 12
    assert diag.partition_above() == diagonal_partition(7, 5)


def test_paths_biject_with_subpartitions():
    for s, t in [(3, 5), (5, 7), (2, 5), (4, 5)]:
        shapes = {p.partition_above() for p in enumerate_rect_paths(s, t)}
        expected = set(subpartitions(diagonal_partition(s, t)))
        assert shapes == expected
        assert len(shapes) == count_rect_paths(s, t)


def test_coarea_distribution_for_3_5():
    sizes = Counter(p.coarea() for p in enumerate_rect_paths(3, 5))
    assert sizes == Counter({0: 1, 1: 1, 2: 2, 3: 2, 4: 1})


def test_count_gd():
    for n in range(9):
        assert count_gd(n, 1) == catalan_number(n)
    assert count_gd(2, 3) == 2
    assert count_gd(4, 3) == 8
    assert count_gd(0, 2) == 1
    assert count_gd(-5, 2) == 1
    with pytest.raises(ValueError):
        count_gd(3, 0)


def test_enumerate_gd():
    only = list(enumerate_gd(1, 1))
    assert len(only) == 1 and only[0].steps == ("N1", "E1")
    assert sum(1 for _ in enumerate_gd(4, 3)) == 8
    for n in range(1, 9):
        for k in range(1, 5):
            paths = list(enumerate_gd(n, k))
            assert len(paths) == count_gd(n, k), (n, k)
            # the walk builds paths unchecked; each must pass the constructor's checks
            assert all(GeneralizedDyckPath(n, k, p.steps) == p for p in paths), (n, k)
    assert {p.steps for p in enumerate_gd(2, 3)} == {("D1", "D1"), ("D2",)}
    with pytest.raises(EnumerationCapError) as err:
        list(enumerate_gd(6, 1, max_items=3))
    assert str(err.value).startswith("generalized (6,1) paths exceeds the cap of 3")
    # the count is compared with the cap before the first path, and so is the
    # label masks' count before their table is built
    assert len(list(enumerate_gd(6, 1, max_items=132))) == 132
    for cap in (3, 131, -1):
        with pytest.raises(EnumerationCapError) as early:
            next(enumerate_gd(6, 1, max_items=cap))
        message = f"generalized (6,1) paths exceeds the cap of {cap}; raise the cap to proceed"
        assert str(early.value) == message
        with pytest.raises(EnumerationCapError) as early:
            gd_label_masks(6, 1, max_items=cap)
        assert str(early.value) == message


def test_gd_validation():
    GeneralizedDyckPath(4, 3, ["N3", "D1", "E3"])
    with pytest.raises(ValueError):
        GeneralizedDyckPath(4, 3, ["E3", "N3", "D1"])  # below the diagonal
    with pytest.raises(ValueError):
        GeneralizedDyckPath(4, 3, ["N3", "E3"])  # wrong endpoint
    with pytest.raises(ValueError):
        GeneralizedDyckPath(4, 3, ["N2", "D1", "E3"])  # N2 is not a step for k=3
    with pytest.raises(ValueError):
        GeneralizedDyckPath(4, 3, ["D3", "N3", "E3"])  # diagonal jump too long


def test_the_step_table_holds_the_steps_that_fit_the_square():
    for n in range(1, 9):
        for k in range(1, 11):
            every = [(f"N{k}", (0, k)), (f"E{k}", (k, 0))]
            every += [(f"D{i}", (i, i)) for i in range(1, k)]
            fits = [(name, (dx, dy)) for name, (dx, dy) in every if dx <= n and dy <= n]
            assert list(_gd_moves(n, k).items()) == fits, (n, k)


def test_a_step_that_cannot_fit_the_square_is_rejected_by_name():
    for n, k, step in [(3, 5, "N5"), (3, 6, "D4")]:
        with pytest.raises(ValueError, match=re.escape(
                f"step {step!r} is not valid for k={k} in the 3 x 3 square")):
            GeneralizedDyckPath(n, k, [step])


def test_gd_rejects_non_canonical_step_names():
    # zero-padded amounts (N02, D01) and an Arabic-Indic digit 2 are not step names
    for steps in (["N02", "E2"], ["N2", "E\u0662"], ["D01", "D1"]):
        with pytest.raises(ValueError, match="is not valid for k=2"):
            GeneralizedDyckPath(2, 2, steps)


def inflate(path):
    # the unit N/E path with each step (dx, dy) of the path's table drawn as N^dy E^dx
    return tuple(unit for step in path.steps
                 for unit in "N" * path.moves[step][1] + "E" * path.moves[step][0])


def test_inflate_examples():
    assert inflate(GeneralizedDyckPath(1, 2, ["D1"])) == ("N", "E")
    assert inflate(GeneralizedDyckPath(3, 3, ["N3", "E3"])) == ("N",) * 3 + ("E",) * 3
    assert inflate(GeneralizedDyckPath(7, 3, ["D2", "N3", "E3", "D2"])) == tuple("NNEENNNEEENNEE")


def test_inflate_stays_above_diagonal_and_is_injective():
    for n, k in [(4, 2), (5, 3), (6, 2), (4, 4)]:
        seen = set()
        for path in enumerate_gd(n, k):
            inflated = inflate(path)
            assert inflated not in seen
            seen.add(inflated)
            x = y = 0
            for step in inflated:
                x, y = (x + 1, y) if step == "E" else (x, y + 1)
                assert y >= x
            assert (x, y) == (n, n)


def test_gd_to_ideal_extremes():
    poset = consecutive_poset(4, 2)
    topmost = GeneralizedDyckPath(4, 2, ["N2", "N2", "E2", "E2"])
    assert gd_to_ideal(topmost) == frozenset(poset.gaps)
    hugging = GeneralizedDyckPath(4, 2, ["D1"] * 4)
    assert gd_to_ideal(hugging) == frozenset()



def test_gd_to_ideal_raises_on_a_label_set_that_is_not_a_lower_ideal(monkeypatch):
    real = paths_mod._labels_below

    def takes_a_non_gap(n, k, x, h):
        # the generator n is no gap, so no lower ideal holds it
        below = real(n, k, x, h)
        return [*below, n] if x == 0 and below else below

    poset = consecutive_poset(4, 2)
    topmost = GeneralizedDyckPath(4, 2, ["N2", "N2", "E2", "E2"])
    # gd_to_ideal keeps the labels each step takes in _step_labels' cache
    paths_mod._step_labels.cache_clear()
    monkeypatch.setattr(paths_mod, "_labels_below", takes_a_non_gap)
    try:
        with pytest.raises(InvariantError, match=re.escape(
                "label set [1, 2, 3, 4, 7] from path ['N2', 'N2', 'E2', 'E2'] is not a lower "
                "ideal of P_[4, 5, 6]; labeling orientation bug")):
            gd_to_ideal(topmost)
    finally:
        monkeypatch.undo()
        paths_mod._step_labels.cache_clear()
    assert gd_to_ideal(topmost) == frozenset(poset.gaps)

def reference_cell_labels(n, k):
    # reference: the labelled cells built diagonal by diagonal, y - x = qk + 1
    # for q = 0, 1, ..., cell (x, x + qk + 1) labelled q(n+k) + 1 + x
    labels = {}
    q = 0
    while q * k + 1 <= n - 1:
        d = q * k + 1
        for x in range(n - d):
            labels[(x, x + d)] = q * (n + k) + 1 + x
        q += 1
    return labels


def test_labels_below_match_the_diagonal_construction():
    for n in range(1, 15):
        for k in range(1, 5):
            labels = reference_cell_labels(n, k)
            for x in range(n):
                column = sorted((y, label) for (cx, y), label in labels.items() if cx == x)
                for h in range(n + 1):
                    want = [label for y, label in column if y < h]
                    assert list(_labels_below(n, k, x, h)) == want, (n, k, x, h)


def test_gd_to_ideal_matches_the_cells_under_the_inflated_path():
    # oracle: the labelled cells (x, y) with y below the unit path's height over column x
    for n in range(1, 9):
        for k in range(1, 4):
            labels = reference_cell_labels(n, k)
            for path in enumerate_gd(n, k):
                heights, y = [], 0
                for step in inflate(path):
                    if step == "N":
                        y += 1
                    else:
                        heights.append(y)
                expected = {label for (x, cy), label in labels.items() if cy < heights[x]}
                assert gd_to_ideal(path) == expected, (n, k, path.steps)


def test_every_cached_step_mask_is_the_or_of_its_labels():
    paths_mod._step_labels.cache_clear()
    for n in range(1, 10):
        for k in range(1, 4):
            for path in enumerate_gd(n, k):
                gd_to_ideal(path)
            _, moves = paths_mod._step_labels(n, k)
            filled = [entry for _, taken in moves.values() for entry in taken.values()]
            assert filled, (n, k)
            for labels, mask in filled:
                assert mask == reduce(or_, (1 << label for label in labels), 0), (n, k, labels)


def test_gd_to_ideal_bijection():
    for n in range(1, 7):
        for k in range(1, 4):
            poset = consecutive_poset(n, k)
            ideals = set(poset.iter_lower_ideals())
            images = [gd_to_ideal(p) for p in enumerate_gd(n, k)]
            assert len(set(images)) == len(images), (n, k)
            assert set(images) == ideals, (n, k)
            assert len(images) == multi_catalan(n, k)


@lru_cache(maxsize=None)
def path_ideals_and_cores(n, k):
    # (ideal, core) of every generalized (n, k) path, shared by the tests below
    poset = consecutive_poset(n, k)
    pairs = []
    for path in enumerate_gd(n, k):
        ideal = gd_to_ideal(path)
        pairs.append((ideal, ideal_to_core(poset, ideal)))
    return pairs


def test_gd_size_totals_match_path_enumeration():
    for n, k in [(n, k) for n in range(1, 11) for k in range(1, 4)] + [(12, 2)]:
        cores = [core for _, core in path_ideals_and_cores(n, k)]
        assert len(cores) == multi_catalan(n, k), (n, k)
        assert gd_size_totals(n, k) == (len(cores), sum(core.size for core in cores)), (n, k)
    with pytest.raises(ValueError):
        gd_size_totals(0, 2)


def test_gd_label_masks_are_gd_to_ideal_path_by_path():
    for n, k in [(n, k) for n in range(1, 10) for k in range(1, 4)] + [(12, 2)]:
        expected = [sum(1 << g for g in ideal) for ideal, _ in path_ideals_and_cores(n, k)]
        assert list(gd_label_masks(n, k)) == expected, (n, k)
    with pytest.raises(EnumerationCapError) as err:
        list(gd_label_masks(6, 1, max_items=3))
    assert str(err.value).startswith("generalized (6,1) paths exceeds the cap of 3")
    with pytest.raises(EnumerationCapError) as err:
        list(gd_label_masks(4, 2, max_items=8))
    assert str(err.value) == ("generalized (4,2) paths exceeds the cap of 8; "
                              "raise the cap to proceed")
    assert len(list(gd_label_masks(4, 2, max_items=9))) == 9
    with pytest.raises(ValueError):
        gd_label_masks(0, 2)


def test_walk_label_masks_of_rectangle_paths_are_the_ideals():
    # the mask mode is generic: with Anderson's labels, the rectangle paths
    # map one to one onto the lower ideals of the (s, t) gap poset
    for s, t in coprime_pairs(16):
        masks = list(_lattice_walks(RectPath.moves, (t, s), rect_label_table(s, t)))
        poset = build_gap_poset((s, t))
        ideals = {sum(1 << g for g in ideal) for ideal in poset.iter_lower_ideals()}
        assert len(masks) == count_rect_paths(s, t), (s, t)
        assert set(masks) == ideals and len(ideals) == len(masks), (s, t)


def depth_first_walks(moves, target, labels=None, start=(0, 0)):
    # reference: the node-by-node depth-first walk the tail lists replaced,
    # one explicit stack frame (x, y, next move, label mask) per point, that
    # joins the labels of the steps with |, where the walk under test adds
    # them; from `start`, it yields the walks on from there, in the same region
    tx, ty = target
    moves = [(name, dx, dy, _step_gains(labels, dx, tx) if labels is not None else None)
             for name, (dx, dy) in moves.items()]
    steps, stack = [], [(*start, 0, 0)]
    while stack:
        x, y, m, taken = stack.pop()
        if x == tx and y == ty:
            yield tuple(steps) if labels is None else taken
            m = len(moves)
        while m < len(moves):
            name, dx, dy, gain = moves[m]
            m += 1
            nx, ny = x + dx, y + dy
            if ny <= ty and tx * ny >= ty * nx:
                stack.append((x, y, m, taken))
                stack.append((nx, ny, 0, taken | gain[x][ny] if gain else taken))
                steps.append(name)
                break
        else:
            if stack:
                steps.pop()


def rect_label_table(s, t):
    return [[sum(1 << a for a in _rect_labels_below(s, t, x, h)) for h in range(s + 1)]
            for x in range(t)]


def walk_families(max_n, max_k, max_sum):
    # (moves, target, label table) of every generalized (n, k) path family and
    # every coprime rectangle with s + t <= max_sum
    for n in range(1, max_n + 1):
        for k in range(1, max_k + 1):
            yield _gd_moves(n, k), (n, n), _gd_label_table(n, k)
    for s, t in [(s, t) for s in range(1, max_sum) for t in range(1, max_sum + 1 - s)
                 if math.gcd(s, t) == 1]:
        yield RectPath.moves, (t, s), rect_label_table(s, t)


@pytest.mark.parametrize("tail_items, tail_steps", [(256, 1 << 18), (3, 1 << 18), (1, 40)])
def test_tail_walk_matches_the_depth_first_walk(monkeypatch, tail_items, tail_steps):
    # the kept lists as the walk keeps them, with few points kept, and with the
    # step budget spent after a handful of points
    monkeypatch.setattr(paths_mod, "_TAIL_ITEMS", tail_items)
    monkeypatch.setattr(paths_mod, "_TAIL_STEPS", tail_steps)
    for moves, target, labels in walk_families(10, 4, 18):
        for table in (None, labels):
            got = list(_lattice_walks(moves, target, table))
            assert got == list(depth_first_walks(moves, target, table)), (target, moves, table)


def test_a_move_wider_or_taller_than_the_target_is_never_tried():
    # k = 3000 names 3001 steps, and only D1 and D2 fit in the 2 x 2 square
    assert dict(_gd_moves(2, 3000)) == {"D1": (1, 1), "D2": (2, 2)}
    assert [p.steps for p in enumerate_gd(2, 3000)] == [("D1", "D1"), ("D2",)]
    # the gap set of {2, ..., 3002} is {1}: cores of size 0 and 1
    assert gd_size_totals(2, 3000) == (2, 1)


def test_kept_tails_are_bounded_and_are_each_points_walks():
    moves = _gd_moves(200, 3)
    zero, steps = _walk_heads(moves, (200, 200), None)
    tails = _walk_tails(steps, (200, 200), zero)
    points = 201 * 202 // 2
    assert 0 < len(tails) < points and 0 not in tails
    assert all(len(kept) <= paths_mod._TAIL_ITEMS for kept in tails.values())
    assert sum(map(len, tails.values())) <= paths_mod._TAIL_ITEMS * points
    assert sum(len(walk) for kept in tails.values() for walk in kept) <= paths_mod._TAIL_STEPS
    # every kept list holds exactly the walks from its own point, in walk order
    # (the reference walk is slow from a point that reaches no target: it
    # tries every dead end, so only points with walks are compared)
    for at in sorted(at for at, kept in tails.items() if kept)[::23]:
        y, x = divmod(at, 201)
        assert tails[at] == list(depth_first_walks(moves, (200, 200), start=(x, y))), at


def coprime_pairs(max_sum):
    return [(s, t) for s in range(1, max_sum) for t in range(s, max_sum + 1 - s)
            if math.gcd(s, t) == 1]


def test_rect_size_totals_match_ideal_enumeration():
    for s, t in coprime_pairs(22):
        poset = build_gap_poset((s, t))
        sizes = [ideal_to_core(poset, ideal).size for ideal in poset.iter_lower_ideals()]
        assert rect_size_totals(s, t) == (len(sizes), sum(sizes)), (s, t)
        assert rect_size_totals(t, s) == rect_size_totals(s, t), (s, t)
    with pytest.raises(NonCoprimeError):
        rect_size_totals(4, 6)
    with pytest.raises(ValueError):
        rect_size_totals(0, 1)


def test_rect_size_totals_give_the_armstrong_mean():
    # mean (s,t)-core size (s+t+1)(s-1)(t-1)/24: conjectured by Armstrong,
    # Hanusa and Jones, proved by P. Johnson (2015)
    for s, t in coprime_pairs(40):
        count, size_sum = rect_size_totals(s, t)
        assert count == count_rect_paths(s, t), (s, t)
        assert 24 * size_sum == count * (s + t + 1) * (s - 1) * (t - 1), (s, t)


def test_path_and_residue_size_totals_agree():
    for s in range(1, 41):
        assert gd_size_totals(s, 2) == consecutive_poset(s, 2).core_size_totals(), s


def test_gd_round_trip_through_cores():
    # path -> ideal -> core -> ideal, for every consecutive run with n <= 9, k <= 3
    for n in range(1, 10):
        for k in range(1, 4):
            poset = consecutive_poset(n, k)
            pairs = path_ideals_and_cores(n, k)
            for ideal, core in pairs:
                assert core.is_multicore(poset.generators), (n, k, ideal)
                assert core_to_ideal(core, poset) == ideal, (n, k, ideal)
            assert len({core for _, core in pairs}) == len(pairs) == multi_catalan(n, k), (n, k)


def test_gd_to_ideal_4_3_matches_antichain():
    poset = consecutive_poset(4, 3)
    assert poset.gaps == (1, 2, 3)
    images = {gd_to_ideal(p) for p in enumerate_gd(4, 3)}
    assert images == {frozenset(s) for s in
                      [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]}


def test_diagonal_labels_are_a_fresh_copy():
    paths = list(enumerate_gd(6, 2))
    before = [gd_to_ideal(p) for p in paths]
    labels = diagonal_cell_labels(6, 2)
    original = dict(labels)
    labels[(0, 1)] = 999
    del labels[(1, 2)]
    assert diagonal_cell_labels(6, 2) == original
    assert [gd_to_ideal(p) for p in paths] == before


def test_diagonal_labels_cover_exactly_the_gaps():
    for n in range(1, 12):
        for k in range(1, 5):
            labels = diagonal_cell_labels(n, k)
            # same cells and labels as the reference, in the same order
            assert list(labels.items()) == list(reference_cell_labels(n, k).items()), (n, k)
            assert set(labels.values()) == set(consecutive_poset(n, k).gaps), (n, k)
            assert len(labels) == len(set(labels.values()))


def test_svg_output():
    rect = list(enumerate_rect_paths(3, 5))
    svg = svg_paths(rect)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == len(rect)
    gd = list(enumerate_gd(4, 3))
    svg2 = svg_paths(gd, columns=4)
    assert svg2.count("<polyline") == 8
    labeled = svg_paths(gd, columns=4, labels=True)
    assert labeled.count("<text") == 8 * len(diagonal_cell_labels(4, 3))
    with pytest.raises(ValueError):
        svg_paths([])
    for columns in (0, -1):
        with pytest.raises(ValueError, match="at least one column"):
            svg_paths(gd, columns=columns)
    # sha256 pins of the exact bytes, labels included
    assert hashlib.sha256(svg_paths(list(enumerate_gd(4, 3)), labels=True).encode()).hexdigest() == (
        "36231df2f69700d6cf7a2065684383e200fdb2cbd2e1a2cf36c511cfd1855eba")
    assert hashlib.sha256(svg_paths(list(enumerate_rect_paths(4, 7))).encode()).hexdigest() == (
        "6044a930cdb1988da913c1f595430d917cd4b9bb28ae67290b95a39684b3a968")


def test_svg_rejects_paths_of_another_family_or_size():
    rect = RectPath(1, 2, "NEE")
    mixes = [
        [rect, GeneralizedDyckPath(2, 1, ["N1", "E1", "N1", "E1"])],
        [rect, RectPath(2, 1, "NNE")],
        [GeneralizedDyckPath(2, 2, ["N2", "E2"]), GeneralizedDyckPath(2, 3, ["D2"])],
    ]
    for paths in mixes:
        with pytest.raises(ValueError, match="cannot share one grid"):
            svg_paths(paths)
    assert svg_paths([rect, RectPath(1, 2, "NEE")]).count("<polyline") == 2


def test_svg_panel_points():
    def polylines(svg):
        return re.findall(r'<polyline points="([^"]*)"', svg)

    rect = [RectPath(3, 5, "NNNEEEEE")]
    assert polylines(svg_paths(rect)) == ["12,84 12,60 12,36 12,12 36,12 60,12 84,12 108,12 132,12"]
    gd = [GeneralizedDyckPath(4, 2, ["D1", "N2", "E2", "D1"])]
    assert polylines(svg_paths(gd)) == ["12,108 36,84 36,36 84,36 108,12"]
    # labels belong to generalized paths only
    assert "<text" not in svg_paths(list(enumerate_rect_paths(3, 5)), labels=True)


def test_json_step_names():
    path = next(iter(enumerate_gd(2, 3)))
    assert set("".join(path.to_json())) <= set("NED123")
    rect = next(iter(enumerate_rect_paths(2, 3)))
    assert set(rect.to_json()) <= {"N", "E"}
