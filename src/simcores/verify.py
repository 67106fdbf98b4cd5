"""Checkable statements: each pairs a closed formula with an independent oracle.

Every checker returns data (a value or a CheckReport); whether a failure
aborts or is merely reported is the caller's business.  Reports only speak
for the parameter ranges they actually ran.
"""

from __future__ import annotations

import math
import sys
import threading
import time
from operator import mul
from typing import Callable, Iterable

from .errors import InvariantError, NonCoprimeError
from .exact import binomial, catalan_number, det_exact, det_qpoly, hessenberg_catalan_det
from .partitions import Partition, subpartitions
from .paths import (
    count_rect_paths,
    enumerate_gd,
    gd_label_masks,
    gd_size_totals,
    gd_to_ideal,
    rect_size_totals,
)
from .posets import (
    GapPoset,
    build_gap_poset,
    consecutive_poset,
    ideal_to_core,
    multi_catalan,
    semigroup_gap_mask,
)
from .qpoly import QPolynomial, q_binomial
from .series import integer_sqrt_coefficients


def __getattr__(name: str):
    # concurrent.futures pulls in logging, traceback and queue; only a jobs > 1
    # pool needs it, so it loads on first use.  perfbench's tracer rebinds the
    # name to time pool tasks, so _run_report reads it through the module.
    if name == "ThreadPoolExecutor":
        from concurrent.futures import ThreadPoolExecutor
        globals()[name] = ThreadPoolExecutor
        return ThreadPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CheckReport:
    """Outcome of one verification run over an explicit parameter range."""

    # a plain class: dataclasses would import inspect, ast and dis on every start
    def __init__(self, statement: str, tested: str, total: int = 0,
                 failures: list[str] | None = None, notes: list[str] | None = None,
                 duration: float = 0.0):
        self.statement = statement
        self.tested = tested
        self.total = total
        self.failures = [] if failures is None else failures
        self.notes = [] if notes is None else notes
        self.duration = duration

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def first_counterexample(self) -> str | None:
        return self.failures[0] if self.failures else None

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status} {self.statement} [{self.tested}] {self.total} instances in {self.duration:.2f}s"
        if self.failures:
            line += f"\n  first counterexample: {self.failures[0]}"
        return line

    def to_json_dict(self) -> dict:
        return {
            "statement": self.statement,
            "tested": self.tested,
            "instances": self.total,
            "passed": self.passed,
            "failures": self.failures,
            "notes": self.notes,
            "duration_seconds": self.duration,
        }


def _outcome(fn: Callable[[], tuple[bool, str]]) -> tuple[bool, str]:
    # a failed internal invariant is this instance's failure, not a crash of the run
    try:
        return fn()
    except InvariantError as exc:
        return False, f"invariant failed: {exc}"


def _run_report(statement: str, tested: str,
                instances: Iterable[tuple[str, Callable[[], tuple[bool, str]]]],
                jobs: int = 1) -> CheckReport:
    items = list(instances)
    if not items:
        raise ValueError(f"{statement}: the range ({tested}) selects no instances")
    start = time.perf_counter()
    if jobs > 1:
        with sys.modules[__name__].ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(lambda it: _outcome(it[1]), items))
    else:
        outcomes = [_outcome(fn) for _, fn in items]
    report = CheckReport(statement=statement, tested=tested, total=len(items))
    for (label, _), (ok, detail) in zip(items, outcomes):
        if not ok:
            report.failures.append(f"{label}: {detail}")
        elif detail:
            report.notes.append(f"{label}: {detail}")
    report.duration = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# determinant formulas

def kreweras_count(p: Partition) -> int:
    """Subpartition count of a shape as det C(parts[j]+1, j-i+1)."""
    k = len(p)
    rows = [
        [binomial(p.parts[j - 1] + 1, j - i + 1) for j in range(1, k + 1)]
        for i in range(1, k + 1)
    ]
    return det_exact(rows)


def qdet_coarea(p: Partition) -> QPolynomial:
    """Size generating polynomial of subpartitions, as a q-determinant.

    Entry (i, j) is q^C(j-i+1, 2) [parts[j]+1 over j-i+1]_q; at q = 1 this
    collapses to the subpartition-count determinant.
    """
    k = len(p)
    rows = []
    for i in range(1, k + 1):
        row = []
        for j in range(1, k + 1):
            c = j - i + 1
            if c < 0:
                row.append(QPolynomial.zero())
            else:
                row.append(QPolynomial.monomial(1, binomial(c, 2)) * q_binomial(p.parts[j - 1] + 1, c))
        rows.append(row)
    return det_qpoly(rows)


def subpartition_size_polynomial(p: Partition) -> QPolynomial:
    """Brute-force sum of q^|mu| over subpartitions; the oracle for qdet_coarea."""
    coeffs = [0] * (p.size + 1)
    for mu in subpartitions(p):
        coeffs[mu.size] += 1
    return QPolynomial(coeffs)


def catalan_identity(n: int) -> int:
    """Value of sum_{k=1..n} (-1)^k C(k+1, n-k) C_k; zero for n >= 2.

    C(k+1, n-k) vanishes for k < (n-1)/2, so the sum starts at
    k = ceil((n-1)/2); C_k is carried along by C_{k+1} = C_k * 2(2k+1)/(k+2).
    """
    if n < 2:
        raise ValueError(f"the alternating Catalan identity needs n >= 2, got {n}")
    start = n // 2
    c_k = catalan_number(start)
    total = 0
    for k in range(start, n + 1):
        term = math.comb(k + 1, n - k) * c_k
        total += -term if k & 1 else term
        c_k = c_k * 2 * (2 * k + 1) // (k + 2)
    return total


# ---------------------------------------------------------------------------
# two-generator arithmetic

def popoviciu(s: int, t: int, m: int) -> int:
    """Exact count of representations m = s*k + t*l with k, l >= 0.

    Closed form m/(st) - {t^{-1}m/s} - {s^{-1}m/t} + 1 with modular inverses
    t^{-1}t = 1 (mod s) and s^{-1}s = 1 (mod t).  Since {a/s} = (a mod s)/s,
    this is (m - t (t^{-1}m mod s) - s (s^{-1}m mod t)) / (st) + 1, computed
    in integers with a checked exact division.
    """
    count = _popoviciu_counter(s, t)
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return count(m)


def _popoviciu_counter(s: int, t: int) -> Callable[[int], int]:
    """popoviciu(s, t, m) as a function of m >= 0, with gcd(s, t) and both
    modular inverses computed once for the pair."""
    if s < 1 or t < 1:
        raise ValueError(f"generators must be >= 1, got ({s}, {t})")
    g = math.gcd(s, t)
    if g != 1:
        raise NonCoprimeError(s, t, g)
    t_inv, s_inv, st = pow(t, -1, s), pow(s, -1, t), s * t

    def count(m: int) -> int:
        numerator = m - t * (t_inv * m % s) - s * (s_inv * m % t)
        value, rem = divmod(numerator, st)
        if rem:
            raise InvariantError(f"representation count came out non-integral: {numerator}/{st}")
        return value + 1

    return count


def count_representations(s: int, t: int, m: int) -> int:
    """Brute-force oracle for popoviciu."""
    return sum(1 for k in range(m // s + 1) if (m - s * k) % t == 0)


def representation_counts(s: int, t: int, limit: int) -> list[int]:
    """Brute-force table of count_representations(s, t, m) for 0 <= m <= limit.

    Walks every point (k, l) with s*k + t*l <= limit and counts it at its
    value: O(limit^2 / (st)) steps for the whole table, where one
    count_representations per m takes O(limit^2 / s).  Like that oracle it
    knows nothing of the closed form.
    """
    counts = [0] * (limit + 1)
    for base in range(0, limit + 1, t):
        for m in range(base, limit + 1, s):
            counts[m] += 1
    return counts


def frobenius_pair(s: int, t: int) -> int:
    """st - s - t, cross-checked against the largest sieved gap."""
    if s < 2 or t < 2:
        raise ValueError(f"need s, t >= 2, got ({s}, {t})")
    g = math.gcd(s, t)
    if g != 1:
        raise NonCoprimeError(s, t, g)
    expected = s * t - s - t
    largest = build_gap_poset((s, t)).frobenius_number
    if largest != expected:
        raise InvariantError(f"sieve says largest gap {largest}, formula {expected}")
    return expected


def sylvester_check(s: int, t: int) -> bool:
    """Exactly half of 1..(s-1)(t-1) are gaps of the two-generator semigroup."""
    poset = build_gap_poset((s, t))
    bound = (s - 1) * (t - 1)
    n_gaps = sum(1 for gap in poset.gaps if gap <= bound)
    return 2 * n_gaps == bound


def symmetry_check(s: int) -> CheckReport:
    """Complement symmetry of the (s-1) x (s+1) value rectangle for {s, s+2}.

    For odd s >= 3 the value (s+1)(j-1)+i is a gap exactly when
    (s+1)(s-1-j)+i is not, for 1 <= i <= s+1, 1 <= j <= s-1.  Row j of
    the rectangle, the values (s+1)(j-1) + 1 .. (s+1)j, is one (s+1)-bit
    slice of the gap mask, and row s-j holds the mirror values, so a bit
    left clear by XORing the two rows marks a failing (i, j).  Failures are
    listed by i, then j.
    """
    if s % 2 == 0:
        raise ValueError(f"s must be odd (the {{s, s+2}} gap set is infinite for even s), got {s}")
    if s < 3:
        raise ValueError(f"need s >= 3, got {s}")
    # the mask alone: a poset would be cached, and a run builds each s once
    gaps = semigroup_gap_mask((s, s + 2))
    start = time.perf_counter()
    width = s + 1
    full = (1 << width) - 1
    # bit i - 1 of rows[j] is set when (s+1)(j-1)+i is a gap; rows[0] is unused
    rows = [0] + [gaps >> (width * (j - 1) + 1) & full for j in range(1, s)]
    # bit i - 1 of same[j] is set when (i, j) fails
    same = [0] + [~(rows[j] ^ rows[s - j]) & full for j in range(1, s)]
    report = CheckReport("twin-gap symmetry", f"s={s}, all (i, j)", total=width * (s - 1))
    if any(same):
        for i in range(1, width + 1):
            for j in range(1, s):
                if same[j] >> (i - 1) & 1:
                    v1 = width * (j - 1) + i
                    v2 = width * (s - 1 - j) + i
                    gap = bool(rows[j] >> (i - 1) & 1)
                    report.failures.append(f"s={s} i={i} j={j}: {v1} gap={gap} but {v2} gap={gap}")
    report.duration = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# multi-Catalan statements

def motzkin_sum(s: int) -> int:
    """sum_k C(s, 2k) * C_k, each term carried from the one before.

    term_{k+1} = term_k * (s-2k)(s-2k-1) / ((k+1)(k+2)), an exact division:
    C(s, 2k+2) / C(s, 2k) = (s-2k)(s-2k-1) / ((2k+1)(2k+2)) and
    C_{k+1} / C_k = 2(2k+1) / (k+2).
    """
    if s < 0:
        raise ValueError(f"need s >= 0, got {s}")
    term = total = 1
    for k in range(s // 2):
        term = term * (s - 2 * k) * (s - 2 * k - 1) // ((k + 1) * (k + 2))
        total += term
    return total


def motzkin_identity_check(s: int) -> bool:
    """multi_catalan(s, 2) equals sum_k C(s, 2k) * C_k (motzkin_sum)."""
    return motzkin_sum(s) == multi_catalan(s, 2)


def gf_coefficients(p: int, n_terms: int) -> list[int]:
    """First n_terms coefficients of the closed generating function.

    The closed form with radical parameter r expands to the sequence for
    p = r - 1 consecutive extra generators, so r = p + 1 here (r = 2 gives
    Catalan numbers, r = 3 Motzkin):

        (2 - 2x - a - sqrt(a^2 - 4x^2)) / (2 x^(r-1)),
        a = 1 - x + (x^2 - x^(r-1)) / (1 - x).

    Every series is an integer coefficient list: (x^2 - x^(r-1)) / (1 - x)
    is a polynomial, read off as a prefix sum, and the root is taken by
    integer_sqrt_coefficients.  Divisibility by 2 x^(r-1) and integrality
    of every coefficient are checked, not assumed (InvariantError).
    """
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    if n_terms < 1:
        raise ValueError(f"need n_terms >= 1, got {n_terms}")
    r = p + 1
    order = n_terms + r
    # coefficient j of (x^2 - x^(r-1)) / (1 - x) is [j >= 2] - [j >= r-1]
    a = [(j >= 2) - (j >= r - 1) for j in range(order + 1)]
    a[0] += 1
    a[1] -= 1
    radicand = [sum(map(mul, a[:m + 1], reversed(a[:m + 1]))) for m in range(order + 1)]
    radicand[2] -= 4
    root = integer_sqrt_coefficients(radicand)
    numerator = [-ai - hi for ai, hi in zip(a, root)]
    numerator[0] += 2
    numerator[1] -= 2
    shift = r - 1
    if any(numerator[:shift]):
        raise InvariantError(f"gf numerator for p={p} is not divisible by x^{shift}")
    if any(c & 1 for c in numerator[shift:]):
        raise InvariantError(f"gf numerator for p={p} has an odd coefficient")
    return [c >> 1 for c in numerator[shift:shift + n_terms]]


def conjecture_total_size(s: int) -> tuple[int, int]:
    """Total size of all cores for {s, s+1, s+2} vs the weighted Motzkin sum.

    lhs comes from the polynomial path DP (paths.gd_size_totals), which
    builds no core; rhs is sum_{j=0}^{s-2} C(j+3, 3) * multi_catalan(j, 2).
    The paper conjectured lhs = rhs; Yang, Zhong and Zhou proved it (On the
    enumeration of (s, s+1, s+2)-core partitions, Eur. J. Combin. 2015).
    """
    if s < 3:
        raise ValueError(f"need s >= 3, got {s}")
    _, lhs = gd_size_totals(s, 2)
    rhs = sum(binomial(j + 3, 3) * multi_catalan(j, 2) for j in range(s - 1))
    return lhs, rhs


def total_core_size_via_paths(s: int) -> int:
    """Total size of the cores for {s, s+1, s+2} by enumerating generalized paths.

    Builds every core through gd_to_ideal and ideal_to_core and checks that
    no two paths share an ideal; exponential in s, so the conjecture check
    runs it only for s <= CONJECTURE_ENUM_MAX_S.
    """
    poset = consecutive_poset(s, 2)
    total = 0
    seen = set()  # one int bitmask per ideal: far smaller than the frozensets
    for path in enumerate_gd(s, 2):
        ideal = gd_to_ideal(path, poset)
        key = sum(1 << g for g in ideal)
        if key in seen:
            raise InvariantError(f"two paths map to the ideal {sorted(ideal)}")
        seen.add(key)
        total += ideal_to_core(poset, ideal).size
    return total


# ---------------------------------------------------------------------------
# equinumerosity

def _coprime_pairs(max_sum: int) -> list[tuple[int, int]]:
    return [
        (s, t)
        for s in range(1, max_sum)
        for t in range(s, max_sum + 1 - s)
        if math.gcd(s, t) == 1
    ]


def _ideals_and_cores(poset: GapPoset) -> tuple[int, int, bool]:
    """Number of lower ideals, the total size of their cores, and whether
    those cores are pairwise distinct and each passes the hook test for the
    poset's generators.  The ideals are counted, not kept.  Each core's
    parts, size and hook mask are built row by row on the ideal walk
    (GapPoset.iter_core_rows), with no Partition and no lower-ideal check: a
    gap set that is not a lower ideal holds a gap a but not the gap a - g
    for some generator g, so its core fails the hook test for g.  No hook
    reaches the largest gap + 1, so one multiples mask serves every core."""
    n_ideals = size_sum = all_hooks = 0
    core_parts = set()
    for _, parts, size, hooks in poset.iter_core_rows():
        n_ideals += 1
        core_parts.add(parts)
        size_sum += size
        all_hooks |= hooks
    multiples = poset.generators.multiples_below((poset.frobenius_number or 0) + 1)
    all_cores = not all_hooks & multiples
    return n_ideals, size_sum, all_cores and len(core_parts) == n_ideals


# _ideals_and_cores, or the same function shared across one suite's instances
_IdealsAndCores = Callable[[GapPoset], tuple[int, int, bool]]


def _shared_ideals_and_cores() -> _IdealsAndCores:
    """_ideals_and_cores, run once per generator set for every caller.

    Pair (n, n+1) and consecutive run (n, 1) are the same poset.  A caller
    holds the set's lock while it reads the result or walks the poset, so a
    --jobs thread that asks for a poset another thread is walking waits for
    that walk.  A walk that raises stores nothing: the next caller walks
    again, and no failed walk's frames are kept.
    """
    results: dict[tuple[int, ...], tuple[int, int, bool]] = {}
    locks: dict[tuple[int, ...], threading.Lock] = {}

    def ideals_and_cores(poset: GapPoset) -> tuple[int, int, bool]:
        gens = poset.generators
        with locks.setdefault(gens, threading.Lock()):
            if gens not in results:
                results[gens] = _ideals_and_cores(poset)
            return results[gens]

    return ideals_and_cores


def _check_paths(poset: GapPoset, ideals_and_cores: _IdealsAndCores, totals: tuple[int, int],
                 formula: int, masks: list[int] | None = None) -> tuple[bool, str]:
    """Cores = ideals = paths for a poset and its path family: the walked
    ideals, the path DP's count and the closed-form `formula` agree, the DP's
    total size (`totals` is its count and total size) is the cores', and the
    cores pass.  Given one label bitmask per path, each image must be a lower
    ideal and the distinct images as many as the ideals, so they are all of
    them.  `ideals_and_cores` is _ideals_and_cores or a suite's shared one."""
    n_ideals, core_sizes, cores_ok = ideals_and_cores(poset)
    n_paths, path_sizes = totals
    ok = n_ideals == n_paths == formula and path_sizes == core_sizes and cores_ok
    detail = (f"ideals={n_ideals} paths={n_paths} formula={formula} cores ok={cores_ok} "
              f"total size: paths={path_sizes} cores={core_sizes}")
    if masks is not None:
        images = set(masks)
        bijection = (all(map(poset.is_lower_ideal_mask, images))
                     and len(images) == len(masks) == n_ideals)
        ok = ok and bijection
        detail += f" bijection={'yes' if bijection else 'NO'}"
    return ok, detail if not ok else ""


def _check_pair(s: int, t: int, ideals_and_cores: _IdealsAndCores) -> tuple[bool, str]:
    """_check_paths for a coprime pair and its rectangle paths."""
    return _check_paths(build_gap_poset((s, t)), ideals_and_cores,
                        rect_size_totals(s, t), count_rect_paths(s, t))


def _check_consecutive(n: int, k: int, ideals_and_cores: _IdealsAndCores) -> tuple[bool, str]:
    """_check_paths for the run {n, ..., n+k}, its generalized paths and their label masks."""
    return _check_paths(consecutive_poset(n, k), ideals_and_cores, gd_size_totals(n, k),
                        multi_catalan(n, k), list(gd_label_masks(n, k)))


def equinumerosity_suite(max_pair_sum: int, max_n: int, max_k: int,
                         jobs: int = 1) -> CheckReport:
    """Cores = paths = ideals, for coprime pairs and consecutive runs, each
    distinct poset's ideals and cores walked once."""
    shared = _shared_ideals_and_cores()
    instances: list[tuple[str, Callable[[], tuple[bool, str]]]] = []
    for s, t in _coprime_pairs(max_pair_sum):
        instances.append((f"pair ({s},{t})", lambda s=s, t=t: _check_pair(s, t, shared)))
    for n in range(1, max_n + 1):
        for k in range(1, max_k + 1):
            instances.append((f"consecutive ({n},{k})",
                              lambda n=n, k=k: _check_consecutive(n, k, shared)))
    return _run_report(
        "equinumerosity",
        f"pairs with s+t <= {max_pair_sum}; consecutive n <= {max_n}, k <= {max_k}",
        instances,
        jobs=jobs,
    )


# ---------------------------------------------------------------------------
# range runners for the CLI, whose flags hold the default ranges

def check_symmetry_range(min_s: int, max_s: int, jobs: int = 1) -> CheckReport:
    instances = []
    for s in range(min_s | 1, max_s + 1, 2):
        def thunk(s=s):
            rep = symmetry_check(s)
            return rep.passed, rep.first_counterexample or f"{rep.total} cells"
        instances.append((f"s={s}", thunk))
    return _run_report("twin-gap symmetry", f"odd s in [{min_s}, {max_s}]", instances, jobs=jobs)


def check_popoviciu_range(max_t: int, jobs: int = 1) -> CheckReport:
    instances = []
    for s in range(1, max_t + 1):
        for t in range(s + 1, max_t + 1):
            if math.gcd(s, t) != 1:
                continue

            def thunk(s=s, t=t):
                count = _popoviciu_counter(s, t)
                for m, brute in enumerate(representation_counts(s, t, s * t)):
                    formula = count(m)
                    if formula != brute:
                        return False, f"m={m}: formula {formula} vs brute force {brute}"
                if s >= 2:
                    frobenius_pair(s, t)  # raises InvariantError if the sieve disagrees
                if not sylvester_check(s, t):
                    return False, "gap count is not half the interval"
                return True, ""

            instances.append((f"(s,t)=({s},{t})", thunk))
    return _run_report("two-generator counting", f"coprime s < t <= {max_t}, m <= st", instances, jobs=jobs)


def check_catalan_identity_range(max_n: int, max_hessenberg: int, jobs: int = 1) -> CheckReport:
    def identity_thunk(n):
        value = catalan_identity(n)
        return value == 0, "" if value == 0 else f"sum = {value}"

    def det_thunk(n):
        det, cat = hessenberg_catalan_det(n), catalan_number(n)
        return det == cat, "" if det == cat else f"det {det} vs C_{n} = {cat}"

    instances = []
    for n in range(2, max_n + 1):
        instances.append((f"identity n={n}", lambda n=n: identity_thunk(n)))
    for n in range(1, max_hessenberg + 1):
        instances.append((f"determinant n={n}", lambda n=n: det_thunk(n)))
    return _run_report(
        "alternating Catalan identity",
        f"identity n in [2, {max_n}]; Hessenberg determinant n <= {max_hessenberg}",
        instances, jobs=jobs,
    )


def check_gf_range(max_p: int, terms: int, jobs: int = 1) -> CheckReport:
    instances = []
    for p in range(1, max_p + 1):
        def thunk(p=p):
            coeffs = gf_coefficients(p, terms)
            expected = [multi_catalan(s, p) for s in range(terms)]
            ok = coeffs == expected
            return ok, "" if ok else f"series {coeffs[:8]}... vs recursion {expected[:8]}..."
        instances.append((f"p={p}", thunk))
    return _run_report("closed generating function", f"p <= {max_p}, {terms} terms", instances, jobs=jobs)


# the conjecture's lhs is cross-checked by the residue DP up to this s and by
# ideal and path enumeration up to this s (x2.7 per +1).  The residue DP is
# polynomial in s (a few ms at s = 16), so its bound is a choice of range, not
# a limit of cost.  Its classes are taken mod s, the path DP's columns mod
# s + 2, so the two routes stay independent.
CONJECTURE_RESIDUE_MAX_S = 16
CONJECTURE_ENUM_MAX_S = 12


def check_conjecture_range(min_s: int, max_s: int, jobs: int = 1) -> CheckReport:
    """The total-size conjecture for s in [min_s, max_s], building no core past s = 12.

    Each lhs comes from the path DP and is compared with the residue-class
    DP (GapPoset.core_size_totals) for s <= CONJECTURE_RESIDUE_MAX_S, and
    for s <= CONJECTURE_ENUM_MAX_S with the summed sizes of the cores built
    from the enumerated lower ideals and, independently, from the enumerated
    generalized paths; a disagreement is the instance's failure.
    """
    instances = []
    for s in range(min_s, max_s + 1):
        def thunk(s=s):
            lhs, rhs = conjecture_total_size(s)
            oracles = []
            if s <= CONJECTURE_RESIDUE_MAX_S:
                poset = consecutive_poset(s, 2)
                oracles.append(("the residue DP", poset.core_size_totals()[1]))
                if s <= CONJECTURE_ENUM_MAX_S:
                    oracles.append(("ideal enumeration", sum(
                        ideal_to_core(poset, ideal).size for ideal in poset.iter_lower_ideals())))
                    oracles.append(("path enumeration", total_core_size_via_paths(s)))
            for route, other in oracles:
                if other != lhs:
                    return False, f"the path DP and {route} disagree ({lhs} vs {other})"
            ok = lhs == rhs
            detail = f"lhs={lhs} rhs={rhs}"
            if not ok:
                checked = ", ".join(["the path DP"] + [route for route, _ in oracles])
                detail = f"counterexample to the total-size conjecture: {detail} (lhs by {checked})"
            return ok, detail
        instances.append((f"s={s}", thunk))
    return _run_report("total-size conjecture", f"s in [{min_s}, {max_s}]", instances, jobs=jobs)


def check_motzkin_range(max_s: int, jobs: int = 1) -> CheckReport:
    instances = [
        (f"s={s}", lambda s=s: (motzkin_identity_check(s), ""))
        for s in range(max_s + 1)
    ]
    return _run_report("Motzkin sum identity", f"s <= {max_s}", instances, jobs=jobs)

