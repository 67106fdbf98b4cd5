"""The benchmark's workloads: simcores CLI commands and the checks on their output.

Each check compares a command's stdout with values known independently of
simcores (closed formulas, or recurrences and lattice-path DPs written here),
ignoring only the timing fields.  A check returns None when the output is
right, or a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from typing import Callable

# total size of all (12,13,14)-cores: the conjecture's lhs = rhs at s = 12
CONJECTURE_TOTAL_S12 = 883883

_TIMING = (
    (re.compile(r'"duration_seconds": [-+0-9.eE]+'), '"duration_seconds": 0'),
    (re.compile(r" in \d+\.\d\ds"), " in 0.00s"),
)


def without_timing(text: str) -> str:
    """Output with the run-dependent timing fields blanked."""
    for pattern, blank in _TIMING:
        text = pattern.sub(blank, text)
    return text


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  Its stdout goes to `<tmp>/<name>.out`; "{tmp}" in
    `args` expands to that scratch directory."""

    name: str
    args: tuple[str, ...]
    check: Callable[[str], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]


# ---------------------------------------------------------------------------
# independent reference values

def rational_catalan(s: int, t: int) -> int:
    """Number of (s,t)-cores for coprime s, t: C(s+t, s) / (s+t)."""
    return math.comb(s + t, s) // (s + t)


def motzkin(n: int) -> int:
    """Motzkin number M_n by (n+2) M_n = (2n+1) M_(n-1) + (3n-3) M_(n-2)."""
    a, b = 1, 1  # M_0, M_1
    if n == 0:
        return a
    for m in range(2, n + 1):
        a, b = b, ((2 * m + 1) * b + (3 * m - 3) * a) // (m + 2)
    return b


def gd_path_count(n: int, k: int) -> int:
    """Lattice paths (0,0) -> (n,n) with steps (0,k), (k,0), (i,i) for 0 < i < k,
    staying on or above y = x: the (n, ..., n+k) multi-Catalan number."""
    ways = [[0] * (n + 1) for _ in range(n + 1)]  # ways[y][x]
    ways[0][0] = 1
    steps = [(0, k), (k, 0)] + [(i, i) for i in range(1, k)]
    for y in range(n + 1):
        for x in range(y + 1):
            w = ways[y][x]
            if not w:
                continue
            for dx, dy in steps:
                nx, ny = x + dx, y + dy
                if ny <= n and nx <= ny:
                    ways[ny][nx] += w
    return ways[n][n]


def subpartition_size_poly(parts: list[int]) -> list[int]:
    """Coefficients of sum q^|mu| over partitions mu inside the shape `parts`."""
    # row by row; by_last[v] is the polynomial of the rows so far with last part v
    by_last = [[0] * v + [1] for v in range(parts[0] + 1)]
    for bound in parts[1:]:
        nxt = []
        acc: list[int] = []
        for u in range(len(by_last) - 1, -1, -1):  # acc = sum over last part >= u
            acc = _poly_add(acc, by_last[u])
            if u <= bound:
                nxt.append([0] * u + acc)
        by_last = nxt[::-1]
    total: list[int] = []
    for poly in by_last:
        total = _poly_add(total, poly)
    return total


def _poly_add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    return [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)]


# ---------------------------------------------------------------------------
# output checks

def _mismatch(what: str, want, got) -> str:
    return f"{what}: expected {str(want)[:80]}, got {str(got)[:80]}"


def expect_text(expected: str) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        return None if out == expected else _mismatch("stdout", repr(expected), repr(out))
    return check


def expect_report(statement: str, instances: int, notes: list[str] | None = None):
    """A `verify ... --format json` output holding one passing report."""
    def check(out: str) -> str | None:
        try:
            (report,) = json.loads(out)
        except ValueError as exc:
            return f"not a JSON list of one report: {exc}"
        for key, want in (("statement", statement), ("instances", instances),
                          ("passed", True), ("failures", [])):
            if report.get(key) != want:
                return _mismatch(key, want, report.get(key))
        if notes is not None and report.get("notes") != notes:
            return _mismatch("notes", notes, report.get("notes"))
        return None
    return check


def expect_core_listing(gens: list[int], count: int, total_size: int):
    """`cores --list --format json`: every core once, with the known total size."""
    def check(out: str) -> str | None:
        try:
            payload = json.loads(out)
        except ValueError as exc:
            return f"listing is not JSON: {exc}"
        cores = payload.get("cores", [])
        if payload.get("generators") != gens:
            return _mismatch("generators", gens, payload.get("generators"))
        if payload.get("count") != str(count) or len(cores) != count:
            return _mismatch("count", count, (payload.get("count"), len(cores)))
        if len({tuple(c) for c in cores}) != count:
            return "listed cores are not distinct"
        size = sum(sum(c) for c in cores)
        return None if size == total_size else _mismatch("total size", total_size, size)
    return check


def expect_qdet(parts: list[int]):
    want = {"shape": parts, "coefficients": [str(c) for c in subpartition_size_poly(parts)]}

    def check(out: str) -> str | None:
        try:
            got = json.loads(out)
        except ValueError as exc:
            return f"not JSON: {exc}"
        return None if got == want else _mismatch("qdet", want, got)
    return check


# ---------------------------------------------------------------------------
# workloads

def enum_consecutive(seed: int) -> Workload:
    """Enumeration of the 15 511 (12,13,14)-cores, their ideals and paths, at
    --jobs 1: the conjecture check, a 650 KB JSON listing and its round trip.
    Inputs are fixed by the paper's statement; the seed is not used."""
    gens = "12,13,14"
    return Workload("enum_consecutive", (
        Command("conjecture", ("verify", "conjecture", "--min-s", "12", "--max-s", "12",
                               "--format", "json"),
                expect_report("total-size conjecture", 1,
                              [f"s=12: lhs={CONJECTURE_TOTAL_S12} rhs={CONJECTURE_TOTAL_S12}"])),
        Command("listing", ("cores", "--gens", gens, "--list", "--format", "json"),
                expect_core_listing([12, 13, 14], motzkin(12), CONJECTURE_TOTAL_S12)),
        Command("roundtrip", ("cores", "--gens", gens, "--from-file", "{tmp}/listing.out"),
                expect_text("cores: file matches a fresh enumeration\n")),
    ))


def equinumerous_j2(seed: int) -> Workload:
    """The equinumerosity suite over 64 coprime pairs and 27 consecutive runs
    (91 instances) on a 2-thread pool.  The seed is not used."""
    return Workload("equinumerous_j2", (
        Command("equinumerous", ("verify", "equinumerous", "--max-sum", "20",
                                 "--max-path-n", "9", "--max-k", "3", "--jobs", "2",
                                 "--format", "json"),
                expect_report("equinumerosity", 91)),
    ))


def closed_forms(seed: int) -> Workload:
    """Short closed-form and counting commands (window DP, Z[q] determinant,
    series, identities, --jobs 2 pools of tiny instances).

    Seeded size classes, each narrow so that every seed costs about the same:
    a coprime pair with s + t = 20 and min >= 7, a coprime pair with
    s + t = 30 and 11 <= min <= 13, a shape of 12 distinct parts <= 20 and
    size 126, and a multi-Catalan s in [290, 310].  {16,17,18} is fixed.
    """
    rng = random.Random(seed)
    small = rng.choice([(s, 20 - s) for s in range(7, 10) if math.gcd(s, 20 - s) == 1])
    large = rng.choice([(s, 30 - s) for s in range(11, 14) if math.gcd(s, 30 - s) == 1])
    while True:
        parts = sorted(rng.sample(range(1, 21), 12), reverse=True)
        if sum(parts) == 126:
            break
    mc_s = rng.randint(290, 310)

    def gens(values) -> str:
        return ",".join(map(str, values))

    return Workload("closed_forms", (
        Command("ideals_small", ("ideals", "--gens", gens(small), "--count-only"),
                expect_text(f"{rational_catalan(*small)}\n")),
        Command("ideals_large", ("ideals", "--gens", gens(large), "--count-only"),
                expect_text(f"{rational_catalan(*large)}\n")),
        Command("ideals_three", ("ideals", "--gens", "16,17,18", "--count-only"),
                expect_text(f"{motzkin(16)}\n")),
        Command("qdet", ("qdet", "--shape", gens(parts), "--format", "json"),
                expect_qdet(parts)),
        Command("gf", ("verify", "gf", "--max-p", "4", "--terms", "150", "--format", "json"),
                expect_report("closed generating function", 4)),
        Command("identity", ("verify", "identity", "--max-n", "300", "--format", "json"),
                expect_report("alternating Catalan identity", 311)),
        Command("motzkin", ("verify", "motzkin", "--max-s", "300", "--format", "json"),
                expect_report("Motzkin sum identity", 301)),
        Command("multi_catalan", ("count", "multi-catalan", "--s", str(mc_s), "--p", "3"),
                expect_text(f"{gd_path_count(mc_s, 3)}\n")),
        Command("symmetry", ("verify", "symmetry", "--max-s", "61", "--jobs", "2",
                             "--format", "json"),
                expect_report("twin-gap symmetry", 30)),
        Command("popoviciu", ("verify", "popoviciu", "--max-t", "20", "--jobs", "2",
                              "--format", "json"),
                expect_report("two-generator counting", 127)),
    ))


WORKLOADS = {w.__name__: w for w in (enum_consecutive, equinumerous_j2, closed_forms)}
