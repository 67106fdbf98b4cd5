"""Exception types shared across the package, and the one cap rule."""

from typing import Callable


class SimcoresError(Exception):
    """Base class for all errors raised by this package."""


class NonCoprimeError(SimcoresError):
    """A pair (s, t) with gcd(s, t) > 1 was passed where coprimality is required."""

    def __init__(self, s: int, t: int, gcd: int):
        self.s, self.t, self.gcd = s, t, gcd
        super().__init__(
            f"({s}, {t}) must be coprime (common divisor {gcd}); "
            "the counting formula requires gcd(s, t) = 1"
        )


class InfinitePosetError(SimcoresError):
    """The generator set has gcd > 1, so the gap poset is infinite."""

    def __init__(self, generators, gcd: int):
        self.generators = tuple(generators)
        self.gcd = gcd
        super().__init__(
            f"generators {sorted(self.generators)} are not relatively prime "
            f"(all divisible by {gcd}); the gap poset is finite only for gcd 1"
        )


class EnumerationCapError(SimcoresError):
    """An enumeration would exceed the configured cap; nothing is truncated."""

    def __init__(self, what: str, cap: int):
        self.what, self.cap = what, cap
        super().__init__(f"{what} exceeds the cap of {cap}; raise the cap to proceed")


def check_cap(cap: int | None, count: Callable[[], int], what: Callable[[], str]) -> None:
    """The one cap rule: raise EnumerationCapError naming what() when count() passes `cap`.

    Both are called only when needed: count() when there is a cap, what()
    when the error is raised, so a name is never formatted to be thrown away.
    """
    if cap is not None and count() > cap:
        raise EnumerationCapError(what(), cap)


class NotACoreError(SimcoresError):
    """A partition fails the simultaneous-core condition for a generator set."""

    def __init__(self, parts, hook: int, divisor: int):
        self.parts = tuple(parts)
        self.hook, self.divisor = hook, divisor
        super().__init__(
            f"partition {list(self.parts)} has hook length {hook} divisible by {divisor}, "
            f"so it is not a {divisor}-core"
        )


class ExactDivisionError(SimcoresError):
    """An operation that must be exact (zero remainder, integral result) was not."""


class InvariantError(SimcoresError):
    """An internal invariant failed: a result the mathematics guarantees did not hold.

    Raised instead of `assert`, so the check survives `python -O`.  The CLI
    reports it with exit code 2, like any other oracle mismatch.
    """
