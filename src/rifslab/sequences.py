"""Eventually periodic index sequences and their ultrametric.

A sequence is a finite prefix followed by a repeating cycle, which covers
every sequence the library manipulates explicitly (constant sequences,
splices, sampled sequences).  Equality of two such sequences is decidable by
unfolding to max(|prefix1|, |prefix2|) + a + b - gcd(a, b) symbols, where a
and b are the cycle lengths: past both prefixes the tails have periods a and
b, and by Fine & Wilf (Proc. AMS 16, 1965) two such tails that agree on
a + b - gcd(a, b) entries agree forever.  The metric 2^(-first
disagreement) follows from the same unfolding.
"""

from __future__ import annotations

import math

from ._record import Record, record
from .errors import UsageError, check_int


@record
class OmegaSeq(Record):
    """Entries are 1-based system indices; entry(k) for k = 1, 2, ..."""

    prefix: tuple[int, ...]
    cycle: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.cycle:
            raise UsageError("cycle must be non-empty")
        for s in (*self.prefix, *self.cycle):
            if isinstance(s, bool) or not (isinstance(s, int) and s >= 1):
                raise UsageError(f"sequence entries must be integers >= 1, got {s!r}")

    def entry(self, k: int) -> int:
        """k is 1-based."""
        if k < 1:
            raise UsageError("entry index is 1-based")
        i = k - 1
        if i < len(self.prefix):
            return self.prefix[i]
        return self.cycle[(i - len(self.prefix)) % len(self.cycle)]

    def unfold(self, n: int) -> tuple[int, ...]:
        """First n entries."""
        reps = max(0, -(-(n - len(self.prefix)) // len(self.cycle)))
        return (self.prefix + self.cycle * reps)[:n]

    def shift(self, k: int = 1) -> "OmegaSeq":
        """Drop the first k entries."""
        if k < 0:
            raise UsageError("cannot shift by a negative amount")
        if k <= len(self.prefix):
            return OmegaSeq(self.prefix[k:], self.cycle)
        r = (k - len(self.prefix)) % len(self.cycle)
        return OmegaSeq((), self.cycle[r:] + self.cycle[:r])

    def __str__(self) -> str:
        p = ",".join(map(str, self.prefix))
        c = ",".join(map(str, self.cycle))
        return f"({p}|{c})" if p else f"(|{c})"


def _equality_horizon(u: OmegaSeq, v: OmegaSeq) -> int:
    a, b = len(u.cycle), len(v.cycle)
    return max(len(u.prefix), len(v.prefix)) + a + b - math.gcd(a, b)


def omega_distance(u: OmegaSeq, v: OmegaSeq) -> float:
    """2^(-k) for the first disagreement index k, or 0 for equal sequences.

    Agreement over the full comparison horizon proves the sequences equal.
    Past k = 1074, 2^(-k) underflows, so different sequences get the least
    positive float instead.
    """
    horizon = _equality_horizon(u, v)
    a = u.unfold(horizon)
    b = v.unfold(horizon)
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return max(2.0 ** (-(i + 1)), math.ulp(0.0))
    return 0.0


def splice(omega: OmegaSeq, k: int, tail: OmegaSeq) -> OmegaSeq:
    """Keep the first k entries of omega, then continue with tail from its start.

    The result is within 2^(-k) of omega.
    """
    if check_int("splice depth", k) < 0:
        raise UsageError("splice depth must be >= 0")
    return OmegaSeq(omega.unfold(k) + tail.prefix, tail.cycle)
