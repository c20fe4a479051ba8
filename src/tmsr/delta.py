"""Finite quotient of configurations by truncated time differences.

Two configurations are equivalent for a truncation bound when their
canonically ordered facts coincide and so do the pairwise-adjacent
timestamp gaps, with every gap above the bound collapsed to infinity.
For balanced systems the quotient is finite and bisimilar to the concrete
transition system.

Each class has one normal member, built by :func:`normalize`: the
earliest stamp is 0 and every gap above the bound is exactly one more
than the bound. The unbounded searches explore concrete configurations
and key their visited sets on the normal member. :func:`abstract` gives
the class itself as a fact/gap sequence, which trace validation uses as
an independent equivalence check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .terms import Configuration, Fact, TimestampedFact, fact_text

INFINITY = math.inf

DeltaGap = float  # a natural number <= the bound, or INFINITY


@dataclass(frozen=True)
class DeltaConfig:
    """Alternating fact/gap sequence with the bound it was built for."""

    facts: tuple[Fact, ...]
    gaps: tuple[DeltaGap, ...]
    dmax: int

    def __post_init__(self) -> None:
        if len(self.facts) == 0:
            raise ValueError("empty delta configuration")
        if len(self.gaps) != len(self.facts) - 1:
            raise ValueError("gap count must be fact count minus one")
        for g in self.gaps:
            if not math.isinf(g) and not (0 <= g <= self.dmax):
                raise ValueError(f"gap {g} outside 0..{self.dmax}")
        # Zero-gap runs carry the canonical tie-break; out-of-order ties
        # would not survive a reconstruct/abstract round trip.
        for a, g, b in zip(self.facts, self.gaps, self.facts[1:]):
            if g == 0 and fact_text(a) > fact_text(b):
                raise ValueError(
                    f"facts {fact_text(a)} and {fact_text(b)} break the "
                    "canonical tie order"
                )


def abstract(c: Configuration, dmax: int) -> DeltaConfig:
    """Quotient representative of c: canonical facts plus truncated gaps."""
    if dmax < 1:
        raise ValueError("truncation bound must be at least 1")
    seq = c.facts
    facts = tuple(tf.fact for tf in seq)
    gaps = []
    for a, b in zip(seq, seq[1:]):
        diff = b.ts - a.ts
        gaps.append(diff if diff <= dmax else INFINITY)
    return DeltaConfig(facts, tuple(gaps), dmax)


def representative(d: DeltaConfig) -> Configuration:
    """A concrete configuration abstracting back to d: first fact at 0,
    each infinite gap reconstructed as dmax + 1 (the smallest faithful
    witness for any guard offset within the bound)."""
    ts = 0
    out = [TimestampedFact(d.facts[0], 0)]
    for g, f in zip(d.gaps, d.facts[1:]):
        ts += d.dmax + 1 if math.isinf(g) else int(g)
        out.append(TimestampedFact(f, ts))
    return Configuration(tuple(out))


def normalize(c: Configuration, dmax: int) -> Configuration:
    """The normal member of c's class, ``representative(abstract(c, dmax))``:
    stamps shifted so the earliest is 0, gaps above dmax clamped to
    dmax + 1. Returns c itself when it is already normal."""
    if dmax < 1:
        raise ValueError("truncation bound must be at least 1")
    seq = c.facts
    prev = seq[0].ts
    ts = 0
    out = []
    for tf in seq:
        gap = tf.ts - prev
        prev = tf.ts
        ts += gap if gap <= dmax else dmax + 1
        out.append(tf if tf.ts == ts else TimestampedFact(tf.fact, ts))
    out = tuple(out)
    # Shifting and clamping keep stamps ordered and ties tied, so the
    # canonical order carries over.
    return c if out == seq else Configuration._canonical(out)


def count_bound(
    fact_count: int,
    size_bound: int,
    dmax: int,
    predicate_count: int,
    symbol_count: int,
) -> int:
    """Exact upper bound on the number of distinct delta configurations:
    (dmax+2)^(m-1) * J^m * (E+2mk)^(mk) for m facts of size at most k over
    J predicates and E constant and function symbols."""
    m, k, j, e = fact_count, size_bound, predicate_count, symbol_count
    if min(m, k, dmax, j, e) < 1:
        raise ValueError("all counting-bound arguments must be at least 1")
    return (dmax + 2) ** (m - 1) * j**m * (e + 2 * m * k) ** (m * k)
