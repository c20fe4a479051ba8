"""Finite quotient of configurations by truncated time differences.

Two configurations are equivalent for a truncation bound when their
canonically ordered facts coincide and so do the pairwise-adjacent
timestamp gaps, with every gap above the bound collapsed into one class.
For balanced systems the quotient is finite and bisimilar to the concrete
transition system.

Each class is represented by its normal member, built by
:func:`abstract`: the earliest stamp is 0 and every gap above the bound
is exactly one more than the bound. Two configurations are equivalent
iff their normal members are equal. The unbounded searches explore
concrete configurations and key their visited sets on the normal member;
lasso validation compares the cycle endpoints' normal members.
"""

from __future__ import annotations

from .terms import Configuration, TimestampedFact


def abstract(c: Configuration, dmax: int) -> Configuration:
    """The normal member of c's class: stamps shifted so the earliest is
    0, gaps above dmax clamped to dmax + 1. Returns c itself when it is
    already normal."""
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
