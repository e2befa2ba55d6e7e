"""The benchmark's reference job: fixed pure-Python work that capalg never runs.

    python3 perfbench/reference.py

It starts a fresh interpreter and does the kinds of work capalg's hot
paths do (exact ``Fraction`` comparisons, hashing and sums, dict and
tuple traffic) on fixed data.  The benchmark runs it between its jobs;
its wall time is the unit the end-to-end times are reported in, so that
a shared machine's drifting speed divides out.  It must never change:
a new reference makes every earlier number incomparable.
"""

from fractions import Fraction

LEVELS = [Fraction(i, 12) for i in range(13)]


def work(rounds: int) -> int:
    seen: dict[tuple[Fraction, Fraction], int] = {}
    total = Fraction(0)
    for r in range(rounds):
        for a in LEVELS:
            b = LEVELS[(r * 7 + int(a * 12) * 5) % 13]
            top = a if b < a else b
            seen[(top, min(a, b))] = seen.get((top, min(a, b)), 0) + 1
            total += top - b
    return len(seen) + int(total)


if __name__ == "__main__":
    work(1000)
