"""Exact matrix inversion over the rationals.

Matrices are lists of lists of Fractions (or ints, coerced on entry).
Gauss-Jordan elimination with first-nonzero pivoting is fine at these
sizes; everything stays exact.
"""

from __future__ import annotations

from fractions import Fraction


def invert(a) -> list[list[Fraction]]:
    m = [[Fraction(v) for v in row] for row in a]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("invert needs a square matrix")
    aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [vr - f * vc for vr, vc in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]
