#!/usr/bin/env python3
"""Sweep the Young cross coefficient: both printed displays vs quadrature.

The two Beta combinations coincide at p = 2 and split elsewhere; the
quadrature column shows which one actually equals the cross moment.

Usage: python scripts/sweep_cross_coefficient.py [p ...]
"""

import sys

from convexa.weights import (
    young,
    young_cross_moment_proof_display,
    young_cross_moment_theorem_display,
)


def main() -> int:
    p_values = [float(a) for a in sys.argv[1:]] or [
        1.01, 1.1, 1.25, 1.5, 1.75, 1.9, 2.0, 2.5, 3.0, 5.0, 10.0,
    ]
    print(f"{'p':>6}  {'quadrature':>18}  {'proof display':>18}  "
          f"{'theorem display':>18}  {'|thm - quad|':>12}")
    for p in p_values:
        cross = young(p).moment("m11")
        proof = young_cross_moment_proof_display(p)
        theorem = young_cross_moment_theorem_display(p)
        print(
            f"{p:>6g}  {cross.value:>18.15f}  {proof:>18.15f}  "
            f"{theorem:>18.15f}  {abs(theorem - cross.value):>12.3e}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
