#!/usr/bin/env python3
"""Reference values of the complementary error function for `special.rs`.

Writes `erfc_reference.txt` next to this script: one row per argument,
`set re im erfc_re erfc_im`, where `re`/`im` are the exact binary64
argument (printed as its shortest round-trip decimal) and the `erfc`
columns are mpmath's value at 40 significant digits rounded to binary64.
The sets are

* `grid`   — an offset grid over [-12, 12]² (step 0.5, offset 0.0137),
* `strip0` — the Ewald near-real strip, |Im z| <= 0.01,
* `strip1` — the conductor strip Im z = ±(2.40 .. 2.55), where the spatial
  arguments `RE ± jk/2E` sit at the high-frequency guard |k/2E| = 3.5,
* `real`   — the real axis, [-6, 26] (erfc stays a normal number).

With `--coefficients` it instead prints the const table of Weideman's
rational approximation of the Faddeeva function (N = 40,
L = sqrt(N/sqrt(2)); SIAM J. Numer. Anal. 31(5), 1994) at 40 digits.

Usage: python3 erfc_reference.py [--coefficients]
"""

import os
import sys

import mpmath

mpmath.mp.dps = 40

N = 40


def weideman_coefficients(n=N):
    """a_1..a_N of p(Z) = sum a_{j+1} Z^j, from Weideman's DFT formula."""
    m = 2 * n
    big_l = mpmath.sqrt(n / mpmath.sqrt(2))
    samples = {}
    for k in range(-m + 1, m):
        t = big_l * mpmath.tan(k * mpmath.pi / (2 * m))
        samples[k] = mpmath.exp(-t * t) * (big_l * big_l + t * t)
    coefficients = []
    for j in range(1, n + 1):
        s = mpmath.fsum(samples[k] * mpmath.cos(mpmath.pi * k * j / m) for k in samples)
        coefficients.append(s / (2 * m))
    return big_l, coefficients


def frange(start, stop, step):
    count = int(round((stop - start) / step))
    return [start + i * step for i in range(count + 1)]


def arguments():
    rows = []
    offset = 0.0137
    for re in frange(-12.0, 12.0, 0.5):
        for im in frange(-12.0, 12.0, 0.5):
            rows.append(("grid", re + offset, im + offset))
    for re in frange(-6.0, 12.0, 0.05):
        for im in (-0.01, -1e-3, 0.0, 1e-3, 0.01):
            rows.append(("strip0", re + 0.0013, im))
    for re in frange(-4.0, 8.0, 0.05):
        for im in (2.40, 2.4749, 2.55):
            rows.append(("strip1", re + 0.0013, im))
            rows.append(("strip1", re + 0.0013, -im))
    for x in frange(-6.0, 26.0, 0.0625):
        rows.append(("real", x + 0.0011, 0.0))
    return rows


def main():
    if "--coefficients" in sys.argv[1:]:
        big_l, coefficients = weideman_coefficients()
        print(f"const WEIDEMAN_L: f64 = {float(big_l)!r};")
        print(f"const WEIDEMAN_A: [f64; {N}] = [")
        for a in coefficients:
            print(f"    {float(a)!r},")
        print("];")
        return
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "erfc_reference.txt")
    with open(path, "w") as out:
        out.write("# set re im erfc_re erfc_im -- generated by erfc_reference.py (mpmath, 40 digits)\n")
        for name, re, im in arguments():
            value = mpmath.erfc(mpmath.mpc(re, im))
            out.write(f"{name} {re!r} {im!r} {float(value.real)!r} {float(value.imag)!r}\n")


if __name__ == "__main__":
    main()
