"""Answers computed by the benchmark itself, without importing packmatch.

Every function here works from first principles with the standard library
(and numpy for one quadrature), so a check built on it is independent of the
code under test:

* endpoint classes: partitions of n into at most d parts, each standing for
  the d!/(repetition factorials) count vectors that share its multinomial
  weight;
* brute force: the endpoint weights of all d**n ordered fillings;
* the first-match law: E[X] = sum_m m! e_m(q), either exactly from the
  polynomial prod_v (1 + q_v x) or numerically from the Poissonization
  integral E[X] = int_0^inf exp(-t) prod_v (1 + q_v t) dt (Flajolet, Gardy
  and Thimonier, Discrete Appl. Math. 39, 1992);
* the pairwise series, summed term by term in 45-digit decimals;
* rendering and the Wilson interval, written out from their definitions.
"""

from __future__ import annotations

import decimal
import itertools
import math
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from typing import Iterator, Sequence

Classes = Sequence[tuple[int, int]]  # (weight, multiplicity) per class


def partitions(n: int, parts: int, cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of ``n`` into at most ``parts`` positive parts, none above ``cap``."""
    if n == 0:
        yield ()
        return
    if parts == 0:
        return
    for first in range(min(n, n if cap is None else cap), 0, -1):
        for rest in partitions(n - first, parts - 1, first):
            yield (first,) + rest


def endpoint_classes(n: int, d: int) -> list[tuple[int, int]]:
    """(multinomial weight, number of count vectors) for every partition class."""
    out = []
    for part in partitions(n, d):
        weight = math.factorial(n)
        for p in part:
            weight //= math.factorial(p)
        mult = math.factorial(d)
        for reps in Counter(part + (0,) * (d - len(part))).values():
            mult //= math.factorial(reps)
        out.append((weight, mult))
    return out


def brute_force_classes(n: int, d: int) -> list[tuple[int, int]]:
    """Endpoint weights by enumerating all d**n fillings, one class per endpoint."""
    hits = Counter(
        tuple(Counter(filling)[c] for c in range(d))
        for filling in itertools.product(range(d), repeat=n)
    )
    return [(w, 1) for w in hits.values()]


def match_count(classes: Classes) -> int:
    """Ordered pack pairs with equal endpoints: sum of squared weights."""
    return sum(m * w * w for w, m in classes)


def column_count(n: int, d: int) -> int:
    """Closed forms of the first three columns of the count table."""
    if d == 1:
        return 1
    if d == 2:
        return math.comb(2 * n, n)
    if d == 3:
        return sum(math.comb(n, k) ** 2 * math.comb(2 * k, k) for k in range(n + 1))
    raise ValueError(f"no closed form for d={d}")


def elementary(classes: Classes, degree: int) -> list[int]:
    """Coefficients e_0..e_degree of prod over classes of (1 + w x)**m, exactly."""
    poly = [1] + [0] * degree
    for w, m in classes:
        factor = [math.comb(m, j) * w**j for j in range(min(m, degree) + 1)]
        poly = [
            sum(poly[i - j] * factor[j] for j in range(min(i, len(factor) - 1) + 1))
            for i in range(degree + 1)
        ]
    return poly


def truncated_expectation(classes: Classes, total: int, last: int) -> Fraction:
    """sum_{m=0}^{last} m! e_m(q) with q = weight / total, as an exact fraction."""
    e = elementary(classes, last)
    num = sum(math.factorial(m) * e[m] * total ** (last - m) for m in range(last + 1))
    return Fraction(num, total**last)


def poisson_expectation(classes: Classes, total: int) -> float:
    """E[X] from the Poissonization integral, by composite Gauss-Legendre.

    The integrand exp(-t + sum m log1p(q t)) falls from 1 at t = 0 like
    exp(-S_2 t^2 / 2); panels are halved until two passes agree to 1e-13.
    """
    import numpy as np

    q = np.array([w / total for w, _ in classes])
    mult = np.array([float(m) for _, m in classes])

    def log_f(t):
        return -t + np.log1p(np.multiply.outer(t, q)) @ mult

    s2 = float(sum(m * (w / total) ** 2 for w, m in classes))
    end = 1.0 / math.sqrt(s2)
    while log_f(np.array([end]))[0] > -80.0:
        end *= 1.5
    nodes, weights = np.polynomial.legendre.leggauss(20)
    panels, previous = 16, None
    while True:
        edges = np.linspace(0.0, end, panels + 1)
        half = (edges[1:] - edges[:-1]) / 2.0
        mid = (edges[1:] + edges[:-1]) / 2.0
        t = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
        value = float((np.exp(log_f(t)).reshape(panels, -1) @ weights) @ half)
        if previous is not None and abs(value - previous) <= 1e-13 * value:
            return value
        previous, panels = value, panels * 2


def pairwise_series(p: Fraction) -> Decimal:
    """sum_{l>=2} l (l-1) p (1-p)**C(l-1,2), each term from exp and ln, 45 digits.

    Past the peak near l = sqrt(2/p) the terms fall faster than geometrically,
    so the sum stops once they are falling and below 1e-40 of the total.
    """
    with decimal.localcontext(decimal.Context(prec=45, Emin=-(10**9), Emax=10**9)):
        pd = Decimal(p.numerator) / Decimal(p.denominator)
        if p == 1:
            return Decimal(2)
        log_q = (1 - pd).ln()
        total, previous, l = Decimal(0), Decimal(0), 2
        while True:
            term = l * (l - 1) * pd * (Decimal((l - 1) * (l - 2) // 2) * log_q).exp()
            total += term
            if term < previous and term < total * Decimal("1e-40"):
                return total
            previous, l = term, l + 1


def fixed_string(value: Fraction, digits: int) -> str:
    """``value`` rounded half-to-even to ``digits`` decimal places."""
    scaled = value * 10**digits
    q, r = divmod(scaled.numerator, scaled.denominator)
    if 2 * r > scaled.denominator or (2 * r == scaled.denominator and q % 2):
        q += 1
    text = str(q).rjust(digits + 1, "0")
    return text if digits == 0 else f"{text[:-digits]}.{text[-digits:]}"


def scientific_string(value: Fraction, digits: int) -> str:
    """``value`` > 0 rounded half-to-even to ``digits`` significant figures."""
    exponent = math.floor(math.log10(value.numerator) - math.log10(value.denominator))
    while value >= Fraction(10) ** (exponent + 1):
        exponent += 1
    while value < Fraction(10) ** exponent:
        exponent -= 1
    mantissa = fixed_string(value / Fraction(10) ** exponent, digits - 1)
    if mantissa.startswith("10"):
        exponent += 1
        mantissa = fixed_string(value / Fraction(10) ** exponent, digits - 1)
    return f"{mantissa}e{exponent:+03d}"


def wilson(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval."""
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return center - half, center + half
