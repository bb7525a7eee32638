"""Distribution of the number of packs bought until two of them match.

Buy packs one at a time and stop as soon as the newest pack's per-color count
vector (its endpoint) equals the endpoint of any earlier pack; ``X`` is the
number of packs bought. Two models are implemented.

Pairwise model. Treats the C(m, 2) pairwise match indicators among m packs as
if they were mutually independent, which gives the closed form
``P[X = l] = (1 - p)^C(l-1, 2) * (l - 1) * p`` with ``p`` the single-pair
match probability. The indicators are in fact only pairwise independent, so
this is an approximation: each value lies in [0, 1] but the total over l can
exceed 1 (the test suite pins a witness).

Exact oracle. Uses the identity ``P[X > m] = m! * e_m(q)``, where ``q`` is
the vector of endpoint probabilities and ``e_m`` the m-th elementary
symmetric polynomial: buying m packs with all endpoints distinct means
choosing an ordered m-tuple of distinct endpoints. The e_m are evaluated
through Newton's identities over the endpoint power sums
``S_j = sum_v q_v^j``, carried on the signed values (-1)**m * e_m so that
every step is a plain negated sum of products. Endpoints sharing a
probability are grouped into classes (one class per partition shape), which
shrinks the working set by orders of magnitude. Once few classes remain,
the far terms of each Newton sum are carried by one running tail sum per
class, so a step costs the head length plus the class count instead of m.
Small problems run in exact arithmetic: Newton's identities on integers
(the probabilities share the denominator d**n), with exact division by k and
one Fraction per survival. Larger ones use high-precision decimal
arithmetic with a precision alarm and a tracked error bound per survival.
One recurrence bounds them all: Newton's identities with every sign
positive, run at 8 significant digits with upward rounding on
upper bounds of the power sums, bound the complete homogeneous polynomials
h_k >= e_k, and the error of each e_k is proportional to h_k. The law is
summed at a fixed 28 significant digits.
"""

from __future__ import annotations

import decimal
import operator
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

from .coincidence import (
    ENDPOINT_CEILING,
    PackSpec,
    _gf_counts,
    distinct_pack_count,
    partition_classes,
)
from .exactmath import DEFAULT_PRECISION, DEFAULT_TOLERANCE, significant_string

Number = Union[Fraction, Decimal]

PAIRWISE_PRECISION = 40
EXACT_ENDPOINT_LIMIT = 10_000

BOUND_PRECISION = 8

_PAIRWISE_MAX_TERMS = 5_000_000
# Error bounds: few digits, every operation rounded upward.
_BOUND_CONTEXT = decimal.Context(
    prec=BOUND_PRECISION, rounding=decimal.ROUND_CEILING, Emax=10**9, Emin=-(10**9)
)
# The first-match law's sums, independent of the caller's decimal context.
_WALK_CONTEXT = decimal.Context(
    prec=28,
    rounding=decimal.ROUND_HALF_EVEN,
    Emax=10**9,
    Emin=-(10**9),
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow],
)


def pairwise_pmf(p: Fraction, length: int) -> Fraction:
    """Pairwise-model probability that the first match happens at pack ``length``.

    Args:
        p: single-pair match probability, a rational in [0, 1].
        length: pack index, at least 1.

    Returns:
        (1 - p)^C(length - 1, 2) * (length - 1) * p exactly; 0 for length 1.

    Raises:
        ValueError: if ``p`` is outside [0, 1], or ``length`` is not an
            ``int`` or is below 1.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"pair match probability must lie in [0, 1], got {p}")
    if type(length) is not int:
        raise ValueError(f"pack index must be an integer, got {length!r}")
    if length < 1:
        raise ValueError(f"pack index must be at least 1, got {length}")
    if length == 1:
        return Fraction(0)
    exponent = (length - 1) * (length - 2) // 2
    return (1 - p) ** exponent * (length - 1) * p


class SeriesExpectation(NamedTuple):
    """A truncated positive series: its value, tail bound, and last index."""

    value: Decimal
    tail_bound: Decimal
    last_index: int


def _check_tolerance(tol: float) -> None:
    """Reject a truncation tolerance outside (0, 1); NaN fails too."""
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie strictly between 0 and 1, got {tol}")


def _geometric_tail(term: Number, ratio: Number, tolerance: Number) -> Number | None:
    """The stopping rule of both first-match series at one index.

    Returns the geometric tail bound term * ratio / (1 - ratio) when the term
    and that bound are both at most ``tolerance`` and the term ratio is below
    1, and None otherwise. Decimal arithmetic runs in the caller's context.
    """
    if term <= tolerance and ratio < 1:
        tail = term * ratio / (1 - ratio)
        if tail <= tolerance:
            return tail
    return None


def pairwise_expectation(p: Fraction, tol: float = DEFAULT_TOLERANCE) -> SeriesExpectation:
    """Expectation of the pairwise model, summed until the tail is provably small.

    Sums l * (l - 1) * p * (1 - p)^C(l-1, 2) for l = 2, 3, ... and stops at
    the first l where the current term is at most ``tol``, the term ratio
    r = (l + 1) / (l - 1) * (1 - p)^(l - 1) is below 1, and the geometric
    tail bound term * r / (1 - r) is at most ``tol``. The sum runs at
    ``PAIRWISE_PRECISION`` digits and forms r only at terms within ``tol``.

    The ratio decreases in l, and once it is below 1 the term and the tail
    bound decrease too; so once the stopping rule holds it holds for every
    larger l, and the sum stops within ``_PAIRWISE_MAX_TERMS`` terms exactly
    when the rule holds at l = ``_PAIRWISE_MAX_TERMS``. The call decides
    that once, before summing: it evaluates the rule there from
    (1 - p)**C(l-1, 2) and (1 - p)**(l - 1) taken as powers, and refuses the
    series if the rule fails with that term and ratio both raised by the
    relative margin 10**-20. The sum's own products carry a relative error
    below 10**-25 at that l (at most about l**2 / 2 roundings, each below
    10**-39), and the powers one of about 10**-39, so with the term and ratio
    at least the sum's, the tail bound term * r / (1 - r) is at least the
    sum's too: a series the check accepts stops in the sum's own arithmetic
    by that l. One whose rule holds there by less than the margin is refused.

    Raises:
        ValueError: if ``tol`` is not in (0, 1), if ``p`` is not in (0, 1]
            (the series diverges at p = 0), or if the series cannot stop
            within ``_PAIRWISE_MAX_TERMS`` terms.
    """
    _check_tolerance(tol)
    p = Fraction(p)
    if not 0 < p <= 1:
        raise ValueError(f"pair match probability must lie in (0, 1], got {p}")
    tolerance = Decimal(str(tol))
    ctx = decimal.Context(prec=PAIRWISE_PRECISION, Emax=10**9, Emin=-(10**9))
    with decimal.localcontext(ctx):
        pd = Decimal(p.numerator) / Decimal(p.denominator)
        omp = 1 - pd
        cap = _PAIRWISE_MAX_TERMS
        upper = 1 + Decimal("1e-20")
        term = Decimal(cap * (cap - 1)) * pd * omp ** ((cap - 1) * (cap - 2) // 2) * upper
        ratio = Decimal(cap + 1) / Decimal(cap - 1) * omp ** (cap - 1) * upper
        if _geometric_tail(term, ratio, tolerance) is None:
            reason = (
                "its term ratio is still at least 1"
                if ratio >= 1 and term <= tolerance
                else f"its term or tail bound stays above the tolerance {tol}"
            )
            raise ValueError(
                f"pairwise expectation needs more than {cap} terms at pair probability "
                f"{float(p):.6g}: at l = {cap} {reason}"
            )
        total = Decimal(0)
        power = Decimal(1)  # (1 - p)^C(l-1, 2)
        step = omp  # (1 - p)^(l - 1)
        index = 2
        while True:
            term = Decimal(index * (index - 1)) * pd * power
            total += term
            if term <= tolerance:  # the ratio's division only once it can stop
                ratio = Decimal(index + 1) / Decimal(index - 1) * step
                tail = _geometric_tail(term, ratio, tolerance)
                if tail is not None:
                    return SeriesExpectation(+total, +tail, index)
            power *= step
            step *= omp
            index += 1


class _NewtonWalk:
    """Newton's identities V_k = sign * sum_{i=1..k} V_{k-i} * T_i / k from V_0 = 1.

    The caller appends the T_i to ``sums``. Past index ``split`` the head runs
    over T_1..T_split and the rest is one running tail sum U_c per class, which
    :meth:`seed` starts and each step advances in place,
    U_c <- base_c * U_c + inject_c * V_{k-split-1} (see :class:`EndpointSpectrum`).
    An integer sum is divided by k exactly (AssertionError if a remainder is
    left), a Decimal one in the caller's context.
    """

    def __init__(self) -> None:
        self.values: list[Number] = [1]
        self.sums: list[Number] = []
        self.base: list[Number] = []
        self.inject: list[Number] = []
        self.tail: list[Number] = []

    def seed(self, base: list[Number], inject: list[Number]) -> None:
        """Start one zero tail sum per injection, as T_{split + 1} forms."""
        self.base = base
        self.inject = inject
        self.tail = [0] * len(inject)

    def step(self, split: int | None, sign: int) -> Number:
        """Append and return the next value V_k, for ``sign`` +1 or -1."""
        values = self.values
        k = len(values)
        if split is None or k <= split:
            total = sum(map(operator.mul, reversed(values), self.sums))
        else:
            head = sum(map(operator.mul, reversed(values), self.sums[:split]))
            lag = [values[k - split - 1]] * len(self.tail)
            advanced = map(operator.mul, self.base, self.tail)
            self.tail[:] = map(operator.add, advanced, map(operator.mul, self.inject, lag))
            total = sum(self.tail, head)
        if sign < 0:
            total = -total
        if isinstance(total, int):
            value, remainder = divmod(total, k)
            if remainder:
                raise AssertionError(f"Newton step {k} is not an integer")
        else:
            value = total / k
        values.append(value)
        return value


class EndpointSpectrum:
    """Endpoint classes over one denominator, aggregated for the exact oracle.

    A (weight, multiplicity) pair holds ``multiplicity`` endpoints of
    probability ``weight / denominator``; equal weights merge, and classes
    sort by descending weight. ValueError refuses a denominator that is not
    an integer, an entry that is not two positive integers, a sum of m * w
    other than the denominator, and more endpoints than
    ``ENDPOINT_CEILING``, the most the pruning slack below is proved for.
    Grows the power sums S_j, the signed elementary values
    (-1)**k * e_k and the survivals P[X > m] = m! * e_m up to the index
    :meth:`power_sum`, :meth:`survival` or :meth:`survival_error` asks for,
    in any order. :func:`endpoint_spectrum` builds one for a pack shape.

    The mode rule. ``mode`` None picks ``"rational"`` when the merged list
    holds at most ``EXACT_ENDPOINT_LIMIT`` (10**4) endpoints and
    ``"decimal"`` otherwise. ``precision``, at least 4, sets decimal mode's
    significant digits (default ``DEFAULT_PRECISION``, 128); it is refused
    with an explicit ``"rational"`` and ignored where the default picks
    rational. The mode, precision and denominator type are checked before
    the classes are read.

    Both modes run Newton's identities on signed values: with
    E_k = (-1)**k * e_k, each step is k * E_k = -sum_i E_{k-i} * S_i over the
    plain power sums, and the survival is (-1)**k * k! * E_k.

    The Newton sum is split once few classes remain. Let A_j be the number of
    classes still active after index j (all of them in rational mode; decimal
    mode prunes, see below) and s the first index with 2 * A_s <= s, where
    the tails' two products and one add per class cost no more than the
    head's s multiply-adds. Past s the power sums keep exactly those
    A_s classes, so sum_{i > s} E_{k-i} S_i = sum_c U_c(k) with
    U_c(k) = m_c * sum_{i=s+1..k} q_c**i * E_{k-i}, and each step advances it
    exactly by U_c(k + 1) = q_c * U_c(k) + (m_c * q_c**(s+1)) * E_{k-s}.
    A step then costs s + A_s multiply-adds instead of k, and no power sum
    past S_{s+1}, whose class terms are the m_c * q_c**(s+1), is formed.
    Rational mode runs the same recurrence on the integers w_c and
    m_c * w_c**(s+1), so its values are exact as before. When no index
    satisfies the rule before the walk ends, every step is the plain
    convolution. :attr:`split_index` and :attr:`tail_classes` report s and
    A_s.

    Two arithmetic modes exist. ``"rational"`` is exact: the endpoint
    probabilities are w / D with integer weights w and the denominator D, so it keeps
    the integer power sums P_j = sum w**j and runs the recurrence on the
    integers (-1)**k * D**k * e_k, dividing exactly by k; a survival is the
    one Fraction k! * e_k. ``"decimal"`` works at a fixed number of
    significant digits and tracks a conservative absolute error bound for
    every survival value. ``precision_alarm`` reads True once any bound
    computed so far exceeds ``alarm_threshold`` (10**-(precision // 2)). In
    decimal mode, classes whose current power has decayed below
    10**-(precision + 12) times the leading class's power are dropped from
    later power sums (up to the split, whose tails keep the classes active
    there), which stays far below the tracked error bounds.
    Decimal negation is exact and half-even rounding is symmetric in sign, so
    the signed values are, up to sign, the unsigned recurrence's values.

    The decimal bound, to first order in ulp = 10**(1 - precision), with N
    the number of classes. Every rounded operation is off by at most half an
    ulp of its result. A computed class power q**j carries j half-ulps from
    the rounded q and j - 1 from its products; with one more for the product
    by the multiplicity, N - 1 for the additions, and the pruning slack (a
    dropped class weighs at most 10**-(precision + 12) times the leading
    class at every later index, and the multiplicities sum to at most
    ENDPOINT_CEILING = 10**7, so the dropped classes together weigh at most
    10**-6 ulp of S_j), each computed power sum has relative error at most
    sigma_j = (N + j + 6) ulp. So the computed S_j times (1 + sigma_j) is an
    upper bound S+_j on the exact S_j. Newton's identities with every sign
    positive, k H_k = sum_i H_{k-i} S+_i with H_0 = 1, give H_k >= h_k >= e_k,
    where h_k is the complete homogeneous polynomial of the probabilities;
    k h_k = sum_i h_{k-i} S_i bounds every term magnitude and partial sum of
    the k-th Newton sum.

    If every earlier e_j is off by at most c_j ulp h_j, the k-th Newton step
    inherits at most c_{k-1} ulp k h_k from the e_{k-i} (c grows with j), and
    its own roundings cost at most (N + 2k + 6) ulp k h_k. Before the split,
    the S_i cost (N + k + 6) ulp and the k products and k - 1 additions at
    most k ulp. Past the split (k > s), the sum makes s - 1 + A_s rounded
    additions, each off by half an ulp of a partial sum, so at most
    (s + A_s - 1) / 2 ulp in all. A head term E_{k-i} S_i (i <= s) also
    carries sigma_i plus half an ulp for its product, and the head's total
    N + s + 6 + (s + A_s) / 2 <= N + 7s/4 + 6 stays below N + 2k + 6 because
    A_s <= s / 2 and s < k. A tail term m_c q_c**i E_{k-i} carries
    (i + s + 2) / 2 ulp of its own: i half-ulps from the rounded q_c, s from
    the products that form q_c**(s+1), and one each for the products by m_c
    and by E_{k-i} when it entered U_c. Each step from s + 2 to k also
    rounds U_c twice (the product and the add), each time by half an ulp of
    |U_c|, which later steps only scale by q_c; that is k - s - 1 ulp of
    the term magnitudes. A tail term's total,
    (3k - s) / 2 + (s + A_s - 1) / 2 < (3k + N) / 2, also stays below
    N + 2k + 6, which leaves room for the classes dropped before s. After
    the division by k comes another 2 ulp h_k (its rounding, and one ulp to
    spare). So c_k = c_{k-1} + N + 2k + 8, that is c_k = k (N + k + 9). The
    survival k! e_k adds (k + 2) ulp of its own value for k! and the
    product, hence
    ``survival_error(k) = ulp (k (N + k + 9) k! H_k + (k + 2) |surv_k|)``.

    The bounds run the values' walk (one ``_NewtonWalk`` each) with every
    sign positive, so past the split they take the same route,
    V_c(k + 1) = q+_c V_c(k) + inj+_c H_{k-s}. Here q+_c = q_c (1 + ulp) is
    at least the exact probability, as the conversion is off by half an ulp.
    inj+_c = m_c q_c**(s+1) (1 + sigma_{s+1}) covers the (s + 1) ulp of the
    computed term and, through the leading class, which is never dropped,
    the classes dropped before s. S+_j, H_k, k!, q+_c, inj+_c, V_c and the
    bound itself are evaluated with every operation rounded upward at 8
    significant digits (``BOUND_PRECISION``, ROUND_CEILING), so H_k stays at
    least h_k, each bound is at least the formula's exact value, and it has
    at most 8 significant digits.

    Instances are not thread-safe; share them only with external locking.
    """

    def __init__(
        self, classes: Iterable[tuple[int, int]], denominator: int,
        mode: str | None = None, precision: int | None = None,
    ) -> None:
        if mode not in (None, "rational", "decimal"):
            raise ValueError(f"unknown spectrum mode: {mode!r}")
        if type(denominator) is not int:
            raise ValueError(f"denominator must be an integer, got {denominator!r}")
        if precision is not None:
            if mode == "rational":
                raise ValueError("precision applies to decimal mode only")
            if precision < 4:
                raise ValueError(f"decimal precision must be at least 4, got {precision}")
        merged: dict[int, int] = {}
        for weight, size in classes:
            if not (type(weight) is type(size) is int and weight > 0 and size > 0):
                raise ValueError(f"class ({weight!r}, {size!r}) is not two positive integers")
            merged[weight] = merged.get(weight, 0) + size
        classes = sorted(merged.items(), reverse=True)
        count = self.num_endpoints = sum(merged.values())
        if count > ENDPOINT_CEILING:
            raise ValueError(f"{count} class endpoints, above the ceiling {ENDPOINT_CEILING}")
        if sum(m * w for w, m in classes) != denominator:
            raise ValueError(f"class weights times multiplicities do not sum to {denominator}")
        if mode is None:
            mode = "rational" if count <= EXACT_ENDPOINT_LIMIT else "decimal"
        self.mode = mode
        self.num_classes = len(classes)
        self._den = denominator
        # The signed elementary values over the power sums (P_j in rational
        # mode, S_j in decimal mode); decimal mode's bound walk comes below.
        self._walk = _NewtonWalk()
        self._bound_walk: _NewtonWalk | None = None
        self.precision: int | None = None
        self.alarm_threshold: Decimal | None = None
        self._active = self.num_classes
        # Newton split (see the class docstring): the index s and A_s.
        self._split: int | None = None
        self._tail_classes = 0

        if mode == "rational":
            self._ctx = decimal.Context()  # exact arithmetic ignores it
            self._base: list[Number] = [w for w, _ in classes]
            self._mults: list[Number] = [m for _, m in classes]
            self._fact: Number = Fraction(1)
            self._surv: list[Number] = [Fraction(1)] * 2
        else:
            self.precision = precision = DEFAULT_PRECISION if precision is None else precision
            self._ctx = decimal.Context(prec=precision, Emax=10**9, Emin=-(10**9))
            with decimal.localcontext(self._ctx):
                den = Decimal(denominator)
                self._base = [Decimal(w) / den for w, _ in classes]
                self._mults = [Decimal(m) for _, m in classes]
                self._ulp = Decimal(10) ** (1 - precision)
                self._prune = Decimal(10) ** (-(precision + 12))
                self.alarm_threshold = Decimal(10) ** (-(precision // 2))
            self._fact = Decimal(1)
            self._surv = [Decimal(1)] * 2
            # Error-bound state, all upward-rounded BOUND_PRECISION-digit
            # values: the H_k over the S+_j, k!, and the bound of each survival.
            self._bound_walk = _NewtonWalk()
            self._fact_up = Decimal(1)
            self._surv_err = [Decimal(0)] * 2
        self._cur = list(self._base)

    @property
    def max_survival_error(self) -> Decimal | None:
        """Largest survival error bound so far: 0 before m = 2, None in rational mode."""
        return None if self.mode == "rational" else max(self._surv_err)

    @property
    def precision_alarm(self) -> bool:
        """True once any survival error bound exceeded the alarm threshold."""
        return self.mode == "decimal" and self.max_survival_error > self.alarm_threshold

    @property
    def split_index(self) -> int | None:
        """The index s past which Newton's sum carries one tail sum per class.

        s is the first index with at most s / 2 classes still active. None
        until the power sums reach it, so None throughout a walk that ends
        first.
        """
        return self._split

    @property
    def tail_classes(self) -> int:
        """Number of classes carried by tail sums past the split; 0 before it."""
        return self._tail_classes

    def power_sum(self, j: int) -> Number:
        """S_j = sum over endpoints of q^j, grown up to ``j`` if needed.

        Raises:
            ValueError: if ``j < 1``.
        """
        if j < 1:
            raise ValueError(f"power sum index must be at least 1, got {j}")
        self.ensure_power(j)
        if self.mode == "rational":
            return Fraction(self._walk.sums[j - 1], self._den**j)
        return self._walk.sums[j - 1]

    def ensure_power(self, j: int) -> None:
        """Extend the power sums so that S_1..S_j are available."""
        cur = self._cur
        sums = self._walk.sums
        bounds = self._bound_walk
        with decimal.localcontext(self._ctx):
            while len(sums) < j:
                active = self._active
                if sums:
                    cur[:active] = map(operator.mul, cur[:active], self._base)
                terms = map(operator.mul, self._mults[:active], cur[:active])
                seeding = len(sums) == self._split
                if seeding:
                    # The class terms m_c * q_c**(s + 1) of S_{s+1} seed the tails.
                    terms = list(terms)
                    self._walk.seed(self._base, terms)
                total = sum(terms)
                sums.append(total)
                if bounds is not None:
                    # First-order relative bound on S_j: conversion, j power
                    # roundings, one product and one add per class, plus the
                    # pruning slack.
                    with decimal.localcontext(_BOUND_CONTEXT):
                        sigma = Decimal(self.num_classes + len(sums) + 6) * self._ulp
                        bounds.sums.append(total * (1 + sigma))
                        if seeding:
                            bounds.seed(
                                [q * (1 + self._ulp) for q in self._base[:active]],
                                [term * (1 + sigma) for term in terms],
                            )
                    # Drop classes that can no longer move S at this precision.
                    cutoff = cur[0] * self._prune
                    while self._active > 1 and cur[self._active - 1] < cutoff:
                        self._active -= 1
                if self._split is None and 2 * self._active <= len(sums):
                    self._split = len(sums)
                    self._tail_classes = self._active

    def _extend_newton(self, m: int) -> None:
        if m < len(self._surv):
            return
        values = self._walk.values
        bounds = self._bound_walk
        with decimal.localcontext(self._ctx):
            while len(values) <= m:
                k = len(values)
                if self._split is None or k == self._split + 1:
                    self.ensure_power(k)
                # k * E_k = -sum_i E_{k-i} * S_i, with E_k = (-1)**k * e_k.
                signed = self._walk.step(self._split, -1)
                self._fact *= Fraction(k, self._den) if bounds is None else k  # k!/D**k or k!
                surv = self._fact * (-signed if k % 2 else signed)
                if bounds is not None:
                    with decimal.localcontext(_BOUND_CONTEXT):
                        # k * H_k = sum_i H_{k-i} * S+_i, and e_k is off by at
                        # most k * (N + k + 9) * ulp * H_k (see the class docstring).
                        h_k = bounds.step(self._split, 1)
                        self._fact_up *= k
                        surv_err = self._ulp * (
                            k * (self.num_classes + k + 9) * self._fact_up * h_k
                            + (k + 2) * abs(surv)
                        )
                    if k >= 2:
                        self._surv_err.append(surv_err)
                if k >= 2:
                    self._surv.append(surv)

    def _in_support(self, m: int) -> bool:
        """Reject a negative pack count; True while m packs can be pairwise distinct."""
        if m < 0:
            raise ValueError(f"pack count must be non-negative, got {m}")
        return m <= self.num_endpoints

    def survival(self, m: int) -> Number:
        """P[X > m]: probability the first m packs have pairwise distinct endpoints.

        Exact 1 for m <= 1 and exact 0 beyond the number of distinct
        endpoints, in both modes.

        Raises:
            ValueError: if ``m`` is negative.
        """
        if not self._in_support(m):
            return self._surv[0] - self._surv[0]
        self._extend_newton(m)
        return self._surv[m]

    def survival_error(self, m: int) -> Decimal | None:
        """Tracked absolute error bound for ``survival(m)`` (decimal mode only).

        The bound has at most ``BOUND_PRECISION`` significant digits; it is 0
        where ``survival(m)`` is exact, and None in rational mode.

        Raises:
            ValueError: if ``m`` is negative.
        """
        inside = self._in_support(m)
        if self.mode == "rational":
            return None
        if not inside:
            return Decimal(0)
        self._extend_newton(m)
        return self._surv_err[m]


def endpoint_spectrum(spec: PackSpec, *, precision: int | None = None) -> EndpointSpectrum:
    """The spectrum of ``spec``'s partition classes over d**n, in the default mode.

    ``precision`` is read where that mode is decimal (see
    :class:`EndpointSpectrum`). A shape with more than ``ENDPOINT_CEILING``
    (10**7) endpoints is refused before its classes are walked.

    Raises:
        ValueError: on invalid arguments, or above the endpoint ceiling.
    """
    count = distinct_pack_count(spec)
    if count > ENDPOINT_CEILING:
        raise ValueError(
            f"{spec} has {count} distinct endpoints, above the ceiling {ENDPOINT_CEILING}"
        )
    return EndpointSpectrum(partition_classes(spec), spec.d**spec.n, precision=precision)


class FirstMatchLaw(NamedTuple):
    """Truncated first-match distribution with its bookkeeping.

    ``pmf[l]`` is P[X = l] for l = 2..last_index; ``expectation`` is E[X]
    including the tail bound's worth of slack at most; ``tail_bound`` bounds
    the probability-weighted mass ignored past ``last_index``. In decimal
    mode ``survival_error`` carries the largest tracked error bound and
    ``precision_alarm`` mirrors the spectrum's alarm.
    """

    mode: str
    pmf: dict[int, Number]
    expectation: Number
    tail_bound: Number
    last_index: int
    precision: int | None = None
    precision_alarm: bool = False
    survival_error: Decimal | None = None


def exact_pmf_and_expectation(
    spectrum: EndpointSpectrum, tol: float = DEFAULT_TOLERANCE
) -> FirstMatchLaw:
    """First-match law under the exact oracle, truncated at tolerance ``tol``.

    Walks m = 2, 3, ... computing survivals; the spectrum grows its power
    sums as it goes. P[X = m] = P[X > m - 1] - P[X > m] and
    E[X] = sum of survivals. Stops exactly when the survival hits 0 (always
    within num_endpoints + 1 packs) or once the survival and its geometric
    tail bound both fall below ``tol``, the stopping rule of
    :func:`pairwise_expectation` with the survival ratio as term ratio;
    survival ratios are decreasing, which makes the geometric bound valid.
    The pmf then sums to 1 up to the reported tail. In decimal mode the walk
    sums at 28 significant digits, half-even, whatever the caller's decimal
    context.

    Raises:
        ValueError: if ``tol`` is not in (0, 1).
    """
    _check_tolerance(tol)
    with decimal.localcontext(_WALK_CONTEXT):
        one = spectrum.survival(1)
        zero = one - one
        # In the survivals' own type: a Fraction compares with a Decimal
        # exactly, but about 20 times slower at 700-digit denominators.
        tolerance = type(one)(Decimal(str(tol)))
        pmf: dict[int, Number] = {}
        expectation = one + one  # survivals at m = 0 and m = 1
        previous = one
        m = 2
        while True:
            survival = spectrum.survival(m)
            if survival < 0:
                # Roundoff past the bottom of the support; clamp.
                survival = zero
            mass = previous - survival
            pmf[m] = mass if mass > 0 else zero
            expectation = expectation + survival
            if survival == 0:
                tail = zero
                break
            if survival <= tolerance:  # the ratio's division only once it can stop
                tail = _geometric_tail(survival, survival / previous, tolerance)
                if tail is not None:
                    break
            previous = survival
            m += 1
    return FirstMatchLaw(
        mode=spectrum.mode,
        pmf=pmf,
        expectation=expectation,
        tail_bound=tail,
        last_index=m,
        precision=spectrum.precision,
        precision_alarm=spectrum.precision_alarm,
        survival_error=spectrum.max_survival_error,
    )


Weights = tuple[tuple[int, Fraction], ...]


class PackSizeDistribution(NamedTuple("PackSizeDistribution", [("weights", Weights)])):
    """Probability distribution over pack sizes, with exact rational weights.

    ``weights`` maps each pack size to a positive Fraction; the weights sum
    to exactly 1 (parsing renormalises near-1 decimal input before
    construction). Build through :meth:`from_pairs`, :meth:`from_text`, or
    :meth:`from_file`. A named tuple with the one field ``weights``:
    immutable, compared and hashed by value.
    """

    __slots__ = ()

    def __new__(cls, weights: Weights) -> PackSizeDistribution:
        if not weights:
            raise ValueError("pack size distribution must have at least one entry")
        total = Fraction(0)
        seen: set[int] = set()
        for size, weight in weights:
            if size < 0:
                raise ValueError(f"pack size must be non-negative, got {size}")
            if size in seen:
                raise ValueError(f"duplicate pack size {size}")
            if not 0 < weight <= 1:
                raise ValueError(f"weight for size {size} must lie in (0, 1], got {weight}")
            seen.add(size)
            total += weight
        if total != 1:
            raise ValueError(f"weights must sum to exactly 1, got {total}")
        return super().__new__(cls, weights)

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[int, Fraction]]) -> "PackSizeDistribution":
        """Distribution from (size, weight) pairs; weights must sum to exactly 1."""
        return cls(tuple(sorted(((n, Fraction(w)) for n, w in pairs))))

    @classmethod
    def from_text(cls, text: str, source: str = "<text>") -> "PackSizeDistribution":
        """Parse a distribution from its text format.

        One ``SIZE WEIGHT`` pair per line; ``#`` starts a comment and blank
        lines are ignored. Weights are rationals like ``1/3`` or integers, or
        decimals like ``0.25`` and ``2.5e-1``. A decimal weight's order of
        magnitude (its exponent in scientific notation) must lie within
        -1000..1000. If every weight is rational the sum must equal 1
        exactly; if any weight is decimal the sum must be within 10**-9 of 1
        and the weights are then renormalised to sum to exactly 1.

        Raises:
            ValueError: on any malformed line or bad total, with the source
                name and 1-based line number in the message.
        """
        entries: list[tuple[int, Fraction]] = []
        saw_decimal = False
        seen: set[int] = set()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise ValueError(
                    f"{source}: line {lineno}: expected 'SIZE WEIGHT', got {raw.strip()!r}"
                )
            size_token, weight_token = tokens
            try:
                size = int(size_token)
            except ValueError:
                raise ValueError(
                    f"{source}: line {lineno}: pack size {size_token!r} is not an integer"
                ) from None
            if size < 0:
                raise ValueError(f"{source}: line {lineno}: pack size must be non-negative")
            if size in seen:
                raise ValueError(f"{source}: line {lineno}: duplicate pack size {size}")
            seen.add(size)
            try:
                if "/" in weight_token:
                    weight = Fraction(weight_token)
                elif any(c in weight_token for c in ".eE"):
                    saw_decimal = True
                    weight = Decimal(weight_token)
                else:
                    weight = Fraction(int(weight_token))
            except (ValueError, decimal.InvalidOperation, ZeroDivisionError):
                raise ValueError(
                    f"{source}: line {lineno}: weight {weight_token!r} is not a number"
                ) from None
            if isinstance(weight, Decimal):
                # The exact value holds 10**|exponent|, which at 1e-99999999
                # takes longer to build than any weight is worth.
                if not -1000 <= weight.adjusted() <= 1000:
                    raise ValueError(
                        f"{source}: line {lineno}: weight {weight_token!r} has a decimal "
                        "exponent outside -1000..1000"
                    )
                weight = Fraction(weight)
            if weight <= 0:
                raise ValueError(f"{source}: line {lineno}: weight must be positive")
            entries.append((size, weight))
        if not entries:
            raise ValueError(f"{source}: no entries found")
        total = sum(w for _, w in entries)
        if saw_decimal:
            if abs(total - 1) > Fraction(1, 10**9):
                raise ValueError(
                    f"{source}: decimal weights sum to {significant_string(total, 12)}, "
                    "more than 1e-9 away from 1"
                )
            entries = [(n, w / total) for n, w in entries]
        elif total != 1:
            raise ValueError(f"{source}: rational weights sum to {total}, expected exactly 1")
        return cls.from_pairs(entries)

    @classmethod
    def from_file(cls, path: object) -> "PackSizeDistribution":
        """Parse a distribution file; see :meth:`from_text` for the format.

        The file is UTF-8, with or without a byte-order mark. A byte that is
        not UTF-8 raises ValueError naming the path, like every other parse
        error.
        """
        with open(path, "r", encoding="utf-8-sig") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: {exc}") from None
        return cls.from_text(text, source=str(path))

    def sizes(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.weights)


def mixture_match_probability(distribution: PackSizeDistribution, d: int) -> Fraction:
    """Probability two packs match when sizes are drawn from ``distribution``.

    Both packs draw a size independently from the distribution, then fill
    with ``d`` colors; matching requires equal sizes and equal contents, so
    the answer is sum over sizes of weight(n)^2 * match probability at n,
    every count read from one list of counts up to the largest size.

    Raises:
        ValueError: if ``d`` is not positive, or the largest size is too
            large to index (see :class:`PackSpec`).
    """
    largest = PackSpec(max(distribution.sizes()), d)
    counts = _gf_counts(largest.n, d)
    total = Fraction(0)
    for size, weight in distribution.weights:
        total += weight * weight * Fraction(counts[size], d ** (2 * size))
    return total
