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
``S_j = sum_v q_v^j``. Endpoints sharing a probability are grouped into
classes (one class per partition shape), which shrinks the working set by
orders of magnitude. Small problems run in exact arithmetic: Newton's
identities on integers (the probabilities share the denominator d**n), with
exact division by k and one Fraction per survival. Larger ones use
high-precision decimal arithmetic with a precision alarm and a tracked error
bound per survival. One recurrence bounds them all: Newton's identities with
every sign positive, run at 8 significant digits with upward rounding on
upper bounds of the power sums, bound the complete homogeneous polynomials
h_k >= e_k, and the error of each e_k is proportional to h_k. The law is
summed at a fixed 28 significant digits.
"""

from __future__ import annotations

import decimal
import operator
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterator, Sequence, Union

from .coincidence import (
    ENDPOINT_CEILING,
    PackSpec,
    coincidence_probability,
    distinct_pack_count,
)
from .exactmath import factorial, multinomial

Number = Union[Fraction, Decimal]

DEFAULT_TOLERANCE = 1e-12
DEFAULT_PRECISION = 128
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
        ValueError: if ``p`` is outside [0, 1] or ``length < 1``.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"pair match probability must lie in [0, 1], got {p}")
    if length < 1:
        raise ValueError(f"pack index must be at least 1, got {length}")
    if length == 1:
        return Fraction(0)
    exponent = (length - 1) * (length - 2) // 2
    return (1 - p) ** exponent * (length - 1) * p


@dataclass(frozen=True)
class SeriesExpectation:
    """A truncated positive series: its value, tail bound, and last index."""

    value: Decimal
    tail_bound: Decimal
    last_index: int


def pairwise_expectation(p: Fraction, tol: float = DEFAULT_TOLERANCE) -> SeriesExpectation:
    """Expectation of the pairwise model, summed until the tail is provably small.

    Sums l * (l - 1) * p * (1 - p)^C(l-1, 2) for l = 2, 3, ... and stops once
    the current term is below ``tol``, the term ratio
    r = (l + 1) / (l - 1) * (1 - p)^(l - 1) has dropped below 1, and the
    geometric tail bound term * r / (1 - r) is below ``tol``. The ratio is
    decreasing in l, so the geometric bound is valid from the stopping index.
    The sum runs at ``PAIRWISE_PRECISION`` significant digits.

    The ratio can only drop below 1 once l**2 > 1 + 2 / p: Bernoulli's
    inequality (1 - p)^(l - 1) >= 1 - (l - 1) p turns r < 1 into
    (l**2 - 1) p > 2. So when p is too small for any l up to
    ``_PAIRWISE_MAX_TERMS`` to pass that test, the call fails before summing.

    Raises:
        ValueError: if ``p`` is not in (0, 1] (the series diverges at p = 0),
            or if the series cannot stop within ``_PAIRWISE_MAX_TERMS`` terms.
    """
    p = Fraction(p)
    if not 0 < p <= 1:
        raise ValueError(f"pair match probability must lie in (0, 1], got {p}")
    if p * (_PAIRWISE_MAX_TERMS**2 - 1) <= 2:
        raise ValueError(
            f"pairwise expectation needs more than {_PAIRWISE_MAX_TERMS} terms at pair "
            f"probability {float(p):.6g}: its term ratio stays at or above 1 until "
            "l**2 > 1 + 2/p"
        )
    ctx = decimal.Context(prec=PAIRWISE_PRECISION, Emax=10**9, Emin=-(10**9))
    with decimal.localcontext(ctx):
        pd = Decimal(p.numerator) / Decimal(p.denominator)
        omp = 1 - pd
        tolerance = Decimal(str(tol))
        total = Decimal(0)
        power = Decimal(1)  # (1 - p)^C(l-1, 2)
        step = omp  # (1 - p)^(l - 1)
        index = 2
        while True:
            term = Decimal(index * (index - 1)) * pd * power
            total += term
            ratio = Decimal(index + 1) / Decimal(index - 1) * step
            if term <= tolerance and ratio < 1:
                tail = term * ratio / (1 - ratio)
                if tail <= tolerance:
                    return SeriesExpectation(+total, +tail, index)
            power *= step
            step *= omp
            index += 1
            if index > _PAIRWISE_MAX_TERMS:
                raise ValueError(
                    f"pairwise expectation did not converge within {_PAIRWISE_MAX_TERMS} terms"
                )


def _partitions_descending(total: int, slots: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Partitions of ``total`` into at most ``slots`` positive parts, each <= cap."""
    if total == 0:
        yield ()
        return
    if slots == 0:
        return
    for first in range(min(total, cap), 0, -1):
        for rest in _partitions_descending(total - first, slots - 1, first):
            yield (first,) + rest


def _endpoint_classes(spec: PackSpec) -> list[tuple[int, int]]:
    """Group endpoints by their multinomial weight.

    Returns (weight, multiplicity) pairs sorted by descending weight, where
    multiplicity counts the endpoints sharing that weight. Endpoints with the
    same sorted count multiset form one partition class of size
    d! / prod(repetition factorials); classes with coinciding weights are
    merged. The multiplicities sum to C(n + d - 1, d - 1).
    """
    n, d = spec.n, spec.d
    merged: dict[int, int] = {}
    for partition in _partitions_descending(n, d, n if n else 1):
        padded = partition + (0,) * (d - len(partition))
        repeats = Counter(padded)
        classes = factorial(d)
        for count in repeats.values():
            classes //= factorial(count)
        weight = multinomial(n, padded)
        merged[weight] = merged.get(weight, 0) + classes
    pairs = sorted(merged.items(), key=lambda item: item[0], reverse=True)
    if sum(mult for _, mult in pairs) != distinct_pack_count(spec):
        raise AssertionError(f"endpoint classes for {spec} lost endpoints")
    return pairs


class EndpointSpectrum:
    """Endpoint probabilities of a pack shape, aggregated for the exact oracle.

    Holds one entry per distinct probability value together with its
    multiplicity, and grows three aligned sequences: the power sums S_j, the
    elementary symmetric values e_m, and the survival probabilities
    P[X > m] = m! * e_m. :meth:`power_sum`, :meth:`survival` and
    :meth:`survival_error` grow them up to the index asked for, in any order.
    Construct through :func:`endpoint_spectrum`.

    Two arithmetic modes exist. ``"rational"`` is exact: the endpoint
    probabilities are w / D with integer weights w and D = d**n, so it keeps
    the integer power sums P_j = sum w**j and runs Newton's identities on the
    integers G_k = D**k * e_k, dividing exactly by k; a survival is the one
    Fraction k! * G_k / D**k. ``"decimal"`` works at a fixed number of
    significant digits and tracks a conservative absolute error bound for
    every survival value. If any bound crosses ``alarm_threshold``
    (10**-(precision // 2)) the sticky ``precision_alarm`` flag is raised. In
    decimal mode, classes whose current power has decayed below
    10**-(precision + 12) times the leading class's power are dropped from
    later power sums, which stays far below the tracked error bounds.

    The decimal bound, to first order in ulp = 10**(1 - precision), with N
    the number of classes. Each computed power sum has relative error at
    most sigma_j = (N + j + 6) ulp (conversion, j power roundings, one
    product and one add per class, and the pruning slack), so the computed
    S_j times (1 + sigma_j) is an upper bound S+_j on the exact S_j. Newton's
    identities with every sign positive, k H_k = sum_i H_{k-i} S+_i with
    H_0 = 1, give H_k >= h_k >= e_k, where h_k is the complete homogeneous
    polynomial of the probabilities. If every earlier e_j is off by at most
    c_j ulp h_j, the k-th Newton step inherits at most c_{k-1} ulp k h_k
    from the e_{k-i}, (N + k + 6) ulp k h_k from the S_i, k ulp k h_k from
    its k products and additions, and after the division by k another
    2 ulp h_k (its rounding, and one ulp to spare). So
    c_k = c_{k-1} + N + 2k + 8, that is c_k = k (N + k + 9). The survival
    k! e_k adds (k + 2) ulp of its own value for k! and the product, hence
    ``survival_error(k) = ulp (k (N + k + 9) k! H_k + (k + 2) |surv_k|)``.
    S+_j, H_k, k! and the bound itself are evaluated with every operation
    rounded upward at 8 significant digits (``BOUND_PRECISION``,
    ROUND_CEILING), so each bound is at least the formula's exact value and
    has at most 8 significant digits.

    Instances are not thread-safe; share them only with external locking.
    """

    def __init__(self, spec: PackSpec, mode: str, precision: int | None) -> None:
        if mode not in ("rational", "decimal"):
            raise ValueError(f"unknown spectrum mode: {mode!r}")
        self.spec = spec
        self.mode = mode
        self.num_endpoints = distinct_pack_count(spec)
        classes = _endpoint_classes(spec)
        self.num_classes = len(classes)
        self._weights = [w for w, _ in classes]
        self._mults = [m for _, m in classes]
        # Power sums (P_j in rational mode, S_j in decimal mode) and the same
        # with the Newton sign (-1)**(j - 1) applied.
        self._power_sums: list[Number] = []
        self._signed_sums: list[Number] = []
        self._surv: list[Number] = []
        self.precision: int | None = None
        self.alarm_threshold: Decimal | None = None
        self.max_survival_error: Decimal | None = None
        self._alarm = False

        if mode == "rational":
            self._den = spec.d**spec.n
            if sum(m * w for w, m in classes) != self._den:
                raise AssertionError(f"endpoint probabilities for {spec} do not sum to 1")
            self._cur = list(self._weights)
            self._elem = [1]  # G_k = D**k * e_k
            self._fact = 1
            self._den_k = 1  # D**k
        else:
            if precision is None:
                precision = DEFAULT_PRECISION
            if precision < 4:
                raise ValueError(f"decimal precision must be at least 4, got {precision}")
            self.precision = precision
            self._ctx = decimal.Context(prec=precision, Emax=10**9, Emin=-(10**9))
            with decimal.localcontext(self._ctx):
                den = Decimal(spec.d**spec.n)
                self._values = [Decimal(w) / den for w in self._weights]
                self._dec_mults = [Decimal(m) for m in self._mults]
                self._cur = list(self._values)
                self._ulp = Decimal(10) ** (1 - precision)
                self._prune = Decimal(10) ** (-(precision + 12))
                self.alarm_threshold = Decimal(10) ** (-(precision // 2))
                self._elem = [Decimal(1)]
                self._fact = Decimal(1)
            self.max_survival_error = Decimal(0)
            self._active = self.num_classes
            # Error-bound state, all upward-rounded BOUND_PRECISION-digit
            # values: upper bounds S+_j on the exact S_j, the complete
            # homogeneous bounds H_k, and k!.
            self._sums_up: list[Decimal] = []
            self._homog_up = [Decimal(1)]
            self._fact_up = Decimal(1)
            self._surv_err: list[Decimal] = []

    @property
    def precision_alarm(self) -> bool:
        """True once any survival error bound exceeded the alarm threshold."""
        return self._alarm

    def power_sum(self, j: int) -> Number:
        """S_j = sum over endpoints of q^j, grown up to ``j`` if needed.

        Raises:
            ValueError: if ``j < 1``.
        """
        if j < 1:
            raise ValueError(f"power sum index must be at least 1, got {j}")
        self.ensure_power(j)
        if self.mode == "rational":
            return Fraction(self._power_sums[j - 1], self._den**j)
        return self._power_sums[j - 1]

    def ensure_power(self, j: int) -> None:
        """Extend the power sums so that S_1..S_j are available."""
        if self.mode == "rational":
            while len(self._power_sums) < j:
                if self._power_sums:
                    self._cur = list(map(operator.mul, self._cur, self._weights))
                total = sum(map(operator.mul, self._mults, self._cur))
                self._power_sums.append(total)
                self._signed_sums.append(total if len(self._power_sums) % 2 else -total)
            return
        with decimal.localcontext(self._ctx):
            while len(self._power_sums) < j:
                active = self._active
                cur = self._cur
                if self._power_sums:
                    cur[:active] = map(operator.mul, cur[:active], self._values)
                total = sum(map(operator.mul, self._dec_mults[:active], cur[:active]))
                self._power_sums.append(total)
                j_new = len(self._power_sums)
                self._signed_sums.append(total if j_new % 2 else -total)
                # First-order relative bound on S_j: conversion, j power
                # roundings, one product and one add per class, plus the
                # pruning slack.
                with decimal.localcontext(_BOUND_CONTEXT):
                    sigma = Decimal(self.num_classes + j_new + 6) * self._ulp
                    self._sums_up.append(total * (1 + sigma))
                # Drop classes that can no longer move S at this precision.
                cutoff = cur[0] * self._prune
                while self._active > 1 and cur[self._active - 1] < cutoff:
                    self._active -= 1

    def _extend_newton(self, m: int) -> None:
        self.ensure_power(m)
        elem = self._elem
        if self.mode == "rational":
            # k * G_k = sum_i (-1)**(i - 1) * G_{k-i} * P_i, in integers.
            while len(elem) <= m:
                k = len(elem)
                total = sum(map(operator.mul, reversed(elem), self._signed_sums))
                g_k, remainder = divmod(total, k)
                if remainder:
                    raise AssertionError(f"Newton step {k} for {self.spec} is not an integer")
                elem.append(g_k)
                self._fact *= k
                self._den_k *= self._den
                if k >= 2:
                    self._surv.append(Fraction(self._fact * g_k, self._den_k))
            return
        homog = self._homog_up
        num_classes = self.num_classes
        with decimal.localcontext(self._ctx):
            while len(elem) <= m:
                k = len(elem)
                e_k = sum(map(operator.mul, reversed(elem), self._signed_sums)) / k
                self._fact *= k
                surv = self._fact * e_k
                with decimal.localcontext(_BOUND_CONTEXT):
                    # k * H_k = sum_i H_{k-i} * S+_i, and e_k is off by at most
                    # k * (N + k + 9) * ulp * H_k (see the class docstring).
                    homog.append(sum(map(operator.mul, reversed(homog), self._sums_up)) / k)
                    self._fact_up *= k
                    surv_err = self._ulp * (
                        k * (num_classes + k + 9) * self._fact_up * homog[k] + (k + 2) * abs(surv)
                    )
                elem.append(e_k)
                if k >= 2:
                    self._surv.append(surv)
                    self._surv_err.append(surv_err)
                    if surv_err > self.max_survival_error:
                        self.max_survival_error = surv_err
                    if surv_err > self.alarm_threshold:
                        self._alarm = True

    def survival(self, m: int) -> Number:
        """P[X > m]: probability the first m packs have pairwise distinct endpoints.

        Exact 1 for m <= 1 and exact 0 beyond the number of distinct
        endpoints, in both modes.

        Raises:
            ValueError: if ``m`` is negative.
        """
        one: Number = Fraction(1) if self.mode == "rational" else Decimal(1)
        if m < 0:
            raise ValueError(f"pack count must be non-negative, got {m}")
        if m <= 1:
            return one
        if m > self.num_endpoints:
            return one - one
        self._extend_newton(m)
        return self._surv[m - 2]

    def survival_error(self, m: int) -> Decimal | None:
        """Tracked absolute error bound for ``survival(m)`` (decimal mode only).

        The bound has at most ``BOUND_PRECISION`` significant digits; it is 0
        where ``survival(m)`` is exact, and None in rational mode.

        Raises:
            ValueError: if ``m`` is negative.
        """
        if m < 0:
            raise ValueError(f"pack count must be non-negative, got {m}")
        if self.mode == "rational":
            return None
        if m <= 1 or m > self.num_endpoints:
            return Decimal(0)
        self._extend_newton(m)
        return self._surv_err[m - 2]


def endpoint_spectrum(
    spec: PackSpec, *, mode: str | None = None, precision: int | None = None
) -> EndpointSpectrum:
    """Build the endpoint spectrum of ``spec``; power sums grow on demand.

    Args:
        spec: pack shape.
        mode: force ``"rational"`` or ``"decimal"``; by default rational is
            chosen when the endpoint count is at most ``EXACT_ENDPOINT_LIMIT``
            (10**4), decimal otherwise.
        precision: significant digits for decimal mode (default 128).

    Raises:
        ValueError: on invalid arguments, or when the endpoint count exceeds
            ``ENDPOINT_CEILING`` (10**7), a resource guard.
    """
    count = distinct_pack_count(spec)
    if count > ENDPOINT_CEILING:
        raise ValueError(
            f"{spec} has {count} distinct endpoints, above the ceiling {ENDPOINT_CEILING}"
        )
    if mode is None:
        mode = "rational" if count <= EXACT_ENDPOINT_LIMIT else "decimal"
    if mode == "rational" and precision is not None:
        raise ValueError("precision applies to decimal mode only")
    return EndpointSpectrum(spec, mode, precision)


@dataclass(frozen=True)
class FirstMatchLaw:
    """Truncated first-match distribution with its bookkeeping.

    ``pmf[l]`` is P[X = l] for l = 2..last_index; ``expectation`` is E[X]
    including the tail bound's worth of slack at most; ``tail_bound`` bounds
    the probability-weighted mass ignored past ``last_index``. ``model`` is
    ``"exact-oracle"`` here (the pairwise closed form reports through
    :class:`SeriesExpectation` instead). In decimal mode ``survival_error``
    carries the largest tracked error bound and ``precision_alarm`` mirrors
    the spectrum's sticky flag.
    """

    model: str
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
    within num_endpoints + 1 packs) or, in decimal mode, once the survival
    and its geometric tail bound both fall below ``tol``; survival ratios are
    decreasing, which makes the geometric bound valid. The pmf then sums to 1
    up to the reported tail. In decimal mode the walk sums at 28 significant
    digits, half-even, whatever the caller's decimal context.
    """
    one: Number
    zero: Number
    with decimal.localcontext(_WALK_CONTEXT):
        if spectrum.mode == "rational":
            one, zero = Fraction(1), Fraction(0)
            tolerance: Number = Fraction(Decimal(str(tol)))
        else:
            one, zero = Decimal(1), Decimal(0)
            tolerance = Decimal(str(tol))
        pmf: dict[int, Number] = {}
        expectation = one + one  # survivals at m = 0 and m = 1
        previous = one
        tail = zero
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
            if survival <= tolerance and survival < previous:
                ratio = survival / previous
                tail = survival * ratio / (1 - ratio)
                if tail <= tolerance:
                    break
            previous = survival
            m += 1
    return FirstMatchLaw(
        model="exact-oracle",
        mode=spectrum.mode,
        pmf=pmf,
        expectation=expectation,
        tail_bound=tail,
        last_index=m,
        precision=spectrum.precision,
        precision_alarm=spectrum.precision_alarm,
        survival_error=spectrum.max_survival_error,
    )


@dataclass(frozen=True)
class PackSizeDistribution:
    """Probability distribution over pack sizes, with exact rational weights.

    ``weights`` maps each pack size to a positive Fraction; the weights sum
    to exactly 1 (parsing renormalises near-1 decimal input before
    construction). Build through :meth:`from_pairs`, :meth:`from_text`, or
    :meth:`from_file`.
    """

    weights: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("pack size distribution must have at least one entry")
        total = Fraction(0)
        seen: set[int] = set()
        for size, weight in self.weights:
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

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[int, Fraction]]) -> "PackSizeDistribution":
        """Distribution from (size, weight) pairs; weights must sum to exactly 1."""
        return cls(tuple(sorted(((n, Fraction(w)) for n, w in pairs))))

    @classmethod
    def from_text(cls, text: str, source: str = "<text>") -> "PackSizeDistribution":
        """Parse a distribution from its text format.

        One ``SIZE WEIGHT`` pair per line; ``#`` starts a comment and blank
        lines are ignored. Weights are rationals like ``1/3`` or integers, or
        decimals like ``0.25`` and ``2.5e-1``. If every weight is rational the
        sum must equal 1 exactly; if any weight is decimal the sum must be
        within 10**-9 of 1 and the weights are then renormalised to sum to
        exactly 1.

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
                    weight = Fraction(Decimal(weight_token))
                else:
                    weight = Fraction(int(weight_token))
            except (ValueError, decimal.InvalidOperation, ZeroDivisionError):
                raise ValueError(
                    f"{source}: line {lineno}: weight {weight_token!r} is not a number"
                ) from None
            if weight <= 0:
                raise ValueError(f"{source}: line {lineno}: weight must be positive")
            entries.append((size, weight))
        if not entries:
            raise ValueError(f"{source}: no entries found")
        total = sum(w for _, w in entries)
        if saw_decimal:
            if abs(total - 1) > Fraction(1, 10**9):
                raise ValueError(
                    f"{source}: decimal weights sum to {float(total)}, "
                    "more than 1e-9 away from 1"
                )
            entries = [(n, w / total) for n, w in entries]
        elif total != 1:
            raise ValueError(f"{source}: rational weights sum to {total}, expected exactly 1")
        return cls.from_pairs(entries)

    @classmethod
    def from_file(cls, path: object) -> "PackSizeDistribution":
        """Parse a distribution file; see :meth:`from_text` for the format."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_text(handle.read(), source=str(path))

    def sizes(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.weights)


def mixture_match_probability(distribution: PackSizeDistribution, d: int) -> Fraction:
    """Probability two packs match when sizes are drawn from ``distribution``.

    Both packs draw a size independently from the distribution, then fill
    with ``d`` colors; matching requires equal sizes and equal contents, so
    the answer is sum over sizes of weight(n)^2 * match probability at n.

    Raises:
        ValueError: if ``d`` is not positive.
    """
    if d < 1:
        raise ValueError(f"color count must be positive, got {d}")
    total = Fraction(0)
    for size, weight in distribution.weights:
        total += weight * weight * coincidence_probability(PackSpec(size, d))
    return total
