"""Counting asymptotics from exact zeta data.

The count of points with height up to B = q^(k/d) is predicted by

    N(B) ~ sum over m with alpha^m <= B of p_m,
    p_m  = sum over strip poles a of alpha^(am) * sum_n c_n(a) m^(n-1)/(n-1)!,

and the error is O(1) because the per-coefficient differences a_m - p_m are
the Taylor coefficients of the remainder (zeta minus all strip principal
parts).  Every root of the zeta denominator lies in the closed unit disk
(unit_disk_poles refuses any other input), so every denominator factor is
a strip pole and the remainder is a polynomial: a_m - p_m vanishes beyond
its degree.  So p_m is the m-th Taylor coefficient of the summed principal
parts, and every main term is a prefix sum of that one rational series.
The summed principal parts come from partial fractions over Q; the trace
formula above (orbit_contributions, stepping u^(-m) through every m in one
pass) computes p_m independently from the Laurent data, as the check
inside remainder_check.  Every prediction and every check is exact; the
only floats are the displayed pole locations and moduli.

Also here: Stirling and Bernoulli numbers with the identities that link them
(the Laurent expansion of 1/(1 - e^(-x))^k in lemma51_check), each verifiable
to any desired series order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .qfuncs import (
    PoleRecord,
    QPoly,
    QRatFunc,
    exponent_gcd_normalize,
    orbit_contributions,
    series_coefficients,
    split_principal_parts,
    unit_disk_poles,
)

_N_MAX = 64


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, by the standard recurrence."""
    if not (0 <= k <= n <= _N_MAX):
        raise ValueError("stirling2 arguments out of range")
    row = [1]
    for nn in range(1, n + 1):
        new = [0] * (nn + 1)
        for kk in range(1, nn + 1):
            above = row[kk] if kk < len(row) else 0
            new[kk] = kk * above + row[kk - 1]
        row = new
    return row[k]


def bernoulli(n: int) -> Fraction:
    """n-th Bernoulli number (B_1 = -1/2), via series inversion of (e^x - 1)/x."""
    if not (0 <= n <= _N_MAX):
        raise ValueError("bernoulli argument out of range")
    e_series = QPoly([Fraction(1, factorial(j + 1)) for j in range(n + 1)])
    return series_coefficients(QRatFunc(QPoly((1,)), e_series), n)[n] * factorial(n)


def lemma51_check(n: int, order: int) -> bool:
    """Compare the two sides of the Stirling/Bernoulli Laurent identity

        sum_k (-1)^(n+k) ((k-1)!/(n-1)!) S(n,k) / (1 - e^(-x))^k
            = x^(-n) - (1/(n-1)!) sum_m (B_(m+n)/(m+n)) (-x)^m / m!

    as exact Laurent series in x through x^order.
    """
    if n < 1:
        raise ValueError("n must be positive")
    length = order + n + 1
    # 1 - e^(-x) = x * U(x)
    u_series = QPoly([Fraction((-1) ** j, factorial(j + 1)) for j in range(length)])
    inv_u = QPoly(series_coefficients(QRatFunc(QPoly((1,)), u_series), length - 1))
    # left side, as coefficients of x^(j) for j in [-n, order]
    lhs = [Fraction(0)] * (order + n + 1)
    power = QPoly((1,))
    for k in range(1, n + 1):
        power = QPoly((power * inv_u).coeffs[:length])
        beta = Fraction((-1) ** (n + k) * factorial(k - 1) * stirling2(n, k), factorial(n - 1))
        if beta:
            for j, c in enumerate(power.coeffs):
                idx = j - k + n  # order j - k, stored at offset n
                if 0 <= idx <= order + n:
                    lhs[idx] += beta * c
    rhs = [Fraction(0)] * (order + n + 1)
    rhs[0] = Fraction(1)  # the x^(-n) term
    for m in range(0, order + 1):
        rhs[m + n] = -Fraction((-1) ** m, factorial(m) * factorial(n - 1)) * (
            bernoulli(m + n) / (m + n)
        )
    return lhs == rhs


def stirling_pochhammer_check(n: int, xmax: int) -> bool:
    """Verify x^n = sum_k (-1)^(n-k) S(n,k) x(x+1)...(x+k-1) for x in [0, xmax]."""
    if n < 1:
        raise ValueError("n must be positive")
    for x in range(xmax + 1):
        total = 0
        rising = 1
        for k in range(1, n + 1):
            rising = rising * (x + k - 1) if k > 1 else x
            total += (-1) ** (n - k) * stirling2(n, k) * rising
        if total != x**n:
            return False
    return True


@dataclass(frozen=True)
class AsymptoticReport:
    """Normalized zeta data ready for counting predictions.

    normalized is the zeta function rewritten in wtilde = alpha^(-s) with
    alpha = q^(alpha_exponent/d); principal is the sum of all strip principal
    parts, and remainder = normalized - principal, a polynomial kept as a
    QRatFunc with denominator 1.
    """

    alpha_exponent: int
    normalized: QRatFunc
    pole_records: tuple[PoleRecord, ...]
    principal: QRatFunc
    remainder: QRatFunc


def build_report(z: QRatFunc, q: int, d: int) -> AsymptoticReport:
    """Locate strip poles with their Laurent data, and split off the remainder."""
    e, zt = exponent_gcd_normalize(z)
    records = tuple(unit_disk_poles(zt, q, d, e))
    principal, remainder = split_principal_parts(zt, records)
    return AsymptoticReport(
        alpha_exponent=e,
        normalized=zt,
        pole_records=records,
        principal=principal,
        remainder=remainder,
    )


def predicted_coefficients(report: AsymptoticReport, m_max: int) -> list[Fraction]:
    """Exact trace-summed predictions p_0..p_M for the Dirichlet coefficients."""
    totals = [Fraction(0)] * (m_max + 1)
    for rec in report.pole_records:
        totals = [t + c for t, c in zip(totals, orbit_contributions(rec, m_max))]
    return totals


def predicted_coefficient(report: AsymptoticReport, m: int) -> Fraction:
    """predicted_coefficients(report, m)[m]: the prediction p_m at one m."""
    return predicted_coefficients(report, m)[m]


def main_terms(report: AsymptoticReport, k_max: int) -> list[Fraction]:
    """Predicted counts for B = q^(k/d), every k <= k_max, from one series.

    The k-th entry is the sum of p_m over alpha^m <= B, i.e. m <= floor(k/e)
    (integer exponents only), with p_m the Taylor coefficients of the summed
    principal parts.
    """
    if k_max < 0:
        raise ValueError("bound exponent must be >= 0")
    e = report.alpha_exponent
    prefix, total = [], Fraction(0)
    for p_m in series_coefficients(report.principal, k_max // e):
        total += p_m
        prefix.append(total)
    return [prefix[k // e] for k in range(k_max + 1)]


def main_term(report: AsymptoticReport, k: int) -> Fraction:
    """Predicted count for B = q^(k/d): sum of p_m over alpha^m <= B."""
    return main_terms(report, k)[k]


@dataclass(frozen=True)
class RemainderCheck:
    ok: bool
    differences_match_remainder: bool
    max_abs_difference: Fraction
    first_failure: int | None = None


def remainder_check(report: AsymptoticReport, m_max: int) -> RemainderCheck:
    """Certify exactly that a_m - p_m is the remainder's m-th coefficient.

    Two checks for every m <= m_max: a_m - p_m equals the remainder's Taylor
    coefficient, and it vanishes beyond the remainder's degree.
    """
    a = series_coefficients(report.normalized, m_max)
    g = series_coefficients(report.remainder, m_max)
    p = predicted_coefficients(report, m_max)
    diffs = [a_m - p_m for a_m, p_m in zip(a, p)]
    mismatch = next((m for m in range(m_max + 1) if diffs[m] != g[m]), None)
    late = next((m for m in range(report.remainder.num.degree + 1, m_max + 1) if diffs[m]), None)
    return RemainderCheck(
        ok=mismatch is None and late is None,
        differences_match_remainder=mismatch is None,
        max_abs_difference=max((abs(d) for d in diffs), default=Fraction(0)),
        first_failure=late if mismatch is None else mismatch,
    )
