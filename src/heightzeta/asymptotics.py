"""Counting asymptotics from exact zeta data.

The count of points with height up to B = q^(k/d) is predicted by

    N(B) ~ sum over m with alpha^m <= B of p_m,
    p_m  = sum over strip poles a of alpha^(am) * sum_n c_n(a) m^(n-1)/(n-1)!,

and the error is O(1) because the per-coefficient differences a_m - p_m are
the Taylor coefficients of the remainder (zeta minus all strip principal
parts), whose denominator has all roots outside the closed unit disk.  So
p_m is the m-th Taylor coefficient of the summed principal parts, and every
main term is a prefix sum of that one rational series.  The summed
principal parts come from partial fractions over Q; the trace formula above
(orbit_contributions, stepping u^(-m) through every m in one pass) computes
p_m independently from the Laurent data, as the check inside
remainder_check.  All predictions are exact rationals; the only floats are
the decay base, read off the exact root moduli of the remainder's
denominator factors, and the advisory pole locations.

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
    qpoly_factor,
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
    parts, and remainder = normalized - principal; decay_base is a float
    upper bound (< 1) for the geometric rate of the remainder coefficients:
    the largest 1/|root| = |c_n/c_0|^(1/n) over the irreducible factors
    c_0 + ... + c_n w^n of the remainder's denominator (each has all its
    roots on one circle), times 1 + 1e-9; 0.0 when the remainder is a
    polynomial, as for every spec's closed form (only hand-built z get a float).
    """

    alpha_exponent: int
    normalized: QRatFunc
    pole_records: tuple[PoleRecord, ...]
    principal: QRatFunc
    remainder: QRatFunc
    decay_base: float


def build_report(z: QRatFunc, q: int, d: int) -> AsymptoticReport:
    """Locate strip poles with their Laurent data, and split off the remainder."""
    e, zt = exponent_gcd_normalize(z)
    records = tuple(unit_disk_poles(zt, q, d, e))
    principal, remainder = split_principal_parts(zt, records)
    if remainder.den.degree == 0:
        decay = 0.0
    else:
        # every factor passed unit_disk_poles' equal-modulus guard, so its
        # roots all have modulus |c_0/c_n|^(1/n)
        _, factors = qpoly_factor(remainder.den)
        decay = max(
            float(abs(p.leading() / p.coeffs[0])) ** (1.0 / p.degree) for p, _ in factors
        ) * (1 + 1e-9)
        if decay >= 1.0:
            raise RuntimeError("remainder denominator has a root inside the closed unit disk")
    return AsymptoticReport(
        alpha_exponent=e,
        normalized=zt,
        pole_records=records,
        principal=principal,
        remainder=remainder,
        decay_base=decay,
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
    envelope_constant: float
    max_abs_difference: Fraction
    decay_base: float
    first_failure: int | None = None


def remainder_check(report: AsymptoticReport, m_max: int) -> RemainderCheck:
    """Certify that a_m - p_m equals the remainder coefficients and decays.

    The differences are computed exactly; the envelope |a_m - p_m| <=
    C * decay_base^m is calibrated on the first half of the range and must
    hold on the second half (a polynomial remainder must vanish outright
    beyond its degree).
    """
    a = series_coefficients(report.normalized, m_max)
    g = series_coefficients(report.remainder, m_max)
    p = predicted_coefficients(report, m_max)
    diffs = []
    match = True
    first_failure = None
    for m in range(m_max + 1):
        delta = a[m] - p[m]
        diffs.append(delta)
        if delta != g[m] and first_failure is None:
            match = False
            first_failure = m
    max_abs = max((abs(d) for d in diffs), default=Fraction(0))
    r = report.decay_base
    ok = match
    if r == 0.0:
        cutoff = report.remainder.num.degree
        envelope = float(max_abs)
        late = next((m for m in range(cutoff + 1, m_max + 1) if diffs[m] != 0), None)
        if late is not None:
            ok = False
            if first_failure is None:
                first_failure = late
    else:
        rf = Fraction(r)
        half = m_max // 2
        env = max(abs(d) / rf**m for m, d in enumerate(diffs[: half + 1]))
        for m in range(half + 1, m_max + 1):
            if abs(diffs[m]) > env * rf**m:
                ok = False
                if first_failure is None:
                    first_failure = m
                break
        envelope = float(env)
    return RemainderCheck(
        ok=ok,
        differences_match_remainder=match,
        envelope_constant=envelope,
        max_abs_difference=max_abs,
        decay_base=r,
        first_failure=first_failure,
    )
