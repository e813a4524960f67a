"""Closed-form dynamical height zeta functions for phi(z) = z^d + 1/f.

Assembles, as exact rational functions in the single variable w = q^(-s/d),
the full zeta function

    Z(s) = q^(1-g) * zeta_K(s-1)/zeta_K(s) * prod_v L_v(u_v)
         + c(g)/zeta_K(s) * prod_v (u_v^(v(f)) - u_v^d)/(1 - u_v^d),

with u_v = w^(f_v), x = q^(-s) = w^d, c(0) = 0 and c(1) = q - 1, over base
fields of genus 0 or 1.  The standard-height zetas of the regions cut out
by the bad places (all v(x) >= 0 on U, or the exact sign pattern given by T)
are the same two global terms times one local factor per constrained place:
with y = q_v^(-s), (1 - q_v*y)/(1 - y) and 1/(1 - y) where v(x) >= 0, and
(q_v - 1)*y/(1 - y) and -y/(1 - y) where v(x) < 0.  The disjoint-union
identity tying them to Z is checked symbolically.  Using one variable for
everything eliminates substitution mistakes: every object here multiplies
and reduces in Q(w).
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .gf import FqField, PolyFq, _prime_divisors
from .places import BadPlace, PhiSpec, validate_phi
from .qfuncs import QPoly, QRatFunc

# Largest map degree d a spec may carry.  The closed form has degree about d
# times the bad-place degrees in w, and its algebra slows steeply with it:
# with one bad place, verify takes 1.3-3.1 s at d = 128 and 13-31 s at d = 256.
MAX_MAP_DEGREE = 128


class ProblemSpec:
    """Everything the closed form needs: base field data plus the bad set.

    frobenius_trace is the integer a with #E(F_q) = q + 1 - a (genus 1 only);
    the zeta numerator is then 1 - a*x + q*x^2.  bad_places carry (f_v, vf)
    and, when built from a concrete genus-0 polynomial f, the places
    themselves.
    """

    __slots__ = ("q", "genus", "d", "bad_places", "frobenius_trace", "field", "f", "curve")

    def __init__(self, q: int, genus: int, d: int, bad_places: tuple[BadPlace, ...],
                 frobenius_trace: int | None = None, field: FqField | None = None,
                 f: PolyFq | None = None, curve: PolyFq | None = None):
        self.q = q
        self.genus = genus
        self.d = d
        self.bad_places = bad_places
        self.frobenius_trace = frobenius_trace
        self.field = field
        self.f = f
        self.curve = curve
        if self.genus not in (0, 1):
            raise ValueError("genus must be 0 or 1")
        if self.d < 2:
            raise ValueError("map degree d must be >= 2")
        if self.d > MAX_MAP_DEGREE:
            raise ValueError(f"map degree d = {self.d} exceeds the supported maximum {MAX_MAP_DEGREE}")
        if self.genus == 0 and self.frobenius_trace is not None:
            raise ValueError("frobenius_trace applies to genus 1 only")
        if self.genus == 1:
            if self.frobenius_trace is None:
                raise ValueError("genus 1 requires a Frobenius trace")
            if self.frobenius_trace**2 > 4 * self.q:
                raise ValueError(
                    f"trace {self.frobenius_trace} violates the Hasse bound for q={self.q}"
                )
            if not _trace_realizable(self.q, self.frobenius_trace):
                raise ValueError(
                    f"no elliptic curve over F_{self.q} has trace {self.frobenius_trace}"
                )
        for bp in self.bad_places:
            if not (0 < bp.vf < self.d):
                raise ValueError(f"bad place needs 0 < v(f) < d, got v(f)={bp.vf}")
            if bp.f_v < 1:
                raise ValueError("residue degree must be >= 1")
        trace = self.frobenius_trace
        for k, count in sorted(Counter(bp.f_v for bp in self.bad_places).items()):
            # Hasse-Weil gives k * place_count >= X*(X - 10) with X = q^(k/2), so once
            # X >= 16k(count + 1) there are more than count places of degree k.
            if (k // 2) * (self.q.bit_length() - 1) > (16 * k * (count + 1)).bit_length():
                continue
            available = place_count(self.q, k, trace)
            if count > available:
                field = (f"F_{self.q}(t) has only {available} finite places" if trace is None else
                         f"the genus-1 field over F_{self.q} with trace {trace} has only {available} places")
                raise ValueError(f"{count} bad places of degree {k}, but {field} of degree {k}")

    def phi(self) -> PhiSpec:
        if self.f is None or self.field is None:
            raise ValueError("no concrete map attached to this spec")
        return PhiSpec(d=self.d, f=self.f, bad_places=self.bad_places)


def _trace_realizable(q: int, a: int) -> bool:
    """Whether some elliptic curve over F_q has trace a, given a^2 <= 4q.

    Waterhouse (Ann. Sci. ENS 1969, Thm 4.1), for q = p^n: a prime to p; or
    n even and a = +-2 sqrt(q); or n even, p != 1 mod 3 and a = +-sqrt(q);
    or n odd, p = 2 or 3 and a = +-p^((n+1)/2); or a = 0 with n odd, or with
    n even and p != 1 mod 4.  Over a prime field every such a qualifies.
    """
    p = _prime_divisors(q)[0]
    if a % p:
        return True
    n = 1
    while p**n < q:
        n += 1
    if n % 2:
        return a == 0 or (p in (2, 3) and abs(a) == p ** ((n + 1) // 2))
    root = p ** (n // 2)
    return abs(a) == 2 * root or (abs(a) == root and p % 3 != 1) or (a == 0 and p % 4 != 1)


def _moebius(n: int) -> int:
    primes = _prime_divisors(n)
    if any(n % (p * p) == 0 for p in primes):
        return 0
    return (-1) ** len(primes)


def place_count(q: int, k: int, trace: int | None = None) -> int:
    """Number of places of degree k that can be bad.

    With ``trace`` None (genus 0): the finite places of F_q(t), the monic
    irreducibles of degree k.  With a trace a (genus 1): all places of the
    function field of the elliptic curve with #E(F_q) = q + 1 - a.  Both by
    Moebius inversion of N_j = sum over i | j of i * (places of degree i),
    the point counts over F_(q^j): q^j on the affine line, and
    q^j + 1 - s_j on the curve, where s_j = alpha^j + beta^j for the roots of
    x^2 - a*x + q satisfies s_0 = 2, s_1 = a, s_j = a*s_(j-1) - q*s_(j-2)
    (Rosen, *Number Theory in Function Fields*, ch. 5).
    """
    if trace is None:
        points = [q**j for j in range(k + 1)]
    else:
        s = [2, trace]
        for _ in range(2, k + 1):
            s.append(trace * s[-1] - q * s[-2])
        points = [q**j + 1 - s[j] for j in range(k + 1)]
    return sum(_moebius(k // j) * points[j] for j in range(1, k + 1) if k % j == 0) // k


def from_poly(field: FqField, f: PolyFq, d: int) -> ProblemSpec:
    """Genus-0 spec from a concrete f in F_q[t]."""
    phi = validate_phi(f, d)
    return ProblemSpec(
        q=field.q, genus=0, d=d, bad_places=phi.bad_places, field=field, f=f
    )


def dedekind_zeta(genus: int, q: int, trace: int | None = None) -> QRatFunc:
    """zeta_K as a rational function of x = q^(-s).

    genus 0: 1/((1-x)(1-qx)); genus 1: (1 - trace*x + q*x^2)/((1-x)(1-qx)).
    The sign convention makes trace = q + 1 - #E(F_q); a trace of 0 gives the
    numerator 1 + q*x^2.
    """
    if genus not in (0, 1):
        raise ValueError("genus must be 0 or 1")
    den = QPoly((1, -1)) * QPoly((1, -q))
    if genus == 0:
        return QRatFunc(QPoly((1,)), den)
    if trace is None:
        raise ValueError("genus 1 requires a Frobenius trace")
    return QRatFunc(QPoly((1, -trace, q)), den)


def _zeta_ratio_w(spec: ProblemSpec) -> QRatFunc:
    """zeta_K(s-1)/zeta_K(s) in w; substitutes x = w^d and x -> q*x for s-1."""
    q, d = spec.q, spec.d
    zk = dedekind_zeta(spec.genus, q, spec.frobenius_trace)
    shifted_num = QPoly([c * q**i for i, c in enumerate(zk.num.coeffs)])
    shifted_den = QPoly([c * q**i for i, c in enumerate(zk.den.coeffs)])
    ratio = QRatFunc(shifted_num, shifted_den) / zk
    return ratio.compose_power(d)


def local_bad_factor(q_v: int, vf: int, d: int) -> QRatFunc:
    """(u^vf + (q_v - 1)u^d - q_v u^(d+vf)) / (1 - u^d), reduced, in u = q_v^(-s/d)."""
    if not (0 < vf < d):
        raise ValueError("need 0 < v(f) < d")
    num = [0] * (d + vf + 1)
    num[vf] += 1
    num[d] += q_v - 1
    num[d + vf] -= q_v
    den = [0] * (d + 1)
    den[0] = 1
    den[d] = -1
    return QRatFunc(QPoly(num), QPoly(den))


def adelic_integral(spec: ProblemSpec) -> QRatFunc:
    """The smoothed main term: q^(1-g) * zeta ratio * product of local bad factors."""
    z = _zeta_ratio_w(spec).scale(spec.q ** (1 - spec.genus))
    for bp in spec.bad_places:
        z = z * local_bad_factor(spec.q**bp.f_v, bp.vf, spec.d).compose_power(bp.f_v)
    return z


def _c_of_genus(spec: ProblemSpec) -> int:
    return 0 if spec.genus == 0 else spec.q - 1


def _inverse_zeta_w(spec: ProblemSpec) -> QRatFunc:
    return dedekind_zeta(spec.genus, spec.q, spec.frobenius_trace).pow_(-1).compose_power(spec.d)


class ZetaClosedForm:
    __slots__ = ("main_term", "correction_term", "combined")

    def __init__(self, main_term: QRatFunc, correction_term: QRatFunc, combined: QRatFunc):
        self.main_term = main_term
        self.correction_term = correction_term
        self.combined = combined


def assemble_zeta(spec: ProblemSpec) -> ZetaClosedForm:
    """Full closed form: main (adelic) term plus the c(g) correction term."""
    main = adelic_integral(spec)
    c = _c_of_genus(spec)
    if c == 0:
        correction = QRatFunc.zero()
    else:
        correction = _inverse_zeta_w(spec).scale(c)
        for bp in spec.bad_places:
            d = spec.d
            num = [0] * (d + 1)
            num[bp.vf] += 1
            num[d] -= 1
            den = [0] * (d + 1)
            den[0] = 1
            den[d] = -1
            correction = correction * QRatFunc(QPoly(num), QPoly(den)).compose_power(bp.f_v)
    return ZetaClosedForm(
        main_term=main,
        correction_term=correction,
        combined=main + correction,
    )


def _region_zeta(spec: ProblemSpec, inside, outside) -> QRatFunc:
    """Standard-height zeta of {x : v(x) >= 0 on inside, v(x) < 0 on outside}.

    inside and outside index into spec.bad_places.  The two global terms
    q^(1-g) * zeta_K(s-1)/zeta_K(s) and c(g)/zeta_K(s) each take one local
    factor per constrained place: with y = w^(d*f_v) = q_v^(-s), v(x) >= 0
    gives (1 - q_v*y)/(1 - y) and 1/(1 - y), and v(x) < 0 gives their
    complements (q_v - 1)*y/(1 - y) and -y/(1 - y).
    """
    q, d = spec.q, spec.d
    inside = set(inside)
    integral = _zeta_ratio_w(spec).scale(q ** (1 - spec.genus))
    c = _c_of_genus(spec)
    tail = _inverse_zeta_w(spec).scale(c) if c else QRatFunc.zero()
    for i in inside | set(outside):
        bp = spec.bad_places[i]
        k, qv = d * bp.f_v, q**bp.f_v
        one_minus_y = QPoly([1] + [0] * (k - 1) + [-1])
        if i in inside:
            main_num, tail_num = [1] + [0] * (k - 1) + [-qv], [1]
        else:
            main_num, tail_num = [0] * k + [qv - 1], [0] * k + [-1]
        integral = integral * QRatFunc(QPoly(main_num), one_minus_y)
        tail = tail * QRatFunc(QPoly(tail_num), one_minus_y)
    return integral + tail if c else integral


def partial_zeta_DU(spec: ProblemSpec, u_set) -> QRatFunc:
    """Standard-height zeta of D(U) = {x : v(x) >= 0 for all v in U}.

    u_set indexes into spec.bad_places; each place in U contributes its
    v(x) >= 0 local factor, and the places off U are unconstrained.
    """
    return _region_zeta(spec, u_set, ())


def partial_zeta_DT(spec: ProblemSpec, t_set) -> QRatFunc:
    """Standard-height zeta of D_T (v(x) >= 0 exactly on T, < 0 off T within S).

    Each bad place contributes one local factor: the v(x) >= 0 factor on T
    and its complement, the v(x) < 0 factor, off T.
    """
    t_set = set(t_set)
    return _region_zeta(spec, t_set, set(range(len(spec.bad_places))) - t_set)


class DecompositionResult:
    __slots__ = ("ok", "assembled", "difference")

    def __init__(self, ok: bool, assembled: QRatFunc, difference: QRatFunc):
        self.ok = ok
        self.assembled = assembled
        self.difference = difference


def decomposition_check(spec: ProblemSpec) -> DecompositionResult:
    """Verify Z = sum over T of rho_T^(-s) * W(D_T, s) exactly in Q(w).

    rho_T^(-s) = prod_(v in T) w^(f_v * v(f)) is the canonical/standard height
    ratio on the region D_T.
    """
    n = len(spec.bad_places)
    total = QRatFunc.zero()
    for r in range(n + 1):
        for t_set in combinations(range(n), r):
            shift = sum(spec.bad_places[i].f_v * spec.bad_places[i].vf for i in t_set)
            w_shift = QRatFunc.from_poly(QPoly([0] * shift + [1]))
            total = total + w_shift * partial_zeta_DT(spec, t_set)
    combined = assemble_zeta(spec).combined
    diff = combined - total
    return DecompositionResult(ok=diff.is_zero(), assembled=combined, difference=diff)
