"""Closed-form dynamical height zeta functions for phi(z) = z^d + 1/f.

Assembles, as exact rational functions in the single variable w = q^(-s/d),
the full zeta function

    Z(s) = q^(1-g) * zeta_K(s-1)/zeta_K(s) * prod_v L_v(u_v)
         + c(g)/zeta_K(s) * prod_v (u_v^(v(f)) - u_v^d)/(1 - u_v^d),

with u_v = w^(f_v), x = q^(-s) = w^d, c(0) = 0 and c(1) = q - 1, over base
fields of genus 0 or 1.  The partial height zetas over the regions cut out
by the bad places (all v(x) >= 0 on U, or the exact sign pattern given by T)
are also produced, and the disjoint-union identity tying them to Z is
checked symbolically.  Using one variable for everything eliminates
substitution mistakes: every object here multiplies and reduces in Q(w).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .gf import FqField, PolyFq
from .places import BadPlace, PhiSpec, validate_phi
from .qfuncs import QPoly, QRatFunc


@dataclass(frozen=True)
class ProblemSpec:
    """Everything the closed form needs: base field data plus the bad set.

    frobenius_trace is the integer a with #E(F_q) = q + 1 - a (genus 1 only);
    the zeta numerator is then 1 - a*x + q*x^2.  bad_places carry (f_v, vf)
    and, when built from a concrete genus-0 polynomial f, the places
    themselves.
    """

    q: int
    genus: int
    d: int
    bad_places: tuple[BadPlace, ...]
    frobenius_trace: int | None = None
    field: FqField | None = None
    f: PolyFq | None = None
    curve: PolyFq | None = None

    def __post_init__(self):
        if self.genus not in (0, 1):
            raise ValueError("genus must be 0 or 1")
        if self.d < 2:
            raise ValueError("map degree d must be >= 2")
        if self.genus == 1:
            if self.frobenius_trace is None:
                raise ValueError("genus 1 requires a Frobenius trace")
            if self.frobenius_trace**2 > 4 * self.q:
                raise ValueError(
                    f"trace {self.frobenius_trace} violates the Hasse bound for q={self.q}"
                )
        for bp in self.bad_places:
            if not (0 < bp.vf < self.d):
                raise ValueError(f"bad place needs 0 < v(f) < d, got v(f)={bp.vf}")
            if bp.f_v < 1:
                raise ValueError("residue degree must be >= 1")

    def phi(self) -> PhiSpec:
        if self.f is None or self.field is None:
            raise ValueError("no concrete map attached to this spec")
        return PhiSpec(d=self.d, f=self.f, bad_places=self.bad_places)


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


@dataclass(frozen=True)
class ZetaClosedForm:
    main_term: QRatFunc
    correction_term: QRatFunc
    combined: QRatFunc


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


def partial_zeta_DU(spec: ProblemSpec, u_set) -> QRatFunc:
    """Standard-height zeta of D(U) = {x : v(x) >= 0 for all v in U}.

    u_set indexes into spec.bad_places.  The value is the constrained adelic
    integral plus c(g)/(zeta_K(s) * prod_(v in U) (1 - q_v^(-s))).
    """
    u_set = tuple(sorted(set(u_set)))
    q, d = spec.q, spec.d
    integral = _zeta_ratio_w(spec).scale(q ** (1 - spec.genus))
    for i in u_set:
        bp = spec.bad_places[i]
        qv = q**bp.f_v
        k = d * bp.f_v
        one_minus_qv1s = QPoly([1] + [0] * (k - 1) + [-qv])
        one_minus_qvs = QPoly([1] + [0] * (k - 1) + [-1])
        integral = integral * QRatFunc(one_minus_qv1s, one_minus_qvs)
    c = _c_of_genus(spec)
    if c == 0:
        return integral
    tail = _inverse_zeta_w(spec).scale(c)
    for i in u_set:
        bp = spec.bad_places[i]
        k = d * bp.f_v
        tail = tail / QRatFunc.from_poly(QPoly([1] + [0] * (k - 1) + [-1]))
    return integral + tail


def partial_zeta_DT(spec: ProblemSpec, t_set) -> QRatFunc:
    """Standard-height zeta of D_T (v(x) >= 0 exactly on T, < 0 off T within S).

    Computed by inclusion-exclusion over partial_zeta_DU.
    """
    t_set = tuple(sorted(set(t_set)))
    rest = [i for i in range(len(spec.bad_places)) if i not in t_set]
    total = QRatFunc.zero()
    for r in range(len(rest) + 1):
        for extra in combinations(rest, r):
            term = partial_zeta_DU(spec, t_set + extra)
            total = total + (term if r % 2 == 0 else -term)
    return total


@dataclass(frozen=True)
class DecompositionResult:
    ok: bool
    assembled: QRatFunc
    partial_sum: QRatFunc
    difference: QRatFunc


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
    return DecompositionResult(
        ok=diff.is_zero(), assembled=combined, partial_sum=total, difference=diff
    )
