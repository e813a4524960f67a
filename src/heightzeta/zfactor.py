"""Factorization of polynomials over Q, computed over Z.

qpoly_factor is the entry point.  The primitive part loses its factor w^k,
Yun's algorithm splits it into squarefree parts, each part loses its
cyclotomic factors by exact division, and the rest is factored by
Zassenhaus's method: factor modulo a small prime with the F_p factorization
of ``fqt``, Hensel-lift a balanced factor tree over int lists, recombine
(von zur Gathen and Gerhard, Modern Computer Algebra, ch. 14-15).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

from .fqt import _distinct_degree, _equal_degree_split
from .gf import FqField, PolyFq, _fp_divmod, _fp_rem, _is_prime, _prime_divisors
from .qfuncs import QPoly, _gcd_cofactors, _int_quotient, _primitive


def qpoly_factor(p: QPoly):
    """Exact factorization over Q: (unit, [(irreducible, multiplicity), ...]).

    Factors are primitive integer polynomials with positive leading
    coefficient, sorted by (degree, coeffs); unit * prod == p exactly.
    The factorization runs over Z: the primitive part loses its factor w^k,
    Yun's algorithm splits it into squarefree parts, each part loses its
    cyclotomic factors by exact division, and the rest is factored by
    Zassenhaus's method: factor modulo a prime, Hensel-lift, recombine
    (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 14-15).
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    unit, g = _primitive(p.coeffs)
    k = next(i for i, c in enumerate(g) if c)
    found = [((0, 1), k)] if k else []
    for part, mult in _squarefree_parts(g[k:]):
        found.extend((f, mult) for f in _factor_squarefree_int(part))
    factors = [(QPoly(f), mult) for f, mult in found]
    factors.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return unit, factors


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _squarefree_parts(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's squarefree decomposition of a primitive f: (part, multiplicity) pairs.

    With a = gcd(f, f'), b = f/a, c = f'/a, each step takes the gcd of b and
    d = c - b', which is the part of multiplicity i; all divisions are exact.
    """
    out: list[tuple[list[int], int]] = []
    if len(f) < 2:
        return out
    df = [i * c for i, c in enumerate(f)][1:]
    a, b, _ = _gcd_cofactors(f, _primitive(df)[1])
    c = _int_quotient(df, a)
    i = 1
    while len(b) > 1:
        # c and b' both have degree deg(b) - 1
        d = _trim([x - j * y for j, (x, y) in enumerate(zip(c, b[1:]), start=1)])
        if d:
            a, b, _ = _gcd_cofactors(b, _primitive(d)[1])
            c = _int_quotient(d, a)
        else:
            a, b = b, [1]
        if len(a) > 1:
            out.append((a, i))
        i += 1
    return out


def _factor_squarefree_int(h: list[int]) -> list[list[int]]:
    """Irreducible factors over Z of a primitive squarefree h with h(0) != 0."""
    found = []
    for n, phi in _totients_up_to(len(h) - 1):
        if phi < len(h):
            # Phi_n | h forces h(z) = 0 mod l at an element z of order n
            ell, z = _unity_root_mod(n)
            acc = 0
            for c in reversed(h):
                acc = (acc * z + c) % ell
            if acc == 0:
                cyclotomic = list(_cyclotomic(n))
                quotient = _int_quotient(h, cyclotomic)
                if quotient is not None:
                    found.append(cyclotomic)
                    h = quotient
    if len(h) > 1:
        found.extend(_zassenhaus(h))
    return found


def _totients_up_to(limit: int) -> list[tuple[int, int]]:
    """Every (n, phi(n)) with phi(n) <= limit, sorted by n."""
    primes = [p for p in range(2, limit + 2) if _is_prime(p)]
    out = []

    def walk(start: int, n: int, phi: int):
        out.append((n, phi))
        for j in range(start, len(primes)):
            p = primes[j]
            m, f = n * p, phi * (p - 1)
            if f > limit:
                break
            while f <= limit:
                walk(j + 1, m, f)
                m, f = m * p, f * p

    walk(0, 1, 1)
    return sorted(out)


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """The cyclotomic polynomial Phi_n, ascending integer coefficients.

    From Phi_1 = w - 1 by Phi_(mp)(w) = Phi_m(w^p) / Phi_m(w) for a prime p
    not dividing m, then Phi_n(w) = Phi_r(w^(n/r)) with r the radical of n.
    """
    phi, r = [-1, 1], 1
    for p in _prime_divisors(n):
        spread = [0] * (p * len(phi) - p + 1)
        spread[::p] = phi
        phi = _int_quotient(spread, phi)
        r *= p
    out = [0] * ((len(phi) - 1) * (n // r) + 1)
    out[:: n // r] = phi
    return tuple(out)


@lru_cache(maxsize=None)
def _unity_root_mod(n: int) -> tuple[int, int]:
    """(l, z): a prime l = 1 mod n and an element z of order exactly n in F_l."""
    ell = n + 1
    while not _is_prime(ell):
        ell += n
    primes = _prime_divisors(n)
    for g in range(1, ell):
        z = pow(g, (ell - 1) // n, ell)
        if all(pow(z, n // r, ell) != 1 for r in primes):
            return ell, z
    raise AssertionError("F_l^* is cyclic of order divisible by n")


def _zassenhaus(h: list[int]) -> list[list[int]]:
    """Irreducible factors over Z of a primitive squarefree h, positive leading.

    Of up to five primes l that keep h's degree and squarefreeness, the one
    whose distinct-degree factorization gives the fewest factors is split
    by equal-degree factorization; the factors are Hensel-lifted until any
    factor's coefficients times lc(h) fit in (-l^a/2, l^a/2) (Mignotte's
    bound) and recombined.
    """
    n, lc = len(h) - 1, h[-1]
    if n == 1:
        return [h]
    best = None
    ell, tried = 1, 0
    while tried < 5:
        ell += 1
        if not _is_prime(ell) or lc % ell == 0:
            continue
        hbar = PolyFq(FqField(ell), [c % ell for c in h]).monic()
        if not hbar.gcd(hbar.derivative()).is_one():
            continue
        tried += 1
        parts, count = [], 0
        for g, k in _distinct_degree(hbar):
            parts.append((g, k))
            count += g.degree // k
            if best is not None and count >= best[0]:
                break
        else:
            if count == 1:
                return [h]
            if best is None or count < best[0]:
                best = (count, ell, parts)
    _, ell, parts = best
    modular = [list(f.coeffs) for g, k in parts for f in _equal_degree_split(g, k)]
    norm = math.isqrt(sum(c * c for c in h)) + 1
    bound = 2 * lc * math.comb(n - 1, (n - 1) // 2) * norm
    tree, m = _factor_tree(modular, ell), ell
    while m <= bound:
        m2 = m * m
        inv = pow(lc, -1, m2)
        _hensel_lift(tree, [c * inv % m2 for c in h], m)
        m = m2
    return _recombine(h, _tree_leaves(tree), m)


def _mul_mod(a: list[int], b: list[int], m: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            out[i:i + len(b)] = [o + x * y for o, y in zip(out[i:i + len(b)], b)]
    return _trim([v % m for v in out])


def _add_mod(a: list[int], b: list[int], m: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return _trim([v % m for v in out])


def _sub_mod(a: list[int], b: list[int], m: int) -> list[int]:
    return _add_mod(a, [-v for v in b], m)


def _bezout(g: list[int], h: list[int], p: int) -> tuple[list[int], list[int]]:
    """(s, t) with s*g + t*h = 1 mod the prime p, deg s < deg h, deg t < deg g.

    g and h are coprime mod p and h is monic.
    """
    r0, r1, s0, s1 = g, h, [1], []
    while r1:
        q, r = _fp_divmod(r0, r1, p)
        r0, r1, s0, s1 = r1, r, s1, _sub_mod(s0, _mul_mod(q, s1, p), p)
    inv = pow(r0[0], -1, p)
    s = _fp_rem([c * inv % p for c in s0], h, p)
    t = _fp_divmod(_sub_mod([1], _mul_mod(s, g, p), p), h, p)[0]
    return s, t


def _factor_tree(factors: list[list[int]], p: int):
    """Balanced factor tree [g, h, s, t, left, right] over monic factors mod p.

    g and h are the products of the left and right halves, s*g + t*h = 1;
    a half with one factor has no subtree (None).
    """
    if len(factors) == 1:
        return None
    k = len(factors) // 2
    g, h = [1], [1]
    for f in factors[:k]:
        g = _mul_mod(g, f, p)
    for f in factors[k:]:
        h = _mul_mod(h, f, p)
    return [g, h, *_bezout(g, h, p), _factor_tree(factors[:k], p), _factor_tree(factors[k:], p)]


def _hensel_lift(node, f: list[int], m: int):
    """Lift a factor tree valid mod m to mod m^2 with root product f.

    One quadratic Hensel step per node (von zur Gathen and Gerhard,
    Algorithm 15.10), then each child is lifted towards its new product.
    """
    g, h, s, t = node[:4]
    m2 = m * m
    e = _sub_mod(f, _mul_mod(g, h, m2), m2)
    q, r = _fp_divmod(_mul_mod(s, e, m2), h, m2)
    g = _add_mod(g, _add_mod(_mul_mod(t, e, m2), _mul_mod(q, g, m2), m2), m2)
    h = _add_mod(h, r, m2)
    b = _sub_mod(_add_mod(_mul_mod(s, g, m2), _mul_mod(t, h, m2), m2), [1], m2)
    c, d = _fp_divmod(_mul_mod(s, b, m2), h, m2)
    s = _sub_mod(s, d, m2)
    t = _sub_mod(t, _add_mod(_mul_mod(t, b, m2), _mul_mod(c, g, m2), m2), m2)
    node[:4] = g, h, s, t
    for child, product in ((node[4], g), (node[5], h)):
        if child is not None:
            _hensel_lift(child, product, m)


def _tree_leaves(node) -> list[list[int]]:
    out = []
    for child, product in ((node[4], node[0]), (node[5], node[1])):
        out.extend([product] if child is None else _tree_leaves(child))
    return out


def _recombine(h: list[int], lifted: list[list[int]], m: int) -> list[list[int]]:
    """True factors of h from its monic factors mod m, h = lc * prod(lifted).

    Subsets are tried by increasing size.  A subset's candidate is lc(f)
    times its product, in symmetric residues, with f what is left of h;
    its constant term must divide lc(f) * f(0), and its primitive part must
    divide f exactly.
    """
    found = []
    f = h
    size = 1
    while 2 * size <= len(lifted):
        lc = f[-1]
        for subset in combinations(range(len(lifted)), size):
            ct = lc
            for i in subset:
                ct = ct * lifted[i][0] % m
            if 2 * ct > m:
                ct -= m
            if ct == 0 or lc * f[0] % ct:
                continue
            cand = [lc]
            for i in subset:
                cand = _mul_mod(cand, lifted[i], m)
            g = _primitive([v - m if 2 * v > m else v for v in cand])[1]
            quotient = _int_quotient(f, g)
            if quotient is not None:
                found.append(g)
                f = quotient
                lifted = [x for i, x in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    found.append(f)
    return found
