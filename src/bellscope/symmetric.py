"""Permutationally invariant two-body Bell expressions and their exact
classical bounds.

An expression is

    I = alpha*S0 + beta*S1 + (gamma/2)*S00 + delta*S01 + (epsilon/2)*S11

with one-body sums ``Sk = sum_i <Mk^(i)>`` and two-body sums over ordered
pairs ``Skl = sum_{i != j} <Mk^(i) Ml^(j)>``.  On deterministic strategies
the value depends only on how many parties pick each of the four sign pairs,
so the classical bound reduces to a minimum over occupation counts instead
of 4^n strategies.  All bound computations are exact (integer or rational
arithmetic).

The three records, ``StrategyCounts``, ``SymmetrizedCorrelators`` and
``PIBellExpression``, are immutable named tuples that compare as tuples;
``_replace`` builds a changed copy and checks it as the constructor does.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections import namedtuple
from fractions import Fraction

__all__ = [
    "StrategyCounts",
    "SymmetrizedCorrelators",
    "PIBellExpression",
    "classical_bound_symmetric",
    "rioja",
    "murcia",
    "dicke_expression",
    "expression_to_json",
    "expression_from_json",
    "rioja_parity_ok",
    "number_to_json",
    "number_from_json",
    "to_common_denominator",
]


class StrategyCounts(namedtuple("StrategyCounts", "a b c d")):
    """Occupation counts of the four deterministic sign pairs.

    ``a, b, c, d`` count parties answering (+,+), (+,-), (-,+), (-,-) on
    (setting 0, setting 1); they are nonnegative and sum to n.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if min(self) < 0:
            raise ValueError(f"counts must be nonnegative: {self}")
        return self

    _make = classmethod(lambda cls, values: cls(*values))  # _replace builds through _make

    @property
    def n(self):
        return self.a + self.b + self.c + self.d


class SymmetrizedCorrelators(namedtuple("SymmetrizedCorrelators", "s0 s1 s00 s01 s11")):
    """The five permutation-invariant moments (S0, S1, S00, S01, S11)."""

    __slots__ = ()


class PIBellExpression(namedtuple("PIBellExpression", "n alpha beta gamma delta epsilon "
                                  "bound bound_provenance name", defaults=(None, "", ""))):
    """Permutationally invariant two-body expression for n parties.

    The inequality reads ``I >= -bound`` for all local deterministic
    strategies; ``bound_provenance`` records whether ``bound`` came from a
    closed form or from enumeration.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n < 2:
            raise ValueError("two-body sums need at least two parties")
        return self

    _make = classmethod(lambda cls, values: cls(*values))  # _replace builds through _make

    def coefficients(self):
        return (self.alpha, self.beta, self.gamma, self.delta, self.epsilon)

    def value(self, corr):
        """Evaluate on symmetrized correlators (exact if inputs are exact)."""
        if _all_rational(self.coefficients()) and _all_rational(corr):
            a, b, g, d, e = (Fraction(v) for v in self.coefficients())
            s0, s1, s00, s01, s11 = corr
            return a * s0 + b * s1 + g * s00 / 2 + d * s01 + e * s11 / 2
        return self.value_float(corr)

    def value_float(self, corr):
        a, b, g, d, e = (float(v) for v in self.coefficients())
        s0, s1, s00, s01, s11 = corr
        return a * s0 + b * s1 + g * s00 / 2.0 + d * s01 + e * s11 / 2.0


def _all_rational(values):
    return all(isinstance(v, numbers.Rational) for v in values)


def to_common_denominator(values):
    """Common-denominator integer form ``(ints, den)`` of exact coefficients.

    ``ints[k] == values[k] * den`` exactly, with ``den`` the least common
    denominator of the values as Fractions.
    """
    fracs = [Fraction(v) if not isinstance(v, Fraction) else v for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    return [int(f * den) for f in fracs], den


def classical_bound_symmetric(expr):
    """Exact classical bound of a permutationally invariant expression.

    A deterministic strategy enters only through its occupation counts.
    Write p and q for the number of +1 answers on settings 0 and 1 and a
    for the number of (+,+) parties.  For fixed (p, q) the value is linear
    in the same-site sum D = 4a + n - 2p - 2q, so the best a is
    a_hi = min(p, q) when the (scaled) delta is positive and
    a_lo = max(0, p + q - n) otherwise.  With that a, the value at fixed p
    is, in q, a quadratic with leading coefficient 4*epsilon made of two
    pieces that meet at one kink: q = p (delta > 0) or q = n - p.  Its
    minimum over the integers 0..n is therefore at 0, the kink or n, or,
    when epsilon > 0, at the floor or ceiling of a piece's vertex inside
    that piece.  These candidates lie on lines in (p, q) along which the
    value is one integer quadratic: q = 0, the kink and q = n for every p,
    and a vertex's floor plus 0 or 1 for p = r + j*T, with T = epsilon /
    gcd(delta, epsilon) in common-denominator integers.  Three values fix
    each line's quadratic, so one expression costs O(min(n, T))
    evaluations at any n, not the (n+1)^2 grid of (p, q), and O(1) extra
    memory, as each line is evaluated when it is generated.  The lines
    hold exactly the candidates of a scan over every p, so ties resolve as
    the full grid would: the smallest (p, q) attaining the minimum, then
    a_lo over a_hi.  Python integers on the common-denominator
    coefficients keep the bound exact at any coefficient size.

    Returns
    -------
    bound : Fraction
        beta_C, i.e. minus the deterministic minimum of the expression.
    witness : StrategyCounts
        Counts achieving the minimum.
    """
    n = expr.n
    (a, b, g, d, e), den = to_common_denominator(expr.coefficients())
    # 2*den*I = a2*Sig0 + b2*Sig1 + g*(Sig0^2-n) + d2*(Sig0*Sig1-D) + e*(Sig1^2-n)
    a2, b2, d2 = 2 * a, 2 * b, 2 * d
    kp, k0 = (1, 0) if d2 > 0 else (-1, n)  # kink = k0 + kp*p

    def same_plus(p, q):  # best count of (+,+) parties at fixed (p, q)
        return min(p, q) if d2 > 0 else max(0, p + q - n)

    def value(p, q):
        s0, s1 = 2 * p - n, 2 * q - n
        same = 4 * same_plus(p, q) + n - 2 * p - 2 * q
        return (a2 * s0 + b2 * s1 + g * (s0 * s0 - n) + e * (s1 * s1 - n)
                + d2 * (s0 * s1 - same))

    def line_min(p0, dp, q0, dq, bounds):
        # smallest (value, p, q) at p = p0 + j*dp <= n, q = q0 + j*dq, j >= 0,
        # with every c0 + cp*p + cq*q >= 0 in bounds; None if there is none
        lo, hi = 0, (n - p0) // dp
        for c0, cp, cq in bounds:
            f0, f1 = c0 + cp * p0 + cq * q0, cp * dp + cq * dq
            if f1 > 0 and -(f0 // f1) > lo:
                lo = -(f0 // f1)
            elif f1 < 0 and f0 // -f1 < hi:
                hi = f0 // -f1
            elif f1 == 0 and f0 < 0:
                return None
        if lo > hi:
            return None
        if lo == hi:  # one point, as on every vertex line when T > n
            return value(p0 + lo * dp, q0 + lo * dq), p0 + lo * dp, q0 + lo * dq
        js = {lo, hi}
        if hi - lo > 1:
            v0, v1, v2 = (value(p0 + j * dp, q0 + j * dq) for j in range(lo, lo + 3))
            curv = v2 - 2 * v1 + v0
            if curv > 0:  # convex: the integer minimum flanks lo + 1/2 - (v1 - v0)/curv
                t = lo + (curv - 2 * (v1 - v0)) // (2 * curv)
                js.update(min(max(j, lo), hi) for j in (t, t + 1))
        return min((value(p0 + j * dp, q0 + j * dq), p0 + j * dp, q0 + j * dq) for j in js)

    lines = [(0, 1, q0, dq, ()) for q0, dq in ((0, 0), (k0, kp), (n, 0))]
    if e > 0:
        period, step = e // math.gcd(d, e), -d // math.gcd(d, e)
        below, above = ((0, 0, 1), (k0, kp, -1)), ((-k0, -kp, 1), (n, 0, -1))
        # on a piece D = tau*Sig1 + const, so the vertex in q is
        # (2en - b2 - d2*Sig0 + d2*tau) / 4e; add k in {0, 1} to its floor
        lines = itertools.chain(lines, (
            (r, period, (2 * e * (n + 2 * k) - b2 - d2 * (2 * r - n) + d2 * tau) // (4 * e),
             step, bounds)
            for r in range(min(period, n + 1))
            for bounds, tau in ((below, kp), (above, -kp)) for k in (0, 1)))
    best, p, q = min(filter(None, itertools.starmap(line_min, lines)))
    pa = same_plus(p, q)
    return Fraction(-best, 2 * den), StrategyCounts(pa, p - pa, q - pa, n - p - q + pa)


# ---------------------------------------------------------------------------
# Named families


def rioja_parity_ok(x, y, mu, n):
    """Admissibility of mu: opposite parity to y for odd n, to x for even n."""
    ref = y if n % 2 else x
    return (mu - ref) % 2 == 1


def rioja(x, y, sigma, mu, n, branch="plus", check_parity=True):
    """Two-parameter integer family with a closed-form classical bound.

    Coefficients (sign ``s = +1`` for ``branch="plus"``, else ``-1``):

        alpha = x * (sigma*mu + s*(x+y)),  beta = mu*y,
        gamma = x^2,  delta = sigma*x*y,  epsilon = y^2,

    and the matching bound ``(n*(x+y)^2 + (sigma*mu + s*x)^2 - 1) / 2``.

    Parameters
    ----------
    x, y : int
        Positive integers.
    sigma : {+1, -1}
    mu : int
        Must have parity opposite to y (odd n) or to x (even n); pass
        ``check_parity=False`` to bypass the guard and inspect the
        (generally invalid) closed form anyway.
    branch : {"plus", "minus"}
        Which of the two linked signs to use in alpha and in the bound.
    """
    x, y, mu, n = int(x), int(y), int(mu), int(n)
    if x < 1 or y < 1:
        raise ValueError(f"x and y must be positive integers, got x={x}, y={y}")
    if sigma not in (1, -1):
        raise ValueError(f"sigma must be +1 or -1, got {sigma}")
    if branch not in ("plus", "minus"):
        raise ValueError(f"branch must be 'plus' or 'minus', got {branch!r}")
    if n < 2:
        raise ValueError("need at least two parties")
    if check_parity and not rioja_parity_ok(x, y, mu, n):
        ref = "y" if n % 2 else "x"
        raise ValueError(
            f"mu = {mu} has the same parity as {ref}; not admissible for n = {n}"
        )
    s = 1 if branch == "plus" else -1
    alpha = x * (sigma * mu + s * (x + y))
    bound = Fraction(n * (x + y) ** 2 + (sigma * mu + s * x) ** 2 - 1, 2)
    return PIBellExpression(
        n=n,
        alpha=alpha,
        beta=mu * y,
        gamma=x * x,
        delta=sigma * x * y,
        epsilon=y * y,
        bound=bound,
        bound_provenance="closed-form",
        name=f"rioja(x={x},y={y},sigma={sigma:+d},mu={mu},{branch})",
    )


def murcia(n):
    """The (-2, 0, 1, -1, 1) expression with classical bound 2n.

    Equals :func:`rioja` at x = y = 1, sigma = -1, mu = 0 on the minus
    branch; every Dicke-like symmetric ground state violates it for a
    suitable measurement angle.
    """
    n = int(n)
    return PIBellExpression(n, -2, 0, 1, -1, 1, bound=Fraction(2 * n),
                            bound_provenance="closed-form", name=f"murcia(n={n})")


def dicke_expression(n):
    """Expression tailored to the half-filled Dicke state of n parties.

    alpha = n*(n-1)*(ceil(n/2) - n/2), beta = alpha/n,
    gamma = n*(n-1)/2, delta = n/2, epsilon = -1,
    bound = n*(n-1)*ceil((n+2)/2)/2.
    """
    if n < 2:
        raise ValueError("need at least two parties")
    half_defect = Fraction(math.ceil(n / 2)) - Fraction(n, 2)  # 0 or 1/2
    alpha = n * (n - 1) * half_defect
    return PIBellExpression(
        n=n,
        alpha=alpha,
        beta=(n - 1) * half_defect,
        gamma=Fraction(n * (n - 1), 2),
        delta=Fraction(n, 2),
        epsilon=-1,
        bound=Fraction(n * (n - 1) * math.ceil((n + 2) / 2), 2),
        bound_provenance="closed-form",
        name=f"dicke(n={n})",
    )


# ---------------------------------------------------------------------------
# JSON wire format: {n, alpha..epsilon, bound, bound_provenance}


def number_to_json(v):
    """Numbers stay numbers, except that every ``Fraction`` that is not an
    integer becomes a 'p/q' string (``Fraction(1, 2)`` gives ``"1/2"``)."""
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return int(v)
        return f"{v.numerator}/{v.denominator}"
    return v


def number_from_json(v):
    """Inverse of :func:`number_to_json`: 'p/q' strings load as Fractions."""
    if isinstance(v, str):
        return Fraction(v)
    return v


def expression_to_json(expr):
    return {
        "n": int(expr.n),
        "alpha": number_to_json(expr.alpha),
        "beta": number_to_json(expr.beta),
        "gamma": number_to_json(expr.gamma),
        "delta": number_to_json(expr.delta),
        "epsilon": number_to_json(expr.epsilon),
        "bound": number_to_json(expr.bound) if expr.bound is not None else None,
        "bound_provenance": expr.bound_provenance,
        "name": expr.name,
    }


def expression_from_json(data):
    bound = data.get("bound")
    return PIBellExpression(
        n=int(data["n"]),
        alpha=number_from_json(data["alpha"]),
        beta=number_from_json(data["beta"]),
        gamma=number_from_json(data["gamma"]),
        delta=number_from_json(data["delta"]),
        epsilon=number_from_json(data["epsilon"]),
        bound=number_from_json(bound) if bound is not None else None,
        bound_provenance=data.get("bound_provenance", ""),
        name=data.get("name", ""),
    )
