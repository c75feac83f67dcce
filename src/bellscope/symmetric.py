"""Permutationally invariant two-body Bell expressions and their exact
classical bounds.

An expression is

    I = alpha*S0 + beta*S1 + (gamma/2)*S00 + delta*S01 + (epsilon/2)*S11

with one-body sums ``Sk = sum_i <Mk^(i)>`` and two-body sums over ordered
pairs ``Skl = sum_{i != j} <Mk^(i) Ml^(j)>``.  On deterministic strategies
the value depends only on how many parties pick each of the four sign pairs,
so the classical bound reduces to an enumeration over occupation counts
instead of 4^n strategies.  All bound computations are exact (integer or
rational arithmetic).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "StrategyCounts",
    "SymmetrizedCorrelators",
    "PIBellExpression",
    "correlators_of_counts",
    "classical_bound_symmetric",
    "rioja",
    "murcia",
    "dicke_expression",
    "pi_to_functional",
    "expression_to_json",
    "expression_from_json",
    "rioja_parity_ok",
    "number_to_json",
    "number_from_json",
    "to_common_denominator",
]

# max n for the count enumeration.  The O(n) scan needs no memory or time
# guard (murcia(10**5) takes about 2 s); the limit stays because callers rely
# on n above it being refused, and lifting it is an API change of its own.
COUNT_GUARD = 3000


@dataclass(frozen=True)
class StrategyCounts:
    """Occupation counts of the four deterministic sign pairs.

    ``a, b, c, d`` count parties answering (+,+), (+,-), (-,+), (-,-) on
    (setting 0, setting 1); they are nonnegative and sum to n.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if min(self.a, self.b, self.c, self.d) < 0:
            raise ValueError(f"counts must be nonnegative: {self}")

    @property
    def n(self):
        return self.a + self.b + self.c + self.d


@dataclass(frozen=True)
class SymmetrizedCorrelators:
    """The five permutation-invariant moments (S0, S1, S00, S01, S11)."""

    s0: float
    s1: float
    s00: float
    s01: float
    s11: float

    def as_tuple(self):
        return (self.s0, self.s1, self.s00, self.s01, self.s11)


@dataclass
class PIBellExpression:
    """Permutationally invariant two-body expression for n parties.

    The inequality reads ``I >= -bound`` for all local deterministic
    strategies; ``bound_provenance`` records whether ``bound`` came from a
    closed form or from enumeration.
    """

    n: int
    alpha: object
    beta: object
    gamma: object
    delta: object
    epsilon: object
    bound: object = None
    bound_provenance: str = ""
    name: str = ""

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("two-body sums need at least two parties")

    def coefficients(self):
        return (self.alpha, self.beta, self.gamma, self.delta, self.epsilon)

    def value(self, corr):
        """Evaluate on symmetrized correlators (exact if inputs are exact)."""
        if _all_rational(self.coefficients()) and _all_rational(corr.as_tuple()):
            a, b, g, d, e = (Fraction(v) for v in self.coefficients())
            s0, s1, s00, s01, s11 = corr.as_tuple()
            return a * s0 + b * s1 + g * s00 / 2 + d * s01 + e * s11 / 2
        return self.value_float(corr)

    def value_float(self, corr):
        a, b, g, d, e = (float(v) for v in self.coefficients())
        s0, s1, s00, s01, s11 = corr.as_tuple()
        return a * s0 + b * s1 + g * s00 / 2.0 + d * s01 + e * s11 / 2.0


def _all_rational(values):
    return all(isinstance(v, numbers.Rational) for v in values)


def to_common_denominator(values):
    """Common-denominator integer form ``(ints, den)`` of exact coefficients.

    ``ints[k] == values[k] * den`` exactly, with ``den`` the least common
    denominator of the values as Fractions.
    """
    fracs = [Fraction(v) if not isinstance(v, Fraction) else v for v in values]
    den = 1
    for f in fracs:
        den = den * f.denominator // math.gcd(den, f.denominator)
    return [int(f * den) for f in fracs], den


def correlators_of_counts(counts):
    """Symmetrized correlators of a deterministic strategy given its counts.

    With ``Sig0 = a+b-c-d``, ``Sig1 = a-b+c-d`` and the same-site product sum
    ``D = a-b-c+d``:

        S0 = Sig0, S1 = Sig1,
        S00 = Sig0^2 - n, S11 = Sig1^2 - n, S01 = Sig0*Sig1 - D.
    """
    a, b, c, d = counts.a, counts.b, counts.c, counts.d
    n = counts.n
    sig0 = a + b - c - d
    sig1 = a - b + c - d
    same = a - b - c + d
    return SymmetrizedCorrelators(
        s0=sig0,
        s1=sig1,
        s00=sig0 * sig0 - n,
        s01=sig0 * sig1 - same,
        s11=sig1 * sig1 - n,
    )


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
    when epsilon > 0, at the floor or ceiling of a piece's vertex clipped
    to that piece.  Only these candidates are evaluated, so one expression
    costs O(n) evaluations instead of the (n+1)^2 grid of (p, q).

    Ties resolve as the full grid would: the lexicographically smallest
    (p, q) attaining the minimum, then a_lo over a_hi.  The arithmetic is
    Python integers on the common-denominator form of the coefficients,
    so the bound is exact at any coefficient size.

    Returns
    -------
    bound : Fraction
        beta_C, i.e. minus the deterministic minimum of the expression.
    witness : StrategyCounts
        Counts achieving the minimum.
    """
    n = expr.n
    if n > COUNT_GUARD:
        raise ValueError(f"n = {n} exceeds the enumeration guard {COUNT_GUARD}")
    (a, b, g, d, e), den = to_common_denominator(expr.coefficients())
    # 2*den*I = a2*Sig0 + b2*Sig1 + g*(Sig0^2-n) + d2*(Sig0*Sig1-D) + e*(Sig1^2-n)
    a2, b2, d2 = 2 * a, 2 * b, 2 * d

    def same_plus(p, q):  # best count of (+,+) parties at fixed (p, q)
        return min(p, q) if d2 > 0 else max(0, p + q - n)

    def value(p, q):
        s0, s1 = 2 * p - n, 2 * q - n
        same = 4 * same_plus(p, q) + n - 2 * p - 2 * q
        return (a2 * s0 + b2 * s1 + g * (s0 * s0 - n) + e * (s1 * s1 - n)
                + d2 * (s0 * s1 - same))

    def candidates(p):
        kink = p if d2 > 0 else n - p
        qs = {0, kink, n}
        if e > 0:
            # on a piece D = tau*Sig1 + const, so the vertex in q is
            # (2en - b2 - d2*Sig0 + d2*tau) / 4e
            sign = 1 if d2 > 0 else -1
            for lo, hi, tau in ((0, kink, sign), (kink, n, -sign)):
                num = 2 * e * n - b2 - d2 * (2 * p - n) + d2 * tau
                floor = num // (4 * e)
                qs.update(min(max(q, lo), hi) for q in (floor, floor + 1))
        return qs

    best, p, q = min((value(p, q), p, q) for p in range(n + 1) for q in candidates(p))
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
    expr = rioja(1, 1, -1, 0, n, branch="minus")
    assert expr.coefficients() == (-2, 0, 1, -1, 1)
    assert expr.bound == 2 * n
    expr.name = f"murcia(n={n})"
    return expr


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
# Bridges


def pi_to_functional(expr):
    """Expand a PI expression into a dense Bell functional (2 settings).

    Each one-body term is charged to the all-same-setting context and each
    ordered pair (i, j) of a two-body sum to the context where i and j pick
    the relevant settings and everyone else measures setting 0.  On
    nonsignalling behaviors the value is placement-independent.
    """
    import numpy as np

    from .correlations import OUTCOME_SIGNS, BellFunctional, Scenario

    n = expr.n
    sc = Scenario(n, 2, 2)
    coeffs = np.zeros(sc.table_shape)
    alpha, beta, gamma, delta, epsilon = (float(v) for v in expr.coefficients())

    def add_one_body(weight, setting, i):
        x = (setting,) * n
        shape = [1] * n
        shape[i] = 2
        coeffs[x] += weight * OUTCOME_SIGNS.reshape(shape)

    def add_two_body(weight, set_i, set_j, i, j):
        x = [0] * n
        x[i], x[j] = set_i, set_j
        si = [1] * n
        si[i] = 2
        sj = [1] * n
        sj[j] = 2
        coeffs[tuple(x)] += weight * (
            OUTCOME_SIGNS.reshape(si) * OUTCOME_SIGNS.reshape(sj)
        )

    for i in range(n):
        if alpha:
            add_one_body(alpha, 0, i)
        if beta:
            add_one_body(beta, 1, i)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if gamma:
                add_two_body(gamma / 2.0, 0, 0, i, j)
            if delta:
                add_two_body(delta, 0, 1, i, j)
            if epsilon:
                add_two_body(epsilon / 2.0, 1, 1, i, j)
    return BellFunctional(sc, coeffs, name=expr.name or "pi-expression")


# ---------------------------------------------------------------------------
# JSON wire format: {n, alpha..epsilon, bound, bound_provenance}


def number_to_json(v):
    """Numbers stay numbers; non-dyadic rationals become 'p/q' strings."""
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
