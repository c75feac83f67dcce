import copy
import itertools
import json
import pickle
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellscope.correlations import local_bound_bruteforce
from bellscope.numerics import seeded_generator
from bellscope.symmetric import (
    PIBellExpression,
    StrategyCounts,
    classical_bound_symmetric,
    dicke_expression,
    expression_from_json,
    expression_to_json,
    murcia,
    rioja,
    rioja_parity_ok,
)

from helpers import (
    correlators_of_counts,
    five_tuple_of_assignment,
    pi_bound_candidate_scan,
    pi_bound_grid,
    pi_functional_loops,
    pi_min_bruteforce,
    strategy_value_loops,
)


def counts_assignment(counts):
    """One explicit per-site assignment realising a StrategyCounts."""
    return (
        [(1, 1)] * counts.a + [(1, -1)] * counts.b
        + [(-1, 1)] * counts.c + [(-1, -1)] * counts.d
    )


def all_counts(n):
    for a in range(n + 1):
        for b in range(n + 1 - a):
            for c in range(n + 1 - a - b):
                yield StrategyCounts(a, b, c, n - a - b - c)


class TestCorrelatorsOfCounts:
    def test_all_plus(self):
        got = correlators_of_counts(StrategyCounts(3, 0, 0, 0))
        assert got == (3, 3, 6, 6, 6)

    def test_two_party_mixed(self):
        got = correlators_of_counts(StrategyCounts(1, 0, 0, 1))
        assert got == (0, 0, -2, -2, -2)

    def test_exhaustive_against_assignment_oracle(self):
        for n in range(1, 9):
            for counts in all_counts(n):
                want = five_tuple_of_assignment(counts_assignment(counts))
                assert correlators_of_counts(counts) == want

    def test_random_large_counts_against_oracle(self):
        rng = seeded_generator(3)
        for trial in range(100):
            n = int(rng.integers(2, 41))
            splits = np.sort(rng.integers(0, n + 1, size=3))
            counts = StrategyCounts(
                int(splits[0]), int(splits[1] - splits[0]),
                int(splits[2] - splits[1]), int(n - splits[2]),
            )
            want = five_tuple_of_assignment(counts_assignment(counts))
            assert correlators_of_counts(counts) == want

    def test_negative_counts_rejected(self):
        # every way a record can be built runs the check, with one message
        unchecked = tuple.__new__(StrategyCounts, (-1, 1, 0, 0))
        builds = [lambda: StrategyCounts(-1, 1, 0, 0),
                  lambda: StrategyCounts(a=-1, b=1, c=0, d=0),
                  lambda: StrategyCounts._make([-1, 1, 0, 0]),
                  lambda: StrategyCounts(0, 1, 0, 0)._replace(a=-1),
                  lambda: copy.copy(unchecked),
                  lambda: pickle.loads(pickle.dumps(unchecked))]
        for build in builds:
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == (
                "counts must be nonnegative: StrategyCounts(a=-1, b=1, c=0, d=0)")


class TestRecords:
    def test_records_are_immutable(self):
        records = [StrategyCounts(1, 0, 0, 1), correlators_of_counts(StrategyCounts(1, 0, 0, 1)),
                   murcia(4)]
        for record, field in zip(records, ("a", "s0", "bound")):
            with pytest.raises(AttributeError):
                setattr(record, field, 0)
            with pytest.raises(AttributeError):
                record.note = "a record has no room for new attributes"


class TestClassicalBound:
    def test_known_bounds(self):
        assert classical_bound_symmetric(murcia(7))[0] == 14
        assert classical_bound_symmetric(dicke_expression(4))[0] == 18
        witness = classical_bound_symmetric(murcia(7))[1]
        assert repr(witness) == "StrategyCounts(a=0, b=4, c=3, d=0)"
        assert witness == StrategyCounts(0, 4, 3, 0) and witness.n == 7

    def test_witness_attains_bound(self):
        rng = seeded_generator(5)
        for trial in range(20):
            coeffs = [int(v) for v in rng.integers(-4, 5, size=5)]
            n = int(rng.integers(2, 30))
            expr = PIBellExpression(
                n=n, alpha=coeffs[0], beta=coeffs[1], gamma=coeffs[2],
                delta=coeffs[3], epsilon=coeffs[4],
            )
            bound, witness = classical_bound_symmetric(expr)
            assert expr.value(correlators_of_counts(witness)) == -bound

    def test_agrees_with_full_enumeration(self):
        rng = seeded_generator(13)
        for trial in range(20):
            coeffs = [int(v) for v in rng.integers(-4, 5, size=5)]
            for n in range(2, 9):
                expr = PIBellExpression(
                    n=n, alpha=coeffs[0], beta=coeffs[1], gamma=coeffs[2],
                    delta=coeffs[3], epsilon=coeffs[4],
                )
                bound, _ = classical_bound_symmetric(expr)
                rep = local_bound_bruteforce(pi_functional_loops(expr))
                assert Fraction(bound) == -Fraction(rep.min_value)

    def test_exact_with_rational_coefficients(self):
        expr = PIBellExpression(
            n=5, alpha=Fraction(1, 3), beta=Fraction(-1, 2),
            gamma=Fraction(2, 3), delta=1, epsilon=Fraction(1, 6),
        )
        bound, witness = classical_bound_symmetric(expr)
        direct = min(
            expr.value(correlators_of_counts(c)) for c in all_counts(5)
        )
        assert bound == -direct
        assert isinstance(bound, Fraction)

    def test_murcia_at_5000(self):
        bound, witness = classical_bound_symmetric(murcia(5000))
        assert bound == 10000
        assert murcia(5000).value(correlators_of_counts(witness)) == -bound

    def test_permutation_invariance_of_functional(self):
        rng = seeded_generator(8)
        for trial in range(10):
            n = int(rng.integers(2, 7))
            expr = PIBellExpression(
                n=n, alpha=int(rng.integers(-3, 4)), beta=int(rng.integers(-3, 4)),
                gamma=int(rng.integers(-3, 4)), delta=int(rng.integers(-3, 4)),
                epsilon=int(rng.integers(-3, 4)),
            )
            f = pi_functional_loops(expr)
            assignment = [
                (int(rng.integers(2)) * 2 - 1, int(rng.integers(2)) * 2 - 1)
                for _ in range(n)
            ]
            base = None
            for perm in itertools.islice(itertools.permutations(range(n)), 10):
                permuted = [assignment[p] for p in perm]
                responses = tuple(((1 - m0) // 2, (1 - m1) // 2) for m0, m1 in permuted)
                v = strategy_value_loops(f.coefficients, f.offset, responses)
                if base is None:
                    base = v
                assert v == base


# small integers, integers past the old int64 switch (2^62 ~ 4.6e18), rationals
MAGNITUDES = st.one_of(
    st.integers(1, 4),
    st.integers(10**19, 10**22),
    st.fractions(min_value=Fraction(1, 12), max_value=5, max_denominator=12),
)
SIGNED = st.one_of(st.just(0), MAGNITUDES, MAGNITUDES.map(lambda v: -v))


class TestBoundAgainstGridOracle:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 40), coeffs=st.tuples(SIGNED, SIGNED, SIGNED, SIGNED, SIGNED))
    @example(n=5, coeffs=(-2, 0, 1, -1, 1))
    @example(n=4, coeffs=(0, 0, 6, 2, -1))
    @example(n=5, coeffs=(3, -1, 2, 0, 0))
    @example(n=40, coeffs=(10**20, -3, Fraction(1, 3), -(10**21), 10**19 + 1))
    @example(n=3, coeffs=(Fraction(1, 3), Fraction(-1, 2), Fraction(2, 3), 1, Fraction(1, 6)))
    def test_bound_and_witness_match_grid(self, n, coeffs):
        expr = PIBellExpression(n, *coeffs)
        bound, witness = classical_bound_symmetric(expr)
        want_bound, want_witness = pi_bound_grid(coeffs, n)
        assert isinstance(bound, Fraction)
        assert bound == want_bound
        assert (witness.a, witness.b, witness.c, witness.d) == want_witness
        if n <= 5:
            assert bound == -pi_min_bruteforce([Fraction(c) for c in coeffs], n)

    def test_murcia_at_3000(self):
        bound, witness = classical_bound_symmetric(murcia(3000))
        assert bound == 6000
        assert murcia(3000).value(correlators_of_counts(witness)) == -bound

    def test_dicke_at_3000_matches_closed_form(self):
        expr = dicke_expression(3000)
        assert classical_bound_symmetric(expr)[0] == expr.bound

    def test_scaled_murcia_past_int64(self):
        k = 12345678901234
        expr = PIBellExpression(1000, *(k * c for c in murcia(1000).coefficients()))
        bound, witness = classical_bound_symmetric(expr)
        assert bound == 2000 * k
        assert expr.value(correlators_of_counts(witness)) == -bound


# delta and epsilon giving every vertex period T = epsilon / gcd(delta, epsilon),
# from 1 to primes far above 3000 (T > n: one point per progression)
PERIODIC = st.tuples(
    SIGNED, SIGNED, SIGNED, st.integers(-60, 60),
    st.one_of(st.integers(1, 60), st.sampled_from([7919, 9973, 104729, 10**9 + 7])),
)
DICKE_3000 = dicke_expression(3000).coefficients()
SCALED_MURCIA = tuple(12345678901234 * c for c in (-2, 0, 1, -1, 1))


class TestBoundAgainstCandidateScan:
    """The progression minimum against the per-p candidate scan it replaced
    (``helpers.pi_bound_candidate_scan``): same bound, same witness."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 3000),
           coeffs=st.one_of(st.tuples(SIGNED, SIGNED, SIGNED, SIGNED, SIGNED), PERIODIC))
    @example(n=3000, coeffs=(-2, 0, 1, -1, 1))
    @example(n=1000, coeffs=SCALED_MURCIA)
    @example(n=3000, coeffs=DICKE_3000)
    @example(n=3000, coeffs=(0, 1, 0, 1, 9973))
    @example(n=2999, coeffs=(Fraction(1, 3), 0, 2, Fraction(5, 7), Fraction(9973, 7)))
    @example(n=2999, coeffs=(3, -1, 2, 0, 0))
    @example(n=2500, coeffs=(1, 2, 3, 4, -5))
    @example(n=1234, coeffs=(1, -1, 2, 0, 3))
    @example(n=3000, coeffs=(10**20, -3, Fraction(1, 3), -(10**21), 10**19 + 1))
    @example(n=2, coeffs=(0, 0, 0, 0, 0))
    def test_bound_and_witness_match_scan(self, n, coeffs):
        bound, witness = classical_bound_symmetric(PIBellExpression(n, *coeffs))
        want_bound, want_witness = pi_bound_candidate_scan(coeffs, n)
        assert isinstance(bound, Fraction)
        assert bound == want_bound
        assert (witness.a, witness.b, witness.c, witness.d) == want_witness

    def test_cost_does_not_grow_with_n(self):
        # the per-p scan took about 13 s at n = 10**6; T = 1 here, and
        # dicke has no vertex progressions, so both take under a millisecond
        start = time.perf_counter()
        assert classical_bound_symmetric(murcia(10**6))[0] == 2 * 10**6
        expr = dicke_expression(10**6)
        assert classical_bound_symmetric(expr)[0] == expr.bound
        assert time.perf_counter() - start < 2.0

    def test_memory_does_not_grow_with_the_vertex_lines(self):
        # T = 9973 > n gives 4(n + 1) one-point vertex lines, which must be
        # evaluated as they are generated, not stored
        expr = PIBellExpression(3000, 0, 1, 0, 1, 9973)
        tracemalloc.start()
        try:
            bound, _ = classical_bound_symmetric(expr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bound == pi_bound_candidate_scan(expr.coefficients(), 3000)[0]
        assert peak < 500_000


class TestRiojaFamily:
    def test_murcia_is_a_member(self):
        for n in range(2, 61):
            member = rioja(1, 1, -1, 0, n, "minus")
            reference = murcia(n)
            assert member.coefficients() == reference.coefficients() == (-2, 0, 1, -1, 1)
            assert member.bound == reference.bound == Fraction(2 * n)
            assert type(member.bound) is type(reference.bound) is Fraction
            assert member.bound_provenance == reference.bound_provenance
            assert reference.name == f"murcia(n={n})"
        coeffs = dict(alpha=-2, beta=0, gamma=1, delta=-1, epsilon=1)
        unchecked = tuple.__new__(PIBellExpression, (1, *coeffs.values(), None, "", ""))
        builds = [lambda: murcia(1),
                  lambda: PIBellExpression(1, -2, 0, 1, -1, 1),
                  lambda: PIBellExpression(n=1, **coeffs),
                  lambda: PIBellExpression._make([1, -2, 0, 1, -1, 1, None, "", ""]),
                  lambda: murcia(2)._replace(n=1),
                  lambda: copy.copy(unchecked),
                  lambda: pickle.loads(pickle.dumps(unchecked))]
        for build in builds:
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == "two-body sums need at least two parties"

    def test_unit_xy_bound_is_2n(self):
        for n in (2, 7, 20):
            for branch in ("plus", "minus"):
                assert rioja(1, 1, 1, 0, n, branch=branch).bound == 2 * n

    def test_parity_rule(self):
        # odd n: mu must have parity opposite to y; even n: opposite to x
        assert rioja_parity_ok(1, 2, 1, 3)
        assert not rioja_parity_ok(1, 2, 0, 3)
        assert rioja_parity_ok(2, 1, 1, 4)
        assert not rioja_parity_ok(2, 1, 0, 4)
        with pytest.raises(ValueError, match="parity"):
            rioja(1, 2, 1, 0, 3)
        expr = rioja(1, 2, 1, 0, 3, check_parity=False)
        assert expr.n == 3

    def test_branches_differ_in_alpha_and_bound(self):
        plus = rioja(2, 1, 1, 1, 6, branch="plus")
        minus = rioja(2, 1, 1, 1, 6, branch="minus")
        assert plus.alpha == 2 * (1 + 3) and minus.alpha == 2 * (1 - 3)
        assert plus.bound == (6 * 9 + (1 + 2) ** 2 - 1) // 2
        assert minus.bound == (6 * 9 + (1 - 2) ** 2 - 1) // 2

    def test_closed_form_matches_enumeration_off_the_degenerate_point(self):
        for x, y in ((1, 1), (1, 2), (2, 3), (3, 3)):
            for sigma in (1, -1):
                for mu in range(-3, 4):
                    for n in (2, 3, 6, 11):
                        if not rioja_parity_ok(x, y, mu, n):
                            continue
                        if (x, y, mu) == (3, 3, 0):
                            continue
                        expr = rioja(x, y, sigma, mu, n)
                        enum, _ = classical_bound_symmetric(expr)
                        assert expr.bound == enum, (x, y, sigma, mu, n)

    def test_scaled_copy_point_has_constant_gap_of_four(self):
        # (3,3,0) duplicates 9x the (1,1,0) expression, so the exact bound
        # scales to 18n while the closed form stays at 18n + 4
        for sigma in (1, -1):
            for branch in ("plus", "minus"):
                for n in (2, 5, 9, 14):
                    expr = rioja(3, 3, sigma, 0, n, branch=branch)
                    enum, _ = classical_bound_symmetric(expr)
                    assert enum == 18 * n
                    assert expr.bound == 18 * n + 4

    def test_small_case_against_site_enumeration(self):
        for sigma in (1, -1):
            expr = rioja(1, 1, sigma, 2, 2)
            best = pi_min_bruteforce(expr.coefficients(), 2)
            assert classical_bound_symmetric(expr)[0] == -best

    def test_rejects_nonpositive_xy(self):
        with pytest.raises(ValueError):
            rioja(0, 1, 1, 0, 3)
        with pytest.raises(ValueError):
            rioja(1, 1, 2, 0, 3)


class TestDickeExpression:
    def test_n4_coefficients_and_bound(self):
        expr = dicke_expression(4)
        assert expr.coefficients() == (0, 0, 6, 2, -1)
        assert expr.bound == 18

    def test_n5_coefficients(self):
        expr = dicke_expression(5)
        assert expr.alpha == 10 and expr.beta == 2
        assert expr.gamma == 10 and expr.delta == Fraction(5, 2) and expr.epsilon == -1

    def test_closed_form_matches_enumeration(self):
        for n in range(2, 21):
            expr = dicke_expression(n)
            enum, _ = classical_bound_symmetric(expr)
            assert expr.bound == enum, n


class TestFunctionalBridge:
    def test_strategy_values_match_counts(self):
        rng = seeded_generator(21)
        for trial in range(20):
            n = int(rng.integers(2, 7))
            expr = PIBellExpression(
                n=n, alpha=int(rng.integers(-3, 4)), beta=int(rng.integers(-3, 4)),
                gamma=int(rng.integers(-3, 4)), delta=int(rng.integers(-3, 4)),
                epsilon=int(rng.integers(-3, 4)),
            )
            f = pi_functional_loops(expr)
            signs = [
                (int(rng.integers(2)) * 2 - 1, int(rng.integers(2)) * 2 - 1)
                for _ in range(n)
            ]
            responses = tuple(((1 - m0) // 2, (1 - m1) // 2) for m0, m1 in signs)
            a = sum(1 for s in signs if s == (1, 1))
            b = sum(1 for s in signs if s == (1, -1))
            c = sum(1 for s in signs if s == (-1, 1))
            counts = StrategyCounts(a, b, c, n - a - b - c)
            want = expr.value(correlators_of_counts(counts))
            assert strategy_value_loops(f.coefficients, f.offset, responses) == float(want)


class TestExpressionJson:
    def test_round_trip_integer(self):
        expr = murcia(9)
        doc = json.loads(json.dumps(expression_to_json(expr)))
        back = expression_from_json(doc)
        assert back.coefficients() == expr.coefficients()
        assert back.bound == expr.bound and back.n == 9
        for expr in (murcia(9), rioja(1, 2, 1, 1, 5), rioja(2, 1, -1, 1, 6, branch="minus")):
            assert expression_from_json(expression_to_json(expr)) == expr

    def test_round_trip_rational(self):
        expr = dicke_expression(5)  # delta = 5/2
        doc = json.loads(json.dumps(expression_to_json(expr)))
        back = expression_from_json(doc)
        assert back.delta == Fraction(5, 2)
        assert back.bound == expr.bound
        assert back == expr == expression_from_json(expression_to_json(expr))

    def test_bound_provenance_preserved(self):
        expr = murcia(4)
        doc = expression_to_json(expr)
        assert doc.get("bound_provenance")
        back = expression_from_json(json.loads(json.dumps(doc)))
        assert back.bound_provenance == expr.bound_provenance
