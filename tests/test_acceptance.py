"""Acceptance criteria.

Each test prints exactly one line: [PASS]/[FAIL], the criterion, the checked
range, and the elapsed time against its bound.  All comparisons are exact;
there are no tolerances anywhere.
"""

import itertools
import random
import time
from fractions import Fraction

from simplexring.chains import (
    TilePiece,
    UP,
    closed_triangle_chain,
    closed_triangle_plan,
    realize,
    tiling_search,
    triangle_chain,
    triangle_window,
)
from simplexring.eulerian import embed_nd, eulerian, eulerian_row, worpitzky
from simplexring.forms import closed_sum, combination, evaluate, evaluate_orth
from simplexring.render import plan_svg
from simplexring.ring import (
    GeomElement3,
    embed2,
    embed3,
    from_orth,
    series_partial_sum,
    to_orth,
)
from simplexring.triples import Triple, epsilon_pair, triple_mul, triple_to_ring
from simplexring.witnesses import (
    _is_prime,
    composite_witness,
    factors_from_witness,
    witness_from_factors,
)


def _report(number: int, label: str, ok: bool, elapsed: float, bound: float):
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {number}: {label} ({elapsed:.2f}s, bound {bound:.0f}s)")
    assert ok, f"criterion {number} failed: {label}"
    assert elapsed < bound, f"criterion {number} exceeded {bound}s ({elapsed:.2f}s)"


def test_criterion_1_embeddings_are_multiplicative():
    start = time.perf_counter()
    ok = all(embed2(a) * embed2(b) == embed2(a * b)
             for a in range(-30, 31) for b in range(-30, 31))
    ok = ok and all(embed3(a) * embed3(b) == embed3(a * b)
                    for a in range(-20, 21) for b in range(-20, 21))
    _report(1, "products of side embeddings, dims 2 and 3, |n| <= 30/20",
            ok, time.perf_counter() - start, 1)


def test_criterion_2_closed_addition_laws():
    start = time.perf_counter()
    ok = True
    for vals in itertools.product(range(-6, 7), repeat=3):
        ok = ok and evaluate(closed_sum(vals, 2)) == embed2(sum(vals))
        ok = ok and evaluate(closed_sum(vals, 2, extended=True)).coeffs == (
            sum(vals) ** 2, sum(vals), 1)
    for vals in itertools.product(range(-3, 4), repeat=4):
        ok = ok and evaluate(closed_sum(vals, 3)) == embed3(sum(vals))
    rng = random.Random(7)
    for m in (4, 5):
        for _ in range(200):
            vals = tuple(rng.randint(-6, 6) for _ in range(m + 1))
            ok = ok and evaluate_orth(closed_sum(vals, m)) == embed_nd(sum(vals), m)
    _report(2, "closed additions: exhaustive dims 2-3, seeded samples dims 4-5",
            ok, time.perf_counter() - start, 10)


def test_criterion_3_witness_factor_round_trip():
    start = time.perf_counter()
    ok = True
    for z in range(2, 301):
        w = composite_witness(z)
        if (w is None) != _is_prime(z):
            ok = False
            break
        if w is not None:
            w.validate()
            pair = factors_from_witness(w)
            if pair.p * pair.q != z or not (2 <= pair.p and 2 <= pair.q):
                ok = False
                break
    for x, y, m, n in itertools.product(range(1, 6), repeat=4):
        w = witness_from_factors(x, y, m, n)
        w.validate()
        pair = factors_from_witness(w)
        if pair.p * pair.q != (x + y) * (m + n):
            ok = False
            break
    _report(3, "witnesses exist exactly for composite z <= 300 and factor back",
            ok, time.perf_counter() - start, 30)


def test_criterion_4_power_identity():
    start = time.perf_counter()
    ok = all(worpitzky(n, m) == n ** m
             for n in range(-12, 13) for m in range(1, 9))
    _report(4, "binomial and falling-factorial power sums, |n| <= 12, m <= 8",
            ok, time.perf_counter() - start, 1)


def test_criterion_5_eulerian_triangle():
    start = time.perf_counter()
    import math
    ok = True
    for m in range(1, 13):
        row = eulerian_row(m)
        ok = ok and row == row[::-1]
        ok = ok and sum(row) == math.factorial(m)
        ok = ok and all(
            eulerian(m, k, method="explicit") == row[k] for k in range(m))
    _report(5, "eulerian rows m <= 12: recurrence = explicit, symmetric, sum m!",
            ok, time.perf_counter() - start, 1)


def test_criterion_6_mirror_identity():
    start = time.perf_counter()

    def tri(n):
        return Fraction(n * (n + 1), 2)

    ok = True
    for t in range(-50, 51):
        left = evaluate(combination(2, False, [(3, t), (1, -3 * t)]))
        right = evaluate(combination(2, False, [(3, -t), (1, 3 * t)]))
        ok = ok and left == right
        # independent recount from the triangular number formula
        ok = ok and left.x == 3 * tri(t) + tri(-3 * t)
        ok = ok and right.x == 3 * tri(-t) + tri(3 * t)
        ok = ok and left.y == 3 * tri(t - 1) + tri(-3 * t - 1)
    _report(6, "mirror layouts 3<t> + <-3t> agree for |t| <= 50",
            ok, time.perf_counter() - start, 1)


def test_criterion_7_plans_and_deterministic_render():
    start = time.perf_counter()
    ok = True
    for n in range(1, 7):
        plan = closed_triangle_plan(n)
        chain = realize(plan)
        ok = ok and chain == closed_triangle_chain(n)
        ok = ok and set(m for _, m in chain.sorted_items()) == {1}
        ups = sum(1 for p in plan.pieces if p.kind == "closed_triangle")
        downs = sum(1 for p in plan.pieces if p.kind == "open_triangle")
        ok = ok and ups == n * (n + 1) // 2 and downs == n * (n - 1) // 2
    plan = closed_triangle_plan(3)
    points = sum(p.multiplicity for p in plan.pieces if p.kind == "vertex")
    ok = ok and points == 8
    ok = ok and plan_svg(plan) == plan_svg(closed_triangle_plan(3))
    _report(7, "closed-triangle plans realize exactly, n <= 6, bytes stable",
            ok, time.perf_counter() - start, 1)


def test_criterion_8_value_equality_without_tiling():
    start = time.perf_counter()
    values_agree = 2 * embed2(3) - 2 * embed2(1) == embed2(4)
    pieces = (TilePiece(3, UP), TilePiece(3, UP),
              TilePiece(1, UP, -1), TilePiece(1, UP, -1))
    plan = tiling_search(triangle_chain(4), pieces, triangle_window(4))
    ok = values_agree and plan is None
    _report(8, "2<3> - 2<1> = <4> in value yet admits no placement layout",
            ok, time.perf_counter() - start, 10)


def test_criterion_9_series_partial_sums():
    start = time.perf_counter()
    ok = True
    for terms in range(1, 31):
        element = series_partial_sum(terms)
        a2, a1 = element.coeffs
        ok = ok and a2 == 1 - Fraction(3, 4) ** terms
        ok = ok and a1 == 1 - Fraction(3, 2) ** terms
    # the area coordinate converges to 1, the side coordinate runs away
    ok = ok and abs(series_partial_sum(40).coeffs[1]) > 10 ** 6
    _report(9, "shrinking-triangle sums: A2 = 1-(3/4)^N exactly, N <= 30",
            ok, time.perf_counter() - start, 1)


def test_criterion_10_orth_basis_diagonalizes():
    start = time.perf_counter()
    rng = random.Random(11)
    ok = True
    for _ in range(10_000):
        a = GeomElement3(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        b = GeomElement3(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        ok = ok and to_orth(a * b) == to_orth(a) * to_orth(b)
        ok = ok and from_orth(to_orth(a)) == a
    _report(10, "10^4 seeded pairs: to_orth turns mul3 into componentwise mul",
            ok, time.perf_counter() - start, 5)


def test_criterion_11_triple_algebra():
    start = time.perf_counter()
    ok = True
    for n1, k1, n2, k2 in itertools.product(range(0, 7), repeat=4):
        s, t = Triple(n1, k1, 0), Triple(n2, k2, 0)
        ok = ok and triple_to_ring(triple_mul(s, t)) == triple_to_ring(s) * triple_to_ring(t)
    for n, k, l in itertools.product(range(0, 5), repeat=3):
        for shift in (-3, 2):
            ok = ok and Triple(n, k, l) == Triple(n + shift, k + shift, l + shift)
            ok = ok and triple_to_ring(Triple(n, k, l)) == triple_to_ring(
                Triple(n + shift, k + shift, l + shift))
    eps, eps_star = epsilon_pair()
    ok = ok and eps * eps == eps_star
    _report(11, "triple products map to ring products; classes are shifts; eps^2 = eps*",
            ok, time.perf_counter() - start, 5)
