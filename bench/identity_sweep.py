"""identity-sweep: the paper's exact identities, each case checked two ways.

An op is one identity case.  The library computes it by two routes (the
geometric product tables and the orthogonal power route) plus the side
embedding; the check compares the routes with each other and with integer
formulas computed here.  Exhaustive closed-sum grids in dims 2-3 make up
most ops; seeded closed sums in dims 4-8 (0.5-13 ms each) form the tail.
"""

from __future__ import annotations

import itertools
import operator
import random
from math import factorial

from harness import eulerian_numbers, expect, shape
from simplexring import (
    Triple,
    closed_sum,
    combination,
    embed2,
    embed3,
    embed_nd,
    eulerian_row,
    evaluate,
    evaluate_orth,
    star_product,
    to_orth,
    triple_mul,
    triple_to_ring,
    worpitzky,
)

TAIL_PERCENTILE = 99.0
WARMUP = "simplexring.evaluate(simplexring.closed_sum((1, 2, 3), 2)) == simplexring.embed2(6)"
ND_DIMS = range(4, 9)


def generate(seed: int) -> list:
    rng = random.Random(f"identity-sweep:{seed}")
    lo2 = rng.randint(-8, 4)
    lo3 = rng.randint(-6, 3)
    cases = [("closed2", v) for v in itertools.product(range(lo2, lo2 + 5), repeat=3)]
    cases += [("closed3", v) for v in itertools.product(range(lo3, lo3 + 3), repeat=4)]
    for m in ND_DIMS:
        for _ in range(4):
            cases.append(("closed_nd", m, tuple(rng.randint(-12, 12) for _ in range(m + 1))))
        for _ in range(2):
            cases.append(("nd_mul", m, rng.randint(-30, 30), rng.randint(-30, 30)))
    for _ in range(16):
        cases.append(("star", rng.randint(3, 12), rng.randint(-12, 12)))
        cases.append(("embed_mul", rng.randint(-30, 30), rng.randint(-30, 30)))
        cases.append(("worpitzky", rng.randint(-12, 12), rng.randint(1, 8)))
        cases.append(("triple", *(rng.randint(0, 9) for _ in range(4))))
    cases += [("mirror", rng.randint(-50, 50)) for _ in range(10)]
    return cases


def prepare(case):
    return case


# --- integer formulas the library results are checked against -------------

def _powers(s, m):
    return tuple(s ** i for i in range(m, 0, -1))


def _term_power_sums(form, m):
    """Orthogonal coordinates of a formal sum, summed in plain integers."""
    return tuple(
        sum(coeff * lit.sign * lit.scale ** i for coeff, lit in form.terms)
        for i in range(m, 0, -1)
    )


def _geom(elem):
    return tuple(getattr(elem, axis) for axis in ("x", "y", "z") if hasattr(elem, axis))


# --- ops -------------------------------------------------------------------

def _closed(tr, values, dim):
    form = tr.call("forms.closed_sum", closed_sum, values, dim)
    geom = tr.call(f"forms.evaluate_d{dim}", evaluate, form)
    orth = tr.call(f"forms.evaluate_orth_d{dim}", evaluate_orth, form)
    side = tr.call("ring.embed", embed2 if dim == 2 else embed3, sum(values))
    cross = tr.call("ring.to_orth", to_orth, geom)
    return form, geom, orth, side, cross


def _closed_nd(tr, m, values):
    form = tr.call("forms.closed_sum", closed_sum, values, m)
    orth = tr.call(f"forms.evaluate_orth_d{m}", evaluate_orth, form)
    power = tr.call("eulerian.embed_nd", embed_nd, sum(values), m)
    return form, orth, power


def _star(tr, n, m):
    form = tr.call("forms.star_product", star_product, n, m)
    geom = tr.call("forms.evaluate_d2", evaluate, form)
    orth = tr.call("forms.evaluate_orth_d2", evaluate_orth, form)
    side = tr.call("ring.embed", embed2, n * m)
    return geom, orth, side


def _mirror(tr, t):
    out = []
    for pairs in ([(3, t), (1, -3 * t)], [(3, -t), (1, 3 * t)]):
        form = tr.call("forms.combination", combination, 2, False, pairs)
        out.append(tr.call("forms.evaluate_d2", evaluate, form))
        out.append(tr.call("forms.evaluate_orth_d2", evaluate_orth, form))
    return out


def _embed_mul(tr, a, b):
    out = []
    for embed, mul in ((embed2, "ring.geom2_mul"), (embed3, "ring.geom3_mul")):
        ea, eb, eab = (tr.call("ring.embed", embed, v) for v in (a, b, a * b))
        out += [tr.call(mul, operator.mul, ea, eb), eab]
        oa, ob = (tr.call("ring.to_orth", to_orth, e) for e in (ea, eb))
        out.append(tr.call("ring.orth_mul", operator.mul, oa, ob))
    return out


def _nd_mul(tr, m, a, b):
    ea, eb = (tr.call("eulerian.embed_nd", embed_nd, v, m) for v in (a, b))
    return tr.call("ring.orth_mul", operator.mul, ea, eb)


def _worpitzky(tr, n, m):
    return tr.call("eulerian.row", eulerian_row, m), tr.call("eulerian.worpitzky", worpitzky, n, m)


def _triple(tr, n1, k1, n2, k2):
    s, t = Triple(n1, k1, 0), Triple(n2, k2, 0)
    prod = tr.call("triples.triple_mul", triple_mul, s, t)
    rings = [tr.call("triples.triple_to_ring", triple_to_ring, x) for x in (prod, s, t)]
    return prod, rings[0], tr.call("ring.geom2_mul", operator.mul, rings[1], rings[2])


_OPS = {
    "closed2": lambda tr, case: _closed(tr, case[1], 2),
    "closed3": lambda tr, case: _closed(tr, case[1], 3),
    "closed_nd": lambda tr, case: _closed_nd(tr, case[1], case[2]),
    "star": lambda tr, case: _star(tr, *case[1:]),
    "mirror": lambda tr, case: _mirror(tr, case[1]),
    "embed_mul": lambda tr, case: _embed_mul(tr, *case[1:]),
    "nd_mul": lambda tr, case: _nd_mul(tr, *case[1:]),
    "worpitzky": lambda tr, case: _worpitzky(tr, *case[1:]),
    "triple": lambda tr, case: _triple(tr, *case[1:]),
}


def run(prepared, tr):
    return _OPS[prepared[0]](tr, prepared)


# --- checks ----------------------------------------------------------------

def check(case, prepared, out):
    kind = case[0]
    if kind in ("closed2", "closed3"):
        dim = 2 if kind == "closed2" else 3
        form, geom, orth, side, cross = out
        s = sum(case[1])
        expect(geom == side, f"evaluate {geom} != embedding {side}")
        expect(_geom(side) == shape(s, dim), f"embedding of {s} is {side}")
        expect(cross == orth, f"to_orth(evaluate) {cross} != evaluate_orth {orth}")
        expect(orth.coeffs == _powers(s, dim), f"evaluate_orth {orth} != powers of {s}")
        expect(_term_power_sums(form, dim) == _powers(s, dim), "closed_sum terms do not sum to the powers")
    elif kind == "closed_nd":
        m, values = case[1], case[2]
        form, orth, power = out
        s = sum(values)
        expect(orth == power, f"evaluate_orth {orth} != embed_nd {power}")
        expect(power.coeffs == _powers(s, m), f"embed_nd({s}, {m}) is {power}")
        expect(_term_power_sums(form, m) == _powers(s, m), "closed_sum terms do not sum to the powers")
    elif kind == "star":
        n, m = case[1], case[2]
        geom, orth, side = out
        expect(geom == side, f"star {geom} != embedding {side}")
        expect(_geom(side) == shape(n * m, 2), f"embedding of {n * m} is {side}")
        expect(orth.coeffs == _powers(n * m, 2), f"star through orth is {orth}")
    elif kind == "mirror":
        t = case[1]
        geom_l, orth_l, geom_r, orth_r = out
        x = 3 * shape(t, 2)[0] + shape(-3 * t, 2)[0]
        y = 3 * shape(t, 2)[1] + shape(-3 * t, 2)[1]
        expect(geom_l == geom_r and _geom(geom_l) == (x, y), f"mirror layouts differ at t={t}")
        expect(orth_l == orth_r and orth_l.coeffs == (12 * t * t, 0), f"mirror orth differs at t={t}")
    elif kind == "embed_mul":
        a, b = case[1], case[2]
        p2, e2, o2, p3, e3, o3 = out
        ab = a * b
        expect(p2 == e2 and _geom(e2) == shape(ab, 2), f"embed2 product fails for {a}*{b}")
        expect(p3 == e3 and _geom(e3) == shape(ab, 3), f"embed3 product fails for {a}*{b}")
        expect(o2.coeffs == _powers(ab, 2), f"orth product in dim 2 fails for {a}*{b}")
        expect(o3.coeffs == _powers(ab, 3), f"orth product in dim 3 fails for {a}*{b}")
    elif kind == "nd_mul":
        m, a, b = case[1:]
        expect(out.coeffs == _powers(a * b, m), f"embed_nd product fails for {a}*{b} in dim {m}")
    elif kind == "worpitzky":
        n, m = case[1], case[2]
        row, value = out
        expect(tuple(row) == eulerian_numbers(m), f"eulerian_row({m}) is {row}")
        expect(sum(row) == factorial(m), f"eulerian_row({m}) does not sum to {m}!")
        expect(value == n ** m, f"worpitzky({n}, {m}) is {value}")
    elif kind == "triple":
        n1, k1, n2, k2 = case[1:]
        prod, ring_prod, ring_mul = out
        big_n, big_k = n1 * n2, n1 * k2 + n2 * k1 - 2 * k1 * k2
        expect((prod.n - prod.l, prod.k - prod.l) == (big_n, big_k), f"triple product is {prod}")
        want = tuple(p - q for p, q in zip(shape(big_n - big_k, 2), shape(big_k, 2)))
        expect(ring_prod == ring_mul and _geom(ring_prod) == want, "triple product is not the ring product")
    else:
        raise ValueError(f"unknown case kind {kind!r}")
