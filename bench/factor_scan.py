"""factor-scan: composite witnesses and the factor pairs read back from them.

An op is composite_witness(z), then factors_from_witness for a composite.
Each pass draws z in 1000..4000 from three classes in equal shares: primes
(a full O(z^2) scan, 23-310 ms each, which sets the tail), semiprimes with
both factors above 30, and 7-smooth numbers.  Each class is split into
strata by size and one z is drawn per stratum, so seeds differ in their
inputs but not in their cost profile.
"""

from __future__ import annotations

import random

from harness import expect, is_prime, pinned, witness_error
from simplexring import composite_witness, factors_from_witness

TAIL_PERCENTILE = 95.0
WARMUP = "simplexring.factors_from_witness(simplexring.composite_witness(35))"
LO, HI = 1000, 4000
PER_CLASS = 24


def _smooth(z: int) -> bool:
    for p in (2, 3, 5, 7):
        while z % p == 0:
            z //= p
    return z == 1


def pools() -> dict:
    """The three input classes, each sorted ascending."""
    primes = [z for z in range(LO, HI + 1) if is_prime(z)]
    small = [p for p in range(31, HI // 31 + 1) if is_prime(p)]
    semiprimes = sorted({p * q for p in small for q in small if p <= q and LO <= p * q <= HI})
    smooth = [z for z in range(LO, HI + 1) if _smooth(z)]
    return {"prime": primes, "semiprime": semiprimes, "smooth": smooth}


def generate(seed: int) -> list:
    rng = random.Random(f"factor-scan:{seed}")
    cases = []
    for kind, pool in pools().items():
        for i in range(PER_CLASS):
            stratum = pool[i * len(pool) // PER_CLASS:(i + 1) * len(pool) // PER_CLASS]
            cases.append((kind, rng.choice(stratum)))
    rng.shuffle(cases)
    return cases


def prepare(case):
    return case


def run(prepared, tr):
    kind, z = prepared
    span = "witnesses.prime" if kind == "prime" else "witnesses.composite"
    witness = tr.call(span, composite_witness, z)
    if witness is None:
        return None, None
    return witness, tr.call("witnesses.factor_back", factors_from_witness, witness)


def check(case, prepared, out):
    kind, z = case
    witness, pair = out
    prime = is_prime(z)
    expect(prime == (kind == "prime"), f"{z} is in the wrong input class")
    if witness is None:
        expect(prime, f"no witness for composite {z}")
        return
    expect(not prime, f"witness {witness} for prime {z}")
    expect(witness.z == z, f"witness for {witness.z}, asked for {z}")
    problem = witness_error(z, *witness.as_tuple())
    expect(problem is None, f"witness {witness} {problem}")
    expect(pair.p * pair.q == z and 1 < pair.p < z and 1 < pair.q < z,
           f"factor pair {pair.p}*{pair.q} for {z}")
    expect(list(witness.as_tuple()) == pinned()["witnesses"][str(z)],
           f"witness {witness} is not the pinned minimal one for {z}")
