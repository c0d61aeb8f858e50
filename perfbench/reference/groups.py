"""Permutation group certification from a list of generators.

The pipeline produces monodromy permutations one loop at a time; this
module decides whether the generated group is provably the full
symmetric group, provably proper, or undecided.  The full-symmetric
certificate is the classical one: transitivity, an element with a clean
prime cycle of length p with d/2 < p < d-2 (such a group is primitive
and, by Jordan's theorem, contains the alternating group), plus an odd
generator.  For tiny d exact closure settles everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import Lcg64

WORD_BUDGET = 10_000
MAX_WORD_LEN = 20
CLOSURE_MAX_DEGREE = 12
CLOSURE_CAP = 10_000_000


class DimensionMismatchError(ValueError):
    """Permutations of different degrees were combined."""


def as_permutation(p, d: int | None = None) -> np.ndarray:
    """Validate p as 0-based images and return it as an int array."""
    arr = np.asarray(p, dtype=int)
    if arr.ndim != 1:
        raise ValueError("a permutation is a flat list of images")
    if d is not None and len(arr) != d:
        raise DimensionMismatchError(f"degree {len(arr)} != {d}")
    if sorted(arr.tolist()) != list(range(len(arr))):
        raise ValueError(f"{arr.tolist()} is not a permutation")
    return arr


def identity(d: int) -> np.ndarray:
    return np.arange(d)


def compose(p, q) -> np.ndarray:
    """The permutation applying q first, then p: compose(p, q)[i] = p[q[i]]."""
    p = np.asarray(p, dtype=int)
    q = np.asarray(q, dtype=int)
    if len(p) != len(q):
        raise DimensionMismatchError(f"degrees {len(p)} and {len(q)} differ")
    return p[q]


def inverse(p) -> np.ndarray:
    p = np.asarray(p, dtype=int)
    inv = np.empty_like(p)
    inv[p] = np.arange(len(p))
    return inv


def cycle_type(p) -> tuple[int, ...]:
    """Cycle lengths in decreasing order, fixed points included."""
    p = np.asarray(p, dtype=int)
    seen = np.zeros(len(p), dtype=bool)
    lengths = []
    for i in range(len(p)):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            ln += 1
        lengths.append(ln)
    return tuple(sorted(lengths, reverse=True))


def is_odd(p) -> bool:
    ct = cycle_type(p)
    return (len(p) - len(ct)) % 2 == 1


def orbits(perms, d: int) -> list[list[int]]:
    """Orbits of the generated group on {0, ..., d-1}."""
    parent = list(range(d))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for p in perms:
        for i in range(d):
            a, b = find(i), find(int(p[i]))
            if a != b:
                parent[a] = b
    groups: dict[int, list[int]] = {}
    for i in range(d):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda o: (o[0]))


def is_transitive(perms, d: int) -> tuple[bool, list[list[int]]]:
    orbs = orbits(perms, d)
    return len(orbs) == 1, orbs


@dataclass
class GroupVerdict:
    """Outcome of the certification with the evidence that produced it."""

    status: str  # FullSymmetric | ProperSubgroupEvidence | Unknown
    d: int
    reason: str
    orbit_sizes: list[int] = field(default_factory=list)
    generator_parities: list[str] = field(default_factory=list)
    witness: dict | None = None  # {"word", "power", "cycle_length", "cycle_type"}
    order: int | None = None  # exact order when closure ran to completion

    @property
    def full_symmetric(self) -> bool:
        return self.status == "FullSymmetric"

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "d": self.d,
            "reason": self.reason,
            "orbit_sizes": self.orbit_sizes,
            "generator_parities": self.generator_parities,
            "witness": self.witness,
            "order": self.order,
        }


def _jordan_primes(d: int) -> list[int]:
    """Primes p with d/2 < p < d-2, the safe range for the cycle test."""
    out = []
    for p in range(max(2, d // 2 + 1), d - 2):
        if 2 * p <= d:
            continue
        if all(p % f for f in range(2, int(math.isqrt(p)) + 1)):
            out.append(p)
    return out


def _power(p: np.ndarray, e: int) -> np.ndarray:
    result = identity(len(p))
    base = p
    while e:
        if e & 1:
            result = compose(result, base)
        base = compose(base, base)
        e >>= 1
    return result


def _prime_cycle_witness(perm: np.ndarray, primes: list[int]):
    """A power of perm that is a single clean p-cycle, if one exists."""
    ct = cycle_type(perm)
    order = math.lcm(*ct)
    for p in primes:
        if order % p:
            continue
        h = _power(perm, order // p)
        hct = cycle_type(h)
        if hct[0] == p and (len(hct) == 1 or hct[1] == 1):
            return order // p, p, hct
    return None


def _search_witness(gens: list[np.ndarray], d: int, gen_rng: Lcg64):
    """Look for a clean prime cycle among generators and random words."""
    primes = _jordan_primes(d)
    if not primes:
        return None
    budget = WORD_BUDGET
    for i, g in enumerate(gens):
        found = _prime_cycle_witness(g, primes)
        budget -= 1
        if found:
            power, p, hct = found
            return {"word": [i], "power": power, "cycle_length": p,
                    "cycle_type": list(hct)}
    while budget > 0:
        length = 2 + gen_rng.below(MAX_WORD_LEN - 1)
        word = [gen_rng.below(len(gens)) for _ in range(length)]
        perm = gens[word[0]]
        for idx in word[1:]:
            perm = compose(gens[idx], perm)
        budget -= 1
        found = _prime_cycle_witness(perm, primes)
        if found:
            power, p, hct = found
            return {"word": word, "power": power, "cycle_length": p,
                    "cycle_type": list(hct)}
    return None


def _closure_order(gens: list[np.ndarray], d: int, cap: int = CLOSURE_CAP) -> int | None:
    """Exact order of the generated group by breadth-first closure.

    Returns None when the enumeration would exceed the cap.
    """
    gens_t = [tuple(g.tolist()) for g in gens]
    start = tuple(range(d))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens_t:
                h = tuple(g[p[i]] for i in range(d))
                if h not in seen:
                    seen.add(h)
                    if len(seen) > cap:
                        return None
                    nxt.append(h)
        frontier = nxt
    return len(seen)


def is_full_symmetric(perms, d: int, gen_rng: Lcg64 | None = None) -> GroupVerdict:
    """Certify the group generated by perms inside the symmetric group S_d.

    FullSymmetric and ProperSubgroupEvidence are only reported on proof:
    the Jordan-style certificate, exact closure, intransitivity, or
    all-even generators.  Everything else is Unknown.
    """
    if d < 0:
        raise ValueError("degree must be non-negative")
    gens = [as_permutation(p, d) for p in perms]
    gen_rng = gen_rng or Lcg64(0x5EED)
    if d <= 1:
        return GroupVerdict("FullSymmetric", d, "trivial symmetric group", [d] * d,
                            ["even" for _ in gens], order=1)

    parities = ["odd" if is_odd(g) else "even" for g in gens]
    transitive, orbs = is_transitive(gens, d)
    sizes = sorted((len(o) for o in orbs), reverse=True)
    if not transitive:
        return GroupVerdict(
            "ProperSubgroupEvidence", d,
            f"intransitive: {len(orbs)} orbits", sizes, parities,
        )
    if gens and all(par == "even" for par in parities):
        return GroupVerdict(
            "ProperSubgroupEvidence", d,
            "all generators even: contained in the alternating group",
            sizes, parities,
        )

    if d == 2:
        # transitive on two points with an odd generator: that generator
        # is the transposition
        return GroupVerdict("FullSymmetric", d, "contains the transposition",
                            sizes, parities, order=2)

    witness = _search_witness(gens, d, gen_rng)
    if witness is not None:
        return GroupVerdict(
            "FullSymmetric", d,
            f"transitive, clean {witness['cycle_length']}-cycle, odd generator",
            sizes, parities, witness=witness,
        )

    if d <= CLOSURE_MAX_DEGREE:
        order = _closure_order(gens, d)
        if order is not None:
            if order == math.factorial(d):
                return GroupVerdict("FullSymmetric", d, f"closure order {order} = {d}!",
                                    sizes, parities, order=order)
            return GroupVerdict(
                "ProperSubgroupEvidence", d,
                f"closure order {order} < {d}! = {math.factorial(d)}",
                sizes, parities, order=order,
            )
    return GroupVerdict("Unknown", d, "no certificate within the search budget",
                        sizes, parities)
