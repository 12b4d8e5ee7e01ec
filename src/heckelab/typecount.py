"""Orbit counting on finite coset models and index reports.

For an enumerated subgroup H of SL2(Z/N) the number of H-orbits on the
regular coset space equals the index [SL2(Z/N) : H] exactly, and the
report carries the orbit-count sequence across divisor levels.  When H
is known only through a mod-p image certificate, the report gives the
index lower bound ambient/|largest subgroup consistent with the
evidence| and flags it as a bound, never as an exact count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .congruence import CosetSpace, enumerate_sl2, sl2_order
from .errors import EvidenceInsufficient
from .galois import EllipticCurve, certify_goursat_pair, certify_mod_p_image

# largest order of a subgroup of SL2(F_p) whose projective image is
# contained in the named maximal class (intersections with SL2 of a
# Borel, the Cartan normalizers, and the largest exceptional group)
_CONSISTENT_ORDER = {
    "ContainedInBorel": lambda p: p * (p - 1),
    "ContainedInNormalizerCartan(split)": lambda p: 2 * (p - 1),
    "ContainedInNormalizerCartan(nonsplit)": lambda p: 2 * (p + 1),
    "ExceptionalPossible": lambda p: {5: 24, 7: 48, 11: 120, 13: 24}[p],
}


def count_orbits(h_elements, space: CosetSpace) -> int:
    """Number of orbits of H on the coset space under left translation.

    h_elements may be the full subgroup or just a generating set; the
    flood fill reaches the whole orbit either way.
    """
    hs = tuple(h_elements)
    seen = set()
    orbits = 0
    for x in space.points:
        if x in seen:
            continue
        orbits += 1
        seen.add(x)
        stack = [x]
        while stack:
            y = stack.pop()
            for h in hs:
                z = space.act(h, y)
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
    return orbits


@dataclass(frozen=True)
class TypeCountReport:
    level: int
    m: int
    ambient_order: int
    subgroup_order: int | None
    value: int
    is_lower_bound: bool
    orbit_counts_by_level: tuple  # ((level, count), ...)
    basis: str  # what the count was derived from

    def to_dict(self):
        rows = self.orbit_counts_by_level
        # growth is only comparable along nested levels d | d'
        strict = len(rows) > 1 and all(
            ca < cb
            for da, ca in rows for db, cb in rows
            if da != db and db % da == 0)
        out = {
            "level": self.level,
            "m": self.m,
            "ambient_order": self.ambient_order,
            "subgroup_order": self.subgroup_order,
            "orbit_counts_by_level": [list(row) for row in rows],
            "strict_growth": strict,
            "basis": self.basis,
        }
        out["lower_bound" if self.is_lower_bound else "index"] = self.value
        return out


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _explicit_report(elements, level):
    h = set(elements)
    order = sl2_order(level)
    if not h or order % len(h) != 0:
        raise ValueError("explicit H must be a subgroup: order must divide "
                         f"{order}")
    rows = []
    for d in _divisors(level):
        red = {tuple(v % d for v in g) for g in h}
        rows.append((d, sl2_order(d) // len(red)))
    index = sl2_order(level) // len(h)
    return TypeCountReport(level, 1, order, len(h), index, False,
                           tuple(rows), "explicit subgroup enumeration")


def _single_curve_report(curve, p, bound):
    cert = certify_mod_p_image(curve, p, bound)
    amb = sl2_order(p)
    if cert.verdict == "Surjective":
        return TypeCountReport(p, 1, amb, amb, 1, False, ((p, 1),),
                               "surjectivity certificate")
    if cert.verdict in _CONSISTENT_ORDER:
        biggest = _CONSISTENT_ORDER[cert.verdict](p)
        return TypeCountReport(p, 1, amb, None, amb // biggest, True,
                               ((p, amb // biggest),),
                               f"evidence: {cert.verdict}")
    raise EvidenceInsufficient(
        f"mod-{p} image certificate is inconclusive at bound {bound}")


def _pair_report(curve1, curve2, p, bound):
    cert = certify_goursat_pair(curve1, curve2, p, bound)
    amb = sl2_order(p) ** 2
    if cert.verdict == "FullProduct":
        return TypeCountReport(p, 2, amb, amb, 1, False, ((p, 1),),
                               "full product certificate")
    if cert.verdict == "GraphPossible":
        # trace agreement cannot exclude the full product, so only the
        # vacuous bound is sound
        return TypeCountReport(p, 2, amb, None, 1, True, ((p, 1),),
                               "evidence: GraphPossible")
    raise EvidenceInsufficient(
        f"pair certificate inconclusive at p = {p}: {cert.factor_verdicts}")


def type_count_report(subject, level: int, bound: int = 1000) -> TypeCountReport:
    """Index report for a subgroup of the level-`level` coset model.

    subject is an EllipticCurve (mod-level image evidence), a pair of
    curves (product image evidence), or an explicit set of matrices mod
    level.  Exact indices come from enumeration; evidence-based values
    are lower bounds and flagged as such.
    """
    if isinstance(subject, EllipticCurve):
        return _single_curve_report(subject, level, bound)
    subject = list(subject)
    if subject and all(isinstance(s, EllipticCurve) for s in subject):
        if len(subject) != 2:
            raise ValueError("curve-list mode takes exactly two curves")
        return _pair_report(subject[0], subject[1], level, bound)
    return _explicit_report(subject, level)


def regular_space(level: int) -> CosetSpace:
    """The regular coset space of SL2(Z/level) (trivial stabilizer)."""
    return CosetSpace(enumerate_sl2(level))
