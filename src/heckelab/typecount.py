"""Index reports for subgroups of SL2(Z/N).

For a subgroup H of SL2(Z/N) given by a generating set, the report gives
the index [SL2(Z/N) : H] exactly, which is the number of H-orbits on the
regular coset space, and the same count at every divisor of the level,
each from the congruence-kernel chain of `congruence.subgroup_order` on
the generators mod that divisor.  When H is known only through a mod-p
image certificate, the report gives the index lower bound
ambient/|largest subgroup consistent with the evidence| and flags it as
a bound, never as an exact count.
"""

from __future__ import annotations

from collections import namedtuple

from .congruence import sl2_order, subgroup_order
from .errors import EvidenceInsufficient
from .galois import EllipticCurve, certify_goursat_pair, certify_mod_p_image

# largest order of a subgroup of SL2(F_p) whose projective image is
# contained in the named maximal class (intersections with SL2 of a
# Borel, the Cartan normalizers, and the largest exceptional group: binary
# tetrahedral (24) always, octahedral (48) if p = +-1 mod 8, icosahedral
# (120) if p = +-1 mod 10; SL2(F_5) itself is icosahedral, so not at 5)
_CONSISTENT_ORDER = {
    "ContainedInBorel": lambda p: p * (p - 1),
    "ContainedInNormalizerCartan(split)": lambda p: 2 * (p - 1),
    "ContainedInNormalizerCartan(nonsplit)": lambda p: 2 * (p + 1),
    "ExceptionalPossible": lambda p: (120 if p % 10 in (1, 9) else
                                      48 if p % 8 in (1, 7) else 24),
}


class TypeCountReport(namedtuple(
        "TypeCountReport", "level m ambient_order subgroup_order value "
        "is_lower_bound orbit_counts_by_level basis")):
    # orbit_counts_by_level: ((level, count), ...); basis: what the count
    # was derived from
    __slots__ = ()

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


def _explicit_report(gens, level):
    if level < 1:
        raise ValueError(f"level must be positive, got {level}")
    for a, b, c, d in gens:
        if (a * d - b * c - 1) % level:
            raise ValueError(f"generator [[{a},{b}],[{c},{d}]] does not have "
                             f"determinant 1 mod {level}")
    # H mod d is generated by the generators mod d, so each row is one
    # subgroup_order, which never lists H mod d; the last row (d = level)
    # is H itself
    rows = tuple((d, sl2_order(d) // subgroup_order(gens, d))
                 for d in _divisors(level))
    order, index = sl2_order(level), rows[-1][1]
    # the basis string predates subgroup_order and stays as it was, so
    # the JSON report is byte-identical to earlier releases
    return TypeCountReport(level, 1, order, order // index, index, False,
                           rows, "explicit subgroup enumeration")


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
    curves (product image evidence), or a generating set of matrices
    with determinant 1 mod level (ValueError otherwise).  A full element
    list works too, at a cost of |H| * |gens|.  Exact indices come from
    `subgroup_order` of the generators mod each divisor of level;
    evidence-based values are lower bounds and flagged as such.
    """
    if isinstance(subject, EllipticCurve):
        return _single_curve_report(subject, level, bound)
    subject = list(subject)
    if subject and all(isinstance(s, EllipticCurve) for s in subject):
        if len(subject) != 2:
            raise ValueError("curve-list mode takes exactly two curves")
        return _pair_report(subject[0], subject[1], level, bound)
    return _explicit_report(subject, level)
