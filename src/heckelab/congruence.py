"""Congruence subgroups of SL2(Z) with decidable membership.

GroupDescriptor names a subgroup symbolically (full group, Gamma(N),
Gamma0(N), Gamma1(N), or an intersection of a base group with conjugates
g_i^-1 . g_i).  Images of descriptors are found by enumerating SL2(Z/N)
outright and lifting elements back to SL2(Z), which keeps every image and
index computation exact at the cost of an O(N^3) scan.  For subgroups
given by generators, `subgroup_order` finds the order in two levels
without listing the subgroup, and `closure` lists it where the elements
themselves are needed; neither enumerates SL2(Z/N).
"""

from __future__ import annotations

import json
import re as _re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import BadDeterminant, IncompatibleLevel, LevelTooLarge
from .moebius import ElementKind, RatMatrix, classify, parse_matrix

MAX_LEVEL = 30


# ---------------------------------------------------------------------------
# symbolic descriptors


@dataclass(frozen=True)
class GroupDescriptor:
    """kind in {"full", "principal", "gamma0", "gamma1", "cap"}.

    level applies to the congruence kinds; cap carries a base descriptor and
    a tuple of GL2(Q)+ matrices, and accepts gamma iff gamma is in the base
    and so is every conjugate g*gamma*g^-1.
    """

    kind: str
    level: int = 1
    base: "GroupDescriptor | None" = None
    tuple_mats: tuple[RatMatrix, ...] = ()

    def __post_init__(self):
        if self.kind not in ("full", "principal", "gamma0", "gamma1", "cap"):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.kind in ("principal", "gamma0", "gamma1") and self.level < 1:
            raise ValueError("level must be positive")
        if self.kind == "cap" and self.base is None:
            raise ValueError("cap needs a base group")


def full() -> GroupDescriptor:
    return GroupDescriptor("full")


def principal(N: int) -> GroupDescriptor:
    return GroupDescriptor("principal", N)


def gamma0(N: int) -> GroupDescriptor:
    return GroupDescriptor("gamma0", N)


def gamma1(N: int) -> GroupDescriptor:
    return GroupDescriptor("gamma1", N)


def cap(base: GroupDescriptor, mats) -> GroupDescriptor:
    return GroupDescriptor("cap", base=base, tuple_mats=tuple(mats))


def membership(G: GroupDescriptor, gamma: RatMatrix) -> bool:
    """Exact membership test; conjugates are computed in rational arithmetic."""
    if G.kind == "cap":
        if not membership(G.base, gamma):
            return False
        for g in G.tuple_mats:
            if not membership(G.base, g * gamma * g.inverse()):
                return False
        return True
    if not gamma.is_integral() or gamma.det() != 1:
        return False
    a, b, c, d = (int(e) for e in gamma.entries())
    N = G.level
    if G.kind == "full":
        return True
    if G.kind == "principal":
        return a % N == 1 and d % N == 1 and b % N == 0 and c % N == 0
    if G.kind == "gamma0":
        return c % N == 0
    if G.kind == "gamma1":
        return c % N == 0 and a % N == 1 and d % N == 1
    raise AssertionError(G.kind)


def _tuple_det_lcm(G: GroupDescriptor) -> int:
    out = 1
    for g in G.tuple_mats:
        d = int(g.normalized().det())
        out = out * d // gcd(out, d)
    return out


def compatibility_divisor(G: GroupDescriptor) -> int:
    """Smallest D such that D | N guarantees Gamma(N) <= G.

    For a cap, conjugating Gamma(N) by a cleared integer matrix A lands in
    Gamma(N/det(A)) over Z, so base_level * lcm(det A_i) suffices.
    """
    if G.kind == "full":
        return 1
    if G.kind != "cap":
        return G.level
    return compatibility_divisor(G.base) * _tuple_det_lcm(G)


def required_level(G: GroupDescriptor) -> int:
    """Level chosen automatically for image/index work.

    Deliberately conservative: the cap contribution is the lcm of entry
    denominators and cleared determinants of the tuple, squared.
    """
    if G.kind == "full":
        return 1
    if G.kind != "cap":
        return G.level
    r = _tuple_det_lcm(G)
    for g in G.tuple_mats:
        for e in g.entries():
            r = r * e.denominator // gcd(r, e.denominator)
    return required_level(G.base) * r * r


def format_group(G: GroupDescriptor) -> str:
    if G.kind == "full":
        return "Gamma"
    if G.kind == "principal":
        return f"Gamma({G.level})"
    if G.kind == "gamma0":
        return f"Gamma0({G.level})"
    if G.kind == "gamma1":
        return f"Gamma1({G.level})"
    mats = ",".join(str(g) for g in G.tuple_mats)
    return f"Cap({format_group(G.base)}, [{mats}])"


_GROUP_RE = _re.compile(r"^Gamma(0|1)?\((\d+)\)$")


def parse_group(s: str) -> GroupDescriptor:
    """Inverse of format_group."""
    s = s.strip()
    if s == "Gamma":
        return full()
    m = _GROUP_RE.match(s)
    if m:
        sub, level = m.group(1), int(m.group(2))
        kind = {"0": "gamma0", "1": "gamma1", None: "principal"}[sub]
        return GroupDescriptor(kind, level)
    if s.startswith("Cap(") and s.endswith(")"):
        body = s[4:-1]
        depth = 0
        for idx, ch in enumerate(body):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                base = parse_group(body[:idx])
                mats_lit = body[idx + 1 :].strip()
                mats = [
                    parse_matrix(json.dumps(m))
                    for m in json.loads(mats_lit.replace("(", "[").replace(")", "]"))
                ]
                return cap(base, mats)
    raise ValueError(f"not a group descriptor: {s!r}")


# ---------------------------------------------------------------------------
# finite quotients


class FiniteMatrixGroup:
    """All of SL2(Z/N), elements stored as (a,b,c,d) tuples of residues."""

    def __init__(self, N: int, elements):
        self.N = N
        self.elements = tuple(sorted(elements))
        self._set = frozenset(self.elements)
        self.identity = tuple(v % N for v in (1, 0, 0, 1))

    def __contains__(self, m):
        return m in self._set

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def mul(self, m1, m2):
        N = self.N
        a1, b1, c1, d1 = m1
        a2, b2, c2, d2 = m2
        return (
            (a1 * a2 + b1 * c2) % N,
            (a1 * b2 + b1 * d2) % N,
            (c1 * a2 + d1 * c2) % N,
            (c1 * b2 + d1 * d2) % N,
        )

    def inv(self, m):
        # adjugate works because det = 1
        a, b, c, d = m
        return (d % self.N, -b % self.N, -c % self.N, a % self.N)

    def reduce(self, gamma: RatMatrix):
        if not gamma.is_integral() or gamma.det() != 1:
            raise BadDeterminant(f"{gamma} is not in SL2(Z)")
        return tuple(int(e) % self.N for e in gamma.entries())


def sl2_order(N: int) -> int:
    """N^3 * prod_{p | N} (1 - 1/p^2), computed in exact integers."""
    order = N ** 3
    n, p = N, 2
    while p * p <= n:
        if n % p == 0:
            order = order // (p * p) * (p * p - 1)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        order = order // (n * n) * (n * n - 1)
    return order


def enumerate_sl2(N: int, max_level: int = MAX_LEVEL) -> FiniteMatrixGroup:
    """Scan (a,b,c) and solve a*d = 1 + b*c mod N for d."""
    if N > max_level:
        raise LevelTooLarge(f"N={N} exceeds the scan bound {max_level}")
    if N < 1:
        raise ValueError("N must be positive")
    elements = []
    for a in range(N):
        for b in range(N):
            for c in range(N):
                m = (1 + b * c) % N
                g = gcd(a, N)  # N when a = 0
                if m % g:
                    continue
                Ng = N // g
                d0 = (pow(a // g, -1, Ng) * (m // g)) % Ng if Ng > 1 else 0
                elements.extend((a, b, c, d0 + k * Ng) for k in range(g))
    return FiniteMatrixGroup(N, elements)


def lift_to_sl2z(m, N: int) -> RatMatrix:
    """Integral det-1 lift of m in SL2(Z/N); reduction round-trips exactly.

    Completes the bottom row to a coprime pair by stepping in increments of
    N, then corrects the top row by a multiple t*(c,d) so it matches mod N.
    """
    a, b, c, d = (int(v) % N for v in m)
    if (a * d - b * c) % N != 1 % N:
        raise BadDeterminant(f"det {a * d - b * c} != 1 mod {N}")
    if N == 1:
        return RatMatrix.identity()
    c1, d1 = c, d
    if c1 == 0 and d1 == 0:
        raise BadDeterminant("bottom row vanishes mod N with N > 1")
    if d1 == 0:
        d1 = N  # nonzero, and gcd(c, N) = 1 from the determinant
    while gcd(c1, d1) != 1:
        c1 += N  # terminates: every prime of d1 dividing N misses c1
    # u*d1 - v*c1 = 1 via extended gcd
    u, v = _bezout(d1, c1)
    v = -v
    # top row correction: (a,b) = (u,v) + t*(c1,d1) mod N
    alpha, beta = _bezout(c1, d1)
    t = ((a - u) * alpha + (b - v) * beta) % N
    lift = RatMatrix(u + t * c1, v + t * d1, c1, d1)
    assert tuple(int(e) % N for e in lift.entries()) == (a, b, c, d)
    return lift


def _bezout(x: int, y: int) -> tuple[int, int]:
    """(s, t) with s*x + t*y = gcd(x, y)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while y:
        q = x // y
        x, y = y, x - q * y
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return s0, t0


def closure(gens, N: int) -> set:
    """The subgroup of SL2(Z/N) generated by gens, as residue 4-tuples.

    Depth-first from the identity under right multiplication by the
    generators; in a finite group the monoid they generate is the group,
    so no inverses are needed.  Nothing enumerates SL2(Z/N), so N may
    exceed MAX_LEVEL.  The product is written out because this is the hot
    loop of every closure in the package.
    """
    gens = [tuple(v % N for v in g) for g in gens]
    one = (1 % N, 0, 0, 1 % N)
    seen, stack = {one}, [one]
    while stack:
        a, b, c, d = stack.pop()
        for e, f, g, h in gens:
            m = ((a * e + b * g) % N, (a * f + b * h) % N,
                 (c * e + d * g) % N, (c * f + d * h) % N)
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return seen


def _largest_prime_factor(n: int) -> int:
    p, q = 2, 1
    while p * p <= n:
        while n % p == 0:
            n, q = n // p, p
        p += 1
    return n if n > 1 else q


def subgroup_order(gens, N: int) -> int:
    """|H| for the subgroup H of SL2(Z/N) generated by gens (determinant
    1 mod N), found without listing H.

    With p the largest prime factor of N and m = N/p, |H| = |H mod m| *
    |H & K|, K the kernel of reduction SL2(Z/N) -> SL2(Z/m).  A
    depth-first search over H mod m keeps one lift mod N per residue; each
    product t*s landing on a known residue with lift u gives the Schreier
    generator t*s*u^-1 of H & K, and these generate H & K (Schreier's
    lemma; Seress, Permutation Group Algorithms, 4.2).
    - If p | m, (I + mX)(I + mY) = I + m(X + Y) mod N, p = 2 included, so
      K is elementary abelian and |H & K| = p^rank of the (X11, X12, X21)
      over F_p (tr X = 0 mod p fixes X22).
    - Otherwise K is SL2(Z/p) by CRT, and |H & K| is the order of the
      `closure` mod p of the Schreier generators, re-closed only when one
      falls outside it.
    """
    if N == 1:
        return 1
    p = _largest_prime_factor(N)
    m = N // p
    abelian = m % p == 0
    gens = [tuple(v % N for v in g) for g in gens]
    one = (1, 0, 0, 1)
    lift, stack = {(1 % m, 0, 0, 1 % m): one}, [one]
    # abelian K: pivot column -> kernel row over F_p, 1 at its pivot and 0
    # at the pivots of earlier rows, so one pass in insertion order reduces
    basis = {}
    # otherwise: the Schreier generators mod p kept so far, and their closure
    kgens, inside = [], {one}
    while stack:
        a, b, c, d = stack.pop()
        for e, f, g, h in gens:
            ts = ((a * e + b * g) % N, (a * f + b * h) % N,
                  (c * e + d * g) % N, (c * f + d * h) % N)
            u = lift.setdefault((ts[0] % m, ts[1] % m, ts[2] % m, ts[3] % m),
                                ts)
            if u is ts:  # a new residue, and ts its lift
                stack.append(ts)
            elif abelian:
                if len(basis) == 3:  # H & K is all of K
                    continue
                # ts * adj(u) = I + mX; reduce (X11, X12, X21)
                x = [((ts[0] * u[3] - ts[1] * u[2]) % N - 1) // m,
                     (ts[1] * u[0] - ts[0] * u[1]) % N // m,
                     (ts[2] * u[3] - ts[3] * u[2]) % N // m]
                for col, row in basis.items():
                    if x[col]:
                        x = [(v - x[col] * r) % p for v, r in zip(x, row)]
                col = next((i for i, v in enumerate(x) if v), None)
                if col is not None:
                    inv = pow(x[col], -1, p)
                    basis[col] = [v * inv % p for v in x]
            else:
                y = ((ts[0] * u[3] - ts[1] * u[2]) % p,
                     (ts[1] * u[0] - ts[0] * u[1]) % p,
                     (ts[2] * u[3] - ts[3] * u[2]) % p,
                     (ts[3] * u[0] - ts[2] * u[1]) % p)
                if y not in inside:
                    kgens.append(y)
                    inside = closure(kgens, p)
    return len(lift) * (p ** len(basis) if abelian else len(inside))


class CosetSpace:
    """Left-translation action of a matrix group on cosets g*K, with
    minimum-of-coset canonical representatives."""

    def __init__(self, fmg, stabilizer=None):
        self.fmg = fmg
        k = tuple(stabilizer) if stabilizer is not None else (fmg.identity,)
        self.rep_of = {g: min(fmg.mul(g, s) for s in k) for g in fmg.elements}
        self.points = tuple(sorted(set(self.rep_of.values())))

    def act(self, h, x):
        return self.rep_of[self.fmg.mul(h, x)]


class Subgroup:
    """Enumerated subgroup of a FiniteMatrixGroup."""

    def __init__(self, parent: FiniteMatrixGroup, elements, generators=()):
        self.parent = parent
        self.elements = frozenset(elements)
        self.generators = tuple(generators)
        if parent.identity not in self.elements:
            raise ValueError("subgroup must contain the identity")

    @classmethod
    def generated(cls, parent: FiniteMatrixGroup, generators):
        gens = [tuple(v % parent.N for v in g) for g in generators]
        return cls(parent, closure(gens, parent.N), gens)

    def __contains__(self, m):
        return m in self.elements

    def __len__(self):
        return len(self.elements)

    def index(self) -> int:
        q, r = divmod(len(self.parent), len(self.elements))
        assert r == 0
        return q

    def to_dict(self) -> dict:
        return {
            "modulus": self.parent.N,
            "order": len(self.elements),
            "index": self.index(),
            "generators": [list(g) for g in self.generators],
        }


def parent_generators(fmg: FiniteMatrixGroup):
    """S and T reduced mod N; they generate the whole quotient."""
    N = fmg.N
    return [(0, (-1) % N, 1 % N, 0), (1 % N, 1 % N, 0, 1 % N)]


def image_at_level(G: GroupDescriptor, N: int, max_level: int = MAX_LEVEL) -> Subgroup:
    """{gamma mod N : gamma in G}, via lift-and-test over all of SL2(Z/N).

    Well-defined only when Gamma(N) <= G, i.e. the compatibility divisor of
    G divides N; otherwise the answer would depend on the choice of lifts.
    """
    div = compatibility_divisor(G)
    if N % div:
        raise IncompatibleLevel(f"level {N} is not a multiple of {div}")
    fmg = enumerate_sl2(N, max_level)
    members = [m for m in fmg if membership(G, lift_to_sl2z(m, N))]
    return Subgroup(fmg, members)


def index(G: GroupDescriptor, in_group: GroupDescriptor | None = None,
          max_level: int = MAX_LEVEL) -> int:
    """[in_group : G] computed in a single sufficient finite quotient."""
    if in_group is None:
        in_group = full()
    la, lb = required_level(G), required_level(in_group)
    L = la * lb // gcd(la, lb)
    if L == 1:
        return 1
    img_g = image_at_level(G, L, max_level)
    img_in = image_at_level(in_group, L, max_level)
    if not img_g.elements <= img_in.elements:
        raise ValueError("index requires G contained in the ambient group")
    q, r = divmod(len(img_in), len(img_g))
    assert r == 0
    return q


def is_normal(H: Subgroup) -> bool:
    """Conjugation test against the parent's generators only."""
    fmg = H.parent
    for g in parent_generators(fmg):
        ginv = fmg.inv(g)
        for h in H.elements:
            if fmg.mul(g, fmg.mul(h, ginv)) not in H.elements:
                return False
    return True


def normal_core(H: Subgroup) -> Subgroup:
    """Largest normal subgroup of the parent inside H, by shrinking fixpoint."""
    fmg = H.parent
    gens = [(g, fmg.inv(g)) for g in parent_generators(fmg)]
    core = set(H.elements)
    while True:
        keep = {
            h
            for h in core
            if all(fmg.mul(g, fmg.mul(h, gi)) in core for g, gi in gens)
        }
        if keep == core:
            return Subgroup(fmg, core)
        core = keep


def torsion_advisory(G: GroupDescriptor, N: int) -> list:
    """Advisory scan only: elements of the level-N image whose chosen lift
    is elliptic (finite order in SL2(Z) forces an elliptic or +-I lift, but
    a non-elliptic lift here proves nothing about other lifts)."""
    img = image_at_level(G, N)
    hits = []
    for m in sorted(img.elements):
        lift = lift_to_sl2z(m, N)
        if classify(lift).kind is ElementKind.ELLIPTIC:
            hits.append(m)
    return hits
