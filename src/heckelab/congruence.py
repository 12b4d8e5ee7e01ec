"""Congruence subgroups of SL2(Z) with decidable membership.

GroupDescriptor names a subgroup symbolically (full group, Gamma(N),
Gamma0(N), Gamma1(N), or an intersection of a base group with conjugates
g_i^-1 . g_i).  Images of descriptors are found by enumerating SL2(Z/N)
outright and lifting elements back to SL2(Z), which keeps every image and
index computation exact at the cost of an O(N^3) scan.  For subgroups
given by generators, `subgroup_order` finds the order by Schreier-Sims
over the chain of congruence kernels, one prime of N per layer, without
listing the subgroup; `closure` lists it where the elements themselves
are needed.  Neither enumerates SL2(Z/N).
"""

from __future__ import annotations

import json
import re as _re
from dataclasses import dataclass
from math import gcd, lcm, prod

from .errors import BadDeterminant, IncompatibleLevel, LevelTooLarge
from .moebius import ElementKind, RatMatrix, classify, factor, parse_matrix

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
    return lcm(*(int(g.normalized().det()) for g in G.tuple_mats))


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
    r = lcm(_tuple_det_lcm(G),
            *(e.denominator for g in G.tuple_mats for e in g.entries()))
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
    for p in factor(N):
        order = order // (p * p) * (p * p - 1)
    return order


def enumerate_sl2(N: int) -> FiniteMatrixGroup:
    """Scan (a,b,c) and solve a*d = 1 + b*c mod N for d."""
    if N > MAX_LEVEL:
        raise LevelTooLarge(f"N={N} exceeds the scan bound {MAX_LEVEL}")
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
    exceed MAX_LEVEL.  The product is written out for speed.
    """
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
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


def subgroup_order(gens, N: int) -> int:
    """|H| for the subgroup H of SL2(Z/N) generated by gens (determinant
    1 mod N), by deterministic Schreier-Sims (Seress, Permutation Group
    Algorithms, ch. 4) without listing H.

    The chain SL2(Z/N) > K_{m_1} > ... > K_N = 1, K_m the kernel of
    reduction mod m, adds one prime of N per layer, smallest first.  Layer
    i keeps a transversal of H & K_{m_{i-1}} keyed by the residue mod m_i:
    at most |SL2(F_p)| entries, or |F_p^3| when p is already in the chain.
    A Schreier generator t*s*u^-1 of layer i is sifted down the layers
    below; where the sift stops at layer j it joins the generators of
    layers i+1..j.  |H| is the product of the transversal sizes.
    """
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    mods, sizes, m = [], [], 1
    for p, e in factor(N).items():
        for k in range(e):
            sizes.append(p ** 3 if k else p * (p * p - 1))
            m *= p
            mods.append(m)
    one = (1, 0, 0, 1)  # every modulus of the chain is at least 2
    trans = [{one: one} for _ in mods]
    layer_gens = [[] for _ in mods]
    filled = len(mods)  # layers filled, filled + 1, ... are complete

    def sift(g, i, u):
        # g * u^-1 lies in K_{m_{i-1}}: divide by the entry of each layer
        start = i
        while i < filled:
            if u is not one:  # u^-1 is the adjugate of u
                (a, b, c, d), (e, f, g_, h) = g, u
                g = ((a * h - b * g_) % N, (b * e - a * f) % N,
                     (c * h - d * g_) % N, (d * e - c * f) % N)
            m, (a, b, c, d) = mods[i], g
            key = (a % m, b % m, c % m, d % m)
            u = trans[i].get(key)
            if u is None:
                for layer in range(i, start - 1, -1):
                    grow(layer, g)
                u = trans[i][key]
            i += 1

    def grow(layer, new):
        # the old entries times new, then each entry found times all gens
        nonlocal filled
        gs, T, m = layer_gens[layer], trans[layer], mods[layer]
        gs.append(new)
        todo = list(T.values())
        old, size = len(todo), sizes[layer]
        for k, (a, b, c, d) in enumerate(todo):
            for e, f, g_, h in (gs if k >= old else (new,)):
                x = ((a * e + b * g_) % N, (a * f + b * h) % N,
                     (c * e + d * g_) % N, (c * f + d * h) % N)
                key = x if m == N else (x[0] % m, x[1] % m, x[2] % m,
                                        x[3] % m)
                u = T.get(key)
                if u is None:
                    T[key] = x
                    todo.append(x)
                    if len(T) < size:
                        continue
                elif layer + 1 < filled:
                    sift(x, layer + 1, u)
                else:
                    continue
                while filled and len(trans[filled - 1]) == sizes[filled - 1]:
                    filled -= 1
                if filled <= layer:
                    return

    for g in gens:
        sift(tuple(v % N for v in g), 0, one)
    grow = None  # unlink sift <-> grow so the transversals are freed now
    return prod(len(T) for T in trans)


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


def image_at_level(G: GroupDescriptor, N: int) -> Subgroup:
    """{gamma mod N : gamma in G}, via lift-and-test over all of SL2(Z/N).

    Well-defined only when Gamma(N) <= G, i.e. the compatibility divisor of
    G divides N; otherwise the answer would depend on the choice of lifts.
    """
    div = compatibility_divisor(G)
    if N % div:
        raise IncompatibleLevel(f"level {N} is not a multiple of {div}")
    fmg = enumerate_sl2(N)
    members = [m for m in fmg if membership(G, lift_to_sl2z(m, N))]
    return Subgroup(fmg, members)


def index(G: GroupDescriptor, in_group: GroupDescriptor | None = None) -> int:
    """[in_group : G] computed in a single sufficient finite quotient."""
    if in_group is None:
        in_group = full()
    L = lcm(required_level(G), required_level(in_group))
    if L == 1:
        return 1
    img_g = image_at_level(G, L)
    img_in = image_at_level(in_group, L)
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
