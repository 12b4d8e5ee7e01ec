"""Finite congruence quotients SL2(Z/N) and their subgroups.

A subgroup is given by generators, as residue 4-tuples (a, b, c, d) of
determinant 1 mod N.  `subgroup_order` is the one finite-group kernel: it
finds the order by Schreier-Sims over the chain of congruence kernels,
one prime of N per layer, without listing the subgroup.  `closure` lists
it, as the reference the kernel is tested against.  Neither enumerates
SL2(Z/N), whose order comes from the formula in `sl2_order`.  An index
is |SL2(Z/N)| over an order from the chain: Gamma0(N) mod N is generated
by T and diag(u, u^-1) over the units u, Gamma1(N) mod N by T alone.
"""

from __future__ import annotations

from math import prod

from .moebius import factor

# the largest level `types --gens` and `axiom sf` accept (exit 2 above
# it); neither `subgroup_order` nor `closure` has a bound of its own
MAX_LEVEL = 30


def sl2_order(N: int) -> int:
    """N^3 * prod_{p | N} (1 - 1/p^2), computed in exact integers."""
    order = N ** 3
    for p in factor(N):
        order = order // (p * p) * (p * p - 1)
    return order


def closure(gens, N: int) -> set:
    """The subgroup of SL2(Z/N) generated by gens, as residue 4-tuples.

    Depth-first from the identity under right multiplication by the
    generators; in a finite group the monoid they generate is the group,
    so no inverses are needed.  The cost grows with |H|, not with N, and
    N has no bound.  The product is written out for speed.
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


class Subgroup:
    """A name for the perfbench tracer, which wraps `Subgroup.generated`
    by name; no command calls it.  It goes when the tracer drops that
    hook."""

    @classmethod
    def generated(cls, N: int, gens) -> frozenset:
        """The subgroup of SL2(Z/N) generated by gens, from `closure`."""
        return frozenset(closure(gens, N))
