"""Finite checks for the modular-curve axiom families.

Each checker returns an AxiomReport with a pass/fail/inconclusive verdict.
Pass verdicts are reproducible from the recorded seed; fail verdicts carry
a concrete witness that re-fails deterministically.  MOD1 samples the
polynomial relation along the correspondence, MOD2 matches a polynomial
fiber against independently computed orbit images, SP ties the exact
witness round trip to the numeric special value, and SF is transitivity of
the finite coset action under S and T.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import permutations

from .congruence import MAX_LEVEL, sl2_order, subgroup_order
from .errors import IllConditioned, LevelTooLarge, NoConvergence, PrecisionExhausted
from .hecke import correspondence_fiber, double_coset_reps, modular_polynomial
from .jfunction import DEFAULT_CTX, QSeriesContext, invert_j, j
from .moebius import CMPoint, NumericPoint, act, fixed_point, special_witness

# one MOD1 trial evaluates j twice: 0.6-1.1 ms at 128 bits, 0.43-0.58 s at the
# CLI's 8192-bit cap (n = 1 to 7; CPython 3.11, 2-core x86-64 VM); 64 trials at
# n = 7 and 8192 bits took 36 s, under a minute at any accepted precision
MAX_TRIALS = 64


# max_residual is None when no trial ran
AxiomReport = namedtuple(
    "AxiomReport", "axiom params seed trials max_residual verdict witnesses",
    defaults=((),))


def _cplx(z) -> list:
    return [float(z.real), float(z.imag)]


def check_mod1(n: int, trials: int = 20, tol: float = 1e-6, seed: int = 0,
               ctx: QSeriesContext = DEFAULT_CTX, phi=None) -> AxiomReport:
    """Residual of Phi_n(j(tau), j(n*tau)) at `trials` seeded points.

    `phi` can be overridden to validate the harness against a corrupted
    polynomial; by default the computed Phi_n is used.
    """
    import random
    import mpmath

    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be at most {MAX_TRIALS}, got {trials}")
    params = {"n": n, "tol": tol}
    try:
        if phi is None:
            phi = modular_polynomial(n)
        rng = random.Random(seed)
        rows = []
        for t in range(trials):
            tau = NumericPoint(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 2.0),
                               ctx.prec_bits)
            # n*tau and Phi_n are both formed at the working precision
            with mpmath.workprec(ctx.prec_bits):
                ntau = NumericPoint(tau.re * n, tau.im * n, ctx.prec_bits)
                x, y = j(tau, ctx).value, j(ntau, ctx).value
                rows.append((t, tau, phi.residual(x, y)))
    except PrecisionExhausted as exc:
        return AxiomReport(f"MOD1({n})", params, seed, 0, None,
                           "inconclusive", ({"error": str(exc)},))
    max_res = max((r for _, _, r in rows), default=0.0)
    bad = [
        {"trial": t, "tau": _cplx(tau.value()), "residual": r}
        for t, tau, r in rows
        if r >= tol
    ]
    verdict = "pass" if not bad else "fail"
    return AxiomReport(f"MOD1({n})", params, seed, trials, max_res, verdict,
                       tuple(bad))


def _optimal_match(dist: list) -> tuple[float, tuple]:
    """Perfect matching minimizing the worst entry of the distance table,
    dist[i][k] between left i and right k, by brute force over the psi(n)!
    pairings (at most 8! = 40320, by `hecke.MAX_PSI`); ties keep the first."""
    return min((max([0.0] + [row[k] for row, k in zip(dist, perm)]), perm)
               for perm in permutations(range(len(dist))))


def check_mod2(n: int, X0, tol: float = 1e-4, seed: int | None = None,
               ctx: QSeriesContext = DEFAULT_CTX) -> AxiomReport:
    """Fiber of Phi_n over X0 vs the coset-image multiset at invert_j(X0)."""
    import mpmath
    params = {"n": n, "X0": _cplx(mpmath.mpc(X0)), "tol": tol}
    try:
        phi = modular_polynomial(n)
        tau0 = invert_j(X0, ctx)
        images = [
            j(act(rep, tau0), ctx).value for rep in double_coset_reps(n).reps
        ]
        roots = correspondence_fiber(phi, X0, images, prec_bits=ctx.prec_bits,
                                     tol=tol)
    except (IllConditioned, NoConvergence, PrecisionExhausted) as exc:
        return AxiomReport(f"MOD2({n})", params, seed, 0, None,
                           "inconclusive", ({"error": str(exc)},))
    # relative distances, root i to image k, each computed once
    dist = [[float(abs(r - b)) / (1.0 + float(abs(b))) for b in images]
            for r in roots]
    worst, perm = _optimal_match(dist)
    pairs = tuple(
        {"root": _cplx(r), "image": _cplx(images[k]), "distance": row[k]}
        for r, row, k in zip(roots, dist, perm)
    )
    verdict = "pass" if worst < tol else "fail"
    return AxiomReport(f"MOD2({n})", params, seed, len(roots), worst, verdict,
                       pairs)


def check_sp(tau: CMPoint, tol: float = 1e-8,
             ctx: QSeriesContext = DEFAULT_CTX) -> AxiomReport:
    """Witness round trip is exact and the special value is well-resolved."""
    g = special_witness(tau)
    exact = fixed_point(g) == tau and act(g, tau) == tau
    z = j(tau, ctx)
    axiom = f"SP({tau.x}+{tau.y}*sqrt({tau.D}))"
    params = {"tau": tau.to_dict(), "tol": tol}
    witness = {
        "witness_matrix": str(g),
        "exact_round_trip": exact,
        "z_x": _cplx(z.value),
        "abs_err": z.abs_err,
        "note": "z_x is a singular modulus; algebraicity recorded, not enforced",
    }
    verdict = "pass" if exact and z.abs_err < tol else "fail"
    return AxiomReport(axiom, params, None, 1, z.abs_err, verdict, (witness,))


def check_sf(N: int) -> AxiomReport:
    """Single-orbit check for the level-N coset model under S and T: the
    orbit of the identity coset is <S, T> mod N, so the action is
    transitive iff `subgroup_order` of S and T equals the order formula
    `sl2_order(N)`; a fail carries the order found."""
    if N > MAX_LEVEL:
        raise LevelTooLarge(f"N={N} exceeds the level bound {MAX_LEVEL}")
    order = subgroup_order([(0, -1, 1, 0), (1, 1, 0, 1)], N)
    ambient = sl2_order(N)
    verdict = "pass" if order == ambient else "fail"
    witnesses = () if order == ambient else ({"order": order},)
    return AxiomReport(f"SF({N})", {"N": N}, None, ambient, 0.0, verdict,
                       witnesses)
