"""Batch command line frontend.

Every invocation runs one subcommand and prints a single JSON document
on standard output; diagnostics go to standard error.  The document
embeds the run configuration (seed, precision, tolerance, output path,
subcommand parameters) so a report can be reproduced from itself.  Exit
codes: 0 pass/success, 1 fail with witness, 2 usage error,
3 inconclusive.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .axioms import check_mod1, check_mod2, check_sf, check_sp
from .congruence import Subgroup, enumerate_sl2
from .errors import (
    BadDeterminant,
    BadReduction,
    EvidenceInsufficient,
    IllConditioned,
    IncompatibleLevel,
    LevelTooLarge,
    NoConvergence,
    NotElliptic,
    NotSquarefree,
    OrderAmbiguous,
    PrecisionExhausted,
)
from .galois import (
    certify_goursat_pair,
    certify_mod_p_image,
    frobenius_sample,
    lifting_check,
    parse_curve,
    standard_lifts,
)
from .hecke import cached_modular_polynomial, double_coset_reps, psi
from .jfunction import QSeriesContext, j
from .moebius import (
    CMPoint,
    ElementKind,
    NumericPoint,
    classify,
    fixed_point,
    parse_matrix,
    special_witness,
)
from .typecount import type_count_report

OK, FAIL, USAGE, INCONCLUSIVE = 0, 1, 2, 3

_USAGE_ERRORS = (ValueError, NotSquarefree, LevelTooLarge, BadDeterminant,
                 BadReduction, NotElliptic, IncompatibleLevel,
                 json.JSONDecodeError)
_INCONCLUSIVE_ERRORS = (PrecisionExhausted, NoConvergence, IllConditioned,
                        EvidenceInsufficient, OrderAmbiguous)


def _parse_complex(text: str):
    try:
        return complex(text.replace("i", "j").replace(" ", ""))
    except ValueError:
        raise ValueError(f"cannot parse complex number from {text!r}")


def _int_rows(mat):
    a, b, c, d = mat.entries()
    return [[int(a), int(b)], [int(c), int(d)]]


def _verdict_exit(verdict: str) -> int:
    return {"pass": OK, "fail": FAIL}.get(verdict, INCONCLUSIVE)


def _thread_count(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _common_flags(sub):
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for randomized trials (default 0)")
    sub.add_argument("--precision-bits", type=int, default=128,
                     help="working precision for series evaluation")
    sub.add_argument("--tolerance", type=float, default=None,
                     help="override the subcommand's default tolerance")
    sub.add_argument("--threads", type=_thread_count, default=1,
                     help="accepted for compatibility; nothing reads it")
    sub.add_argument("--output", default=None,
                     help="also write the JSON document to this path")
    return sub


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="heckelab",
        description="finite checks for modular curves: special points, "
                    "coset decompositions, modular polynomials, and mod-p "
                    "image certificates")
    cmds = top.add_subparsers(dest="command", required=True)

    special = cmds.add_parser("special", help="special points and witnesses")
    modes = special.add_subparsers(dest="mode", required=True)
    pt = _common_flags(modes.add_parser("point"))
    pt.add_argument("--D", type=int, required=True)
    pt.add_argument("--x", type=Fraction, required=True)
    pt.add_argument("--y", type=Fraction, required=True)
    mat = _common_flags(modes.add_parser("matrix"))
    mat.add_argument("--m", required=True, help='matrix as "[[a,b],[c,d]]"')

    hc = _common_flags(cmds.add_parser("hecke-cosets"))
    hc.add_argument("n", type=int)

    mp = _common_flags(cmds.add_parser("modpoly"))
    mp.add_argument("n", type=int)

    jc = _common_flags(cmds.add_parser("j"))
    jc.add_argument("tau", help='upper half-plane point as "re+im*i"')

    ax = cmds.add_parser("axiom", help="finite axiom checks")
    fams = ax.add_subparsers(dest="family", required=True)
    m1 = _common_flags(fams.add_parser("mod1"))
    m1.add_argument("--n", type=int, required=True)
    m1.add_argument("--trials", type=int, default=20)
    m2 = _common_flags(fams.add_parser("mod2"))
    m2.add_argument("--n", type=int, required=True)
    m2.add_argument("--X0", required=True)
    sp = _common_flags(fams.add_parser("sp"))
    sp.add_argument("--D", type=int, required=True)
    sp.add_argument("--x", type=Fraction, required=True)
    sp.add_argument("--y", type=Fraction, required=True)
    sf = _common_flags(fams.add_parser("sf"))
    sf.add_argument("--N", type=int, required=True)

    fr = _common_flags(cmds.add_parser("frobenius"))
    fr.add_argument("curve", help='curve as "[a1,a2,a3,a4,a6]"')
    fr.add_argument("--upto", type=int, required=True)

    im = _common_flags(cmds.add_parser("image"))
    im.add_argument("curve")
    im.add_argument("--p", type=int, required=True)
    im.add_argument("--upto", type=int, default=1000)

    go = _common_flags(cmds.add_parser("goursat"))
    go.add_argument("curve1")
    go.add_argument("curve2")
    go.add_argument("--p", type=int, required=True)
    go.add_argument("--upto", type=int, default=1000)

    li = _common_flags(cmds.add_parser("lifting"))
    li.add_argument("--p", type=int, required=True)
    li.add_argument("--gens", default=None,
                    help="JSON list of matrices mod p^2; default lifts of "
                         "the standard generators")

    ty = _common_flags(cmds.add_parser("types"))
    ty.add_argument("--curve", action="append", default=[],
                    help="repeat for a pair")
    ty.add_argument("--gens", default=None,
                    help="JSON list of matrices generating an explicit "
                         "subgroup at the level")
    ty.add_argument("--level", type=int, required=True)
    ty.add_argument("--upto", type=int, default=1000)
    return top


def _ctx(args) -> QSeriesContext:
    return QSeriesContext(terms=64, prec_bits=args.precision_bits)


def _tol(args, default):
    return default if args.tolerance is None else args.tolerance


def _run_special(args):
    if args.mode == "point":
        tau = CMPoint(args.D, args.x, args.y)
        g = special_witness(tau)
        B, C = tau.minimal_polynomial()
        report = {
            "tau": tau.to_dict(),
            "witness": _int_rows(g),
            "witness_text": str(g),
            "minimal_polynomial": {"B": str(B), "C": str(C)},
            "witness_class": classify(g).kind.value,
            "round_trip_exact": fixed_point(g) == tau,
        }
        params = {"D": args.D, "x": str(args.x), "y": str(args.y)}
        return params, report, OK if report["round_trip_exact"] else FAIL
    g = parse_matrix(args.m)
    cls = classify(g)
    report = {"matrix": str(g), "classification": cls.kind.value,
              "disc": str(cls.disc), "fixed_point": None}
    if cls.kind is ElementKind.ELLIPTIC:
        report["fixed_point"] = fixed_point(g).to_dict()
    return {"m": args.m}, report, OK


def _run_hecke_cosets(args):
    dec = double_coset_reps(args.n)
    report = {"n": args.n, "count": len(dec.reps), "psi": psi(args.n),
              "reps": [str(m) for m in dec.reps]}
    return {"n": args.n}, report, OK


def _run_modpoly(args):
    phi = cached_modular_polynomial(args.n)
    report = {"n": args.n, "degX": phi.degX, "degY": phi.degY,
              "symmetric": phi.is_symmetric(),
              "coefficients": [[i, k, c] for (i, k), c in
                               sorted(phi.coeffs.items()) if c != 0]}
    return {"n": args.n}, report, OK


def _run_j(args):
    z = _parse_complex(args.tau)
    res = j(NumericPoint(z.real, z.imag, args.precision_bits), _ctx(args))
    report = {"tau": [z.real, z.imag], **res.to_dict()}
    return {"tau": args.tau}, report, OK


def _run_axiom(args):
    ctx = _ctx(args)
    if args.family == "mod1":
        rep = check_mod1(args.n, trials=args.trials, tol=_tol(args, 1e-6),
                         seed=args.seed, ctx=ctx)
        params = {"n": args.n, "trials": args.trials}
    elif args.family == "mod2":
        rep = check_mod2(args.n, _parse_complex(args.X0),
                         tol=_tol(args, 1e-4), seed=args.seed, ctx=ctx)
        params = {"n": args.n, "X0": args.X0}
    elif args.family == "sp":
        rep = check_sp(CMPoint(args.D, args.x, args.y),
                       tol=_tol(args, 1e-8), ctx=ctx)
        params = {"D": args.D, "x": str(args.x), "y": str(args.y)}
    else:
        rep = check_sf(args.N)
        params = {"N": args.N}
    return params, rep.to_dict(), _verdict_exit(rep.verdict)


def _run_frobenius(args):
    sample = frobenius_sample(parse_curve(args.curve), args.upto)
    return {"curve": args.curve, "upto": args.upto}, sample.to_dict(), OK


def _run_image(args):
    cert = certify_mod_p_image(parse_curve(args.curve), args.p, args.upto)
    code = INCONCLUSIVE if cert.verdict == "Inconclusive" else OK
    params = {"curve": args.curve, "p": args.p, "upto": args.upto}
    return params, cert.to_dict(), code


def _run_goursat(args):
    cert = certify_goursat_pair(parse_curve(args.curve1),
                                parse_curve(args.curve2), args.p, args.upto)
    code = INCONCLUSIVE if cert.verdict == "Inconclusive" else OK
    params = {"curve1": args.curve1, "curve2": args.curve2, "p": args.p,
              "upto": args.upto}
    return params, cert.to_dict(), code


def _run_lifting(args):
    gens = (standard_lifts(args.p) if args.gens is None
            else json.loads(args.gens))
    rep = lifting_check(args.p, gens)
    params = {"p": args.p, "gens": args.gens}
    return params, rep.to_dict(), OK if rep.full else FAIL


def _run_types(args):
    if args.gens is not None and args.curve:
        raise ValueError("--gens and --curve are mutually exclusive")
    if args.gens is not None:
        fmg = enumerate_sl2(args.level)
        raw = json.loads(args.gens)
        gens = [tuple(v % args.level for row in g for v in row) for g in raw]
        subject = Subgroup.generated(fmg, gens).elements
    elif len(args.curve) == 1:
        subject = parse_curve(args.curve[0])
    elif len(args.curve) == 2:
        subject = [parse_curve(c) for c in args.curve]
    else:
        raise ValueError("pass --gens, one --curve, or two --curve flags")
    rep = type_count_report(subject, args.level, bound=args.upto)
    params = {"curve": args.curve, "gens": args.gens, "level": args.level,
              "upto": args.upto}
    return params, rep.to_dict(), OK


_HANDLERS = {
    "special": _run_special,
    "hecke-cosets": _run_hecke_cosets,
    "modpoly": _run_modpoly,
    "j": _run_j,
    "axiom": _run_axiom,
    "frobenius": _run_frobenius,
    "image": _run_image,
    "goursat": _run_goursat,
    "lifting": _run_lifting,
    "types": _run_types,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params, report, code = _HANDLERS[args.command](args)
    except _INCONCLUSIVE_ERRORS as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return INCONCLUSIVE
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    # --threads is read by nothing, so it stays out of the config
    doc = {
        "command": args.command,
        "config": {
            "seed": args.seed,
            "precision_bits": args.precision_bits,
            "tolerance": args.tolerance,
            "output": args.output,
            "params": params,
        },
        "report": report,
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
