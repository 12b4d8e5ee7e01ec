"""Batch command line frontend.

Every invocation runs one subcommand.  A report, including an axiom's
inconclusive verdict, is printed as one JSON document on standard
output; a usage error (exit 2) or an inconclusive raised inside a
subcommand (exit 3) prints nothing there, only a message on standard
error (ROADMAP item 3 would give those a document too).  The document
embeds the run configuration (seed, precision, tolerance, output path,
subcommand parameters) so a report can be reproduced from itself.  Exit
codes: 0 pass/success, 1 fail with witness, 2 usage error,
3 inconclusive.
"""

from __future__ import annotations

import argparse
import cmath
import json
import re
import sys
from fractions import Fraction

from .axioms import check_mod1, check_mod2, check_sf, check_sp
from .congruence import MAX_LEVEL
from .errors import (
    BadDeterminant,
    BadReduction,
    EvidenceInsufficient,
    IllConditioned,
    LevelTooLarge,
    NoConvergence,
    NotElliptic,
    NotSquarefree,
    OrderAmbiguous,
    PrecisionExhausted,
)
from .galois import (
    CERTIFIABLE_PRIMES,
    certify_goursat_pair,
    certify_mod_p_image,
    frobenius_sample,
    lifting_check,
    parse_curve,
    standard_lifts,
)
from .hecke import double_coset_reps, modular_polynomial, psi
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

# j sums about prec/7.3 terms of its series (1121 at 2**13 bits), and its
# cost grows faster than the square of that: at 2**13 bits `j` takes about
# a second and `axiom mod1 --n 2` (40 j calls) about 14 s, while at 2**14
# bits they take 3 s and 82 s.  The lower bound of 64 bits is the library's
# own.
MAX_PRECISION_BITS = 1 << 13

_USAGE_ERRORS = (ValueError, NotSquarefree, LevelTooLarge, BadDeterminant,
                 BadReduction, NotElliptic)
_INCONCLUSIVE_ERRORS = (PrecisionExhausted, NoConvergence, IllConditioned,
                        EvidenceInsufficient, OrderAmbiguous)


def _parse_complex(text: str):
    try:
        z = complex(text.replace("i", "j").replace(" ", ""))
    except ValueError:
        raise ValueError(f"cannot parse complex number from {text!r}")
    if not cmath.isfinite(z):
        raise ValueError(f"complex number {text!r} is not finite")
    return z


def _int_rows(mat):
    a, b, c, d = mat
    return [[int(a), int(b)], [int(c), int(d)]]


def _parse_gens(text: str) -> list:
    """--gens: a JSON list of 2x2 integer matrices, returned as (a, b, c, d)
    tuples; the library checks their determinants against its modulus."""
    raw = json.loads(text)
    if not (isinstance(raw, list) and all(
            isinstance(g, list) and len(g) == 2
            and all(isinstance(row, list) and len(row) == 2
                    and all(type(v) is int for v in row) for row in g)
            for g in raw)):
        raise ValueError(f"--gens must be a JSON list of 2x2 integer "
                         f"matrices, got {text!r}")
    return [(a, b, c, d) for (a, b), (c, d) in raw]


def _verdict_exit(verdict: str) -> int:
    """The exit code of an image, goursat or axiom verdict."""
    return {"fail": FAIL, "inconclusive": INCONCLUSIVE,
            "Inconclusive": INCONCLUSIVE}.get(verdict, OK)


def _thread_count(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _precision_bits(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value > MAX_PRECISION_BITS:
        raise argparse.ArgumentTypeError(
            f"must be at most {MAX_PRECISION_BITS}, got {value}")
    return value


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}")


def _tolerance(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be finite and positive, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads -0.3+0.5i or -1e8+1i as a value.

    argparse takes only plain negative numbers such as -12 or -1.5 for
    values and any other leading dash for an option.  No option of this
    CLI starts with a dash and a digit, so such a token is always a value.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def _common_flags(sub):
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for randomized trials (default 0)")
    sub.add_argument("--precision-bits", type=_precision_bits, default=128,
                     help="working precision for series evaluation")
    sub.add_argument("--tolerance", type=_tolerance, default=None,
                     help="override the subcommand's default tolerance")
    sub.add_argument("--threads", type=_thread_count, default=1,
                     help="accepted for compatibility; nothing reads it")
    sub.add_argument("--output", default=None,
                     help="also write the JSON document to this path")
    return sub


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="heckelab",
        description="finite checks for modular curves: special points, "
                    "coset decompositions, modular polynomials, and mod-p "
                    "image certificates")
    cmds = top.add_subparsers(dest="command", required=True)

    special = cmds.add_parser("special", help="special points and witnesses")
    modes = special.add_subparsers(dest="mode", required=True)
    pt = _common_flags(modes.add_parser("point"))
    pt.add_argument("--D", type=int, required=True)
    pt.add_argument("--x", type=_fraction, required=True)
    pt.add_argument("--y", type=_fraction, required=True)
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
    sp.add_argument("--x", type=_fraction, required=True)
    sp.add_argument("--y", type=_fraction, required=True)
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
    return QSeriesContext(prec_bits=args.precision_bits)


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
        return report, OK if report["round_trip_exact"] else FAIL
    g = parse_matrix(args.m)
    cls = classify(g)
    report = {"matrix": str(g), "classification": cls.kind.value,
              "disc": str(cls.disc), "fixed_point": None}
    if cls.kind is ElementKind.ELLIPTIC:
        report["fixed_point"] = fixed_point(g).to_dict()
    return report, OK


def _run_hecke_cosets(args):
    dec = double_coset_reps(args.n)
    report = {"n": args.n, "count": len(dec.reps), "psi": psi(args.n),
              "reps": [str(m) for m in dec.reps]}
    return report, OK


def _run_modpoly(args):
    phi = modular_polynomial(args.n)
    report = {"n": args.n, "degX": phi.degX, "degY": phi.degY,
              "symmetric": phi.is_symmetric(),
              "coefficients": [[i, k, c] for (i, k), c in
                               sorted(phi.coeffs.items()) if c != 0]}
    return report, OK


def _run_j(args):
    z = _parse_complex(args.tau)
    res = j(NumericPoint(z.real, z.imag, args.precision_bits), _ctx(args))
    report = {"tau": [z.real, z.imag], **res.to_dict()}
    return report, OK


def _run_axiom(args):
    ctx = _ctx(args)
    if args.family == "mod1":
        rep = check_mod1(args.n, trials=args.trials, tol=_tol(args, 1e-6),
                         seed=args.seed, ctx=ctx)
    elif args.family == "mod2":
        rep = check_mod2(args.n, _parse_complex(args.X0),
                         tol=_tol(args, 1e-4), seed=args.seed, ctx=ctx)
    elif args.family == "sp":
        rep = check_sp(CMPoint(args.D, args.x, args.y),
                       tol=_tol(args, 1e-8), ctx=ctx)
    else:
        rep = check_sf(args.N)
    return rep._asdict(), _verdict_exit(rep.verdict)


def _run_frobenius(args):
    sample = frobenius_sample(parse_curve(args.curve), args.upto)
    return sample._asdict(), OK


def _run_image(args):
    cert = certify_mod_p_image(parse_curve(args.curve), args.p, args.upto)
    return cert._asdict(), _verdict_exit(cert.verdict)


def _run_goursat(args):
    cert = certify_goursat_pair(parse_curve(args.curve1),
                                parse_curve(args.curve2), args.p, args.upto)
    return cert._asdict(), _verdict_exit(cert.verdict)


def _run_lifting(args):
    gens = (standard_lifts(args.p) if args.gens is None
            else _parse_gens(args.gens))
    rep = lifting_check(args.p, gens)
    return rep._asdict(), OK if rep.full else FAIL


def _run_types(args):
    if args.gens is not None and args.curve:
        raise ValueError("--gens and --curve are mutually exclusive")
    if args.gens is not None:
        if args.level > MAX_LEVEL:
            raise LevelTooLarge(f"N={args.level} exceeds the level bound "
                                f"{MAX_LEVEL}")
        subject = _parse_gens(args.gens)
    elif len(args.curve) in (1, 2) and args.level not in CERTIFIABLE_PRIMES:
        raise ValueError(f"--level must be in {CERTIFIABLE_PRIMES} with "
                         f"--curve, got {args.level}")
    elif len(args.curve) == 1:
        subject = parse_curve(args.curve[0])
    elif len(args.curve) == 2:
        subject = [parse_curve(c) for c in args.curve]
    else:
        raise ValueError("pass --gens, one --curve, or two --curve flags")
    rep = type_count_report(subject, args.level, bound=args.upto)
    return rep.to_dict(), OK


_NOT_PARAMS = {"command", "mode", "family", "seed", "precision_bits",
               "tolerance", "threads", "output"}

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
        report, code = _HANDLERS[args.command](args)
    except _INCONCLUSIVE_ERRORS as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return INCONCLUSIVE
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    # every parsed argument outside the common flags and the subcommand
    # path is a parameter; --threads is read by nothing and stays out
    params = {k: str(v) if isinstance(v, Fraction) else v
              for k, v in vars(args).items() if k not in _NOT_PARAMS}
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
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:  # NaN and Infinity are not JSON
        print("error: the report holds a number that overflows a double",
              file=sys.stderr)
        return USAGE
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write --output {args.output}: "
                  f"{exc.strerror}", file=sys.stderr)
            return USAGE
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
