"""Command line interface.

Commands:
  schur       basis tables (schur | h | m | p | t_hbar) at one weight cap
  transition  L and L^{-1} between power sums and monomial functions
  pconst      table of the universal constants P_ij
  tau         initial data -> coefficient table c_lambda
  fseries     initial data -> coefficient table f_lambda (concrete/symbolic)
  convert     plain first derivatives <-> deformed first derivatives
  bridge      F-side data -> tau-side data (numeric hbar)
  verify      fay | hirota3 | detm | kp2 | appendix on an emitted table

Exit codes: 0 success, 1 verification failure, 2 malformed input/caps.
Output is deterministic for a given argument list (including --seed).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import cache
from random import Random

from . import dataio, fbuild, kpconst, symfun, taubuild, verify
from .errors import HbarkpError
from .hscalar import HContext, default_window, scalar_to_json
from .partitions import partitions_upto
from .rational import Rational
from .sampling import random_rational_matrix
from .tpoly import TPoly


# Largest weight ``transition`` accepts; its cost grows about x2 per weight.
TRANSITION_MAX_WEIGHT = 14
# Largest weight ``schur`` accepts: at 16 each basis takes at most about
# 7 s, and the Schur basis grows about x1.6 per weight (10 s at 18).
SCHUR_MAX_WEIGHT = 16
# Largest weight symbolic ``fseries`` accepts.  It was set when 16 took
# 41 s; with the words on integer coefficients, each built from its suffix,
# 14 takes about 0.6 s (0.8 s at 15, 1.8 s at 16).
FSERIES_MAX_WEIGHT = 14
# Most points ``verify detm`` accepts: 6 is the largest m at which
# ``_least_z_order`` was measured.  At W = 4 and the least z order, 6 points
# take about 1.4 s, as one product of the diagonal entries and 720 signed
# slot relabellings; the Laplace determinant took about 30 s there.
DETM_MAX_POINTS = 6
# Largest ``pconst --bound``: about 0.7 s at 10, 2.3 s at 11 and 6.5 s at
# 12, and about x3 per step (24 s at 13).
PCONST_MAX_BOUND = 12
# Most ``verify appendix --matrices``: about 1 ms per matrix, so about 5 s
# at the limit.
APPENDIX_MAX_MATRICES = 5000


class CommandError(Exception):
    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def _context_from_args(args, weight) -> HContext:
    if args.hbar is not None:
        return HContext.numeric(args.hbar)
    if args.window is not None:
        lo, hi = args.window
        return HContext.symbolic(lo, hi)
    return HContext.symbolic(*default_window(weight))


def _tpoly_json(poly: TPoly) -> dict:
    out = {}
    for (texp, zexp) in poly.monomials():
        key = ",".join(str(e) for e in texp) or "1"
        out[key] = scalar_to_json(poly.terms[(texp, zexp)])
    return out


def _emit(args, doc) -> None:
    text = dataio.dump(doc, args.output)
    if args.output is None:
        print(text)


def cmd_schur(args) -> int:
    W = args.weight
    if not 0 <= W <= SCHUR_MAX_WEIGHT:
        raise CommandError(f"schur needs 0 <= --weight <= {SCHUR_MAX_WEIGHT}")
    ctx = _context_from_args(args, W)
    builders = {
        "schur": symfun.schur,
        "h": symfun.h_product,
        "m": symfun.monomial_m,
        "p": symfun.power_sum,
        "t_hbar": symfun.t_hbar,
    }
    build = builders[args.basis]
    table = {}
    pretty = {}
    for lam in partitions_upto(W):
        poly = build(lam, ctx, W)
        table[lam.serialize()] = _tpoly_json(poly)
        pretty[lam.serialize()] = poly.render()
    _emit(args, {
        "basis": args.basis,
        "caps": dataio.caps_to_json(W, 0, 0),
        "hbar": dataio.hbar_to_json(ctx),
        "table": table,
        "pretty": pretty,
    })
    return 0


def cmd_transition(args) -> int:
    n = args.weight
    if not 1 <= n <= TRANSITION_MAX_WEIGHT:
        raise CommandError(
            f"transition needs 1 <= --weight <= {TRANSITION_MAX_WEIGHT}")
    L, Linv = symfun.transition_L(n)
    def as_json(matrix):
        return {
            lam.serialize(): {
                mu.serialize(): str(matrix.entry(lam, mu))
                for mu in matrix.labels if matrix.entry(lam, mu) != 0
            }
            for lam in matrix.labels
        }
    _emit(args, {"weight": n, "L": as_json(L), "L_inverse": as_json(Linv)})
    return 0


def cmd_pconst(args) -> int:
    if not 0 <= args.bound <= PCONST_MAX_BOUND:
        raise CommandError(f"pconst needs 0 <= --bound <= {PCONST_MAX_BOUND}")
    table = kpconst.p_table(args.bound)
    out = {}
    for (i, j, s), c in sorted(table.items()):
        out.setdefault(f"{i},{j}", {})[",".join(map(str, s))] = str(c)
    _emit(args, {"bound": args.bound, "P": out})
    return 0


def _check_z_order(args) -> None:
    """The z order a table records must be a cap, so at least 0."""
    if args.z_order < 0:
        raise CommandError(
            f"--z-order must be nonnegative; got {args.z_order}")


def cmd_tau(args) -> int:
    _check_z_order(args)
    doc = dataio.load(args.input)
    data = dataio.tau_data_from_document(doc)
    ts = taubuild.tau_series(data)
    _emit(args, dataio.tau_series_to_document(ts, z_order=args.z_order))
    return 0


def cmd_fseries(args) -> int:
    _check_z_order(args)
    if args.mode == "symbolic":
        W = args.weight
        if not 0 <= W <= FSERIES_MAX_WEIGHT:
            raise CommandError(f"symbolic fseries needs 0 <= --weight <= "
                               f"{FSERIES_MAX_WEIGHT}")
        ctx = _context_from_args(args, W)
        fs = fbuild.f_series_symbolic(ctx, W)
        _emit(args, dataio.f_series_to_document(fs, basis=args.basis))
        return 0
    doc = dataio.load(args.input)
    data = dataio.f_data_from_document(doc)
    fs = fbuild.f_series(data)
    if args.basis == "t_plain":
        fs = replace(fs, table=fs.plain_taylor())
    _emit(args, dataio.f_series_to_document(fs, args.z_order, args.basis))
    return 0


def cmd_convert(args) -> int:
    doc = dataio.load(args.input)
    if args.direction == "to-cauchy":
        data = dataio.f_data_from_document(doc)
        table = {"0": dataio.xseries_to_json(data.f0)}
        for k in range(1, data.K + 1):
            table[str(k)] = dataio.xseries_to_json(
                fbuild.cauchy_from_cauchylike(data, k))
        _emit(args, {
            "hbar": dataio.hbar_to_json(data.ctx),
            "caps": dataio.caps_to_json(data.weight_cap, data.x_cap, 0),
            "cauchy": table,
        })
    else:
        ctx, W, X, f0, plain = dataio.cauchy_from_document(doc)
        data = fbuild.cauchylike_from_cauchy(ctx, W, X, f0, plain)
        _emit(args, dataio.f_data_to_document(data))
    return 0


def cmd_bridge(args) -> int:
    doc = dataio.load(args.input)
    data = dataio.f_data_from_document(doc)
    tau_data = fbuild.bridge_to_tau(data)
    _emit(args, dataio.tau_data_to_document(tau_data))
    return 0


def _clamp_series(s, x_order):
    from .xseries import XSeries

    if x_order is None or x_order >= s.valid:
        return s
    if x_order < 0:
        raise CommandError("--x-order must be nonnegative")
    return XSeries(s.ctx, s.cap, s.coeffs[: x_order + 1], valid=x_order)


def _clamp(series, weight, x_order):
    """A tau or F table cut down to a smaller weight cap and/or x order."""
    if weight is None and x_order is None:
        return series
    W = series.weight_cap if weight is None else weight
    if W < 0:
        raise CommandError("--weight must be nonnegative")
    if W > series.weight_cap:
        raise CommandError("--weight exceeds the table's weight cap")
    changes = {
        "weight_cap": W,
        "table": {lam: _clamp_series(s, x_order)
                  for lam, s in series.table.items() if lam.weight <= W},
    }
    if hasattr(series, "f0"):
        changes["f0"] = _clamp_series(series.f0, x_order)
    return replace(series, **changes)


def _residual_doc(res: verify.Residual) -> dict:
    return {
        "identity": res.identity,
        "caps": res.caps,
        "pass": res.passed,
        "worst_monomial": res.worst,
    }


# The table each check reads: the bilinear identities test tau, kp2 tests F.
_TABLE_OF_CHECK = {"fay": "c_lambda", "hirota3": "c_lambda",
                   "detm": "c_lambda", "kp2": "f_lambda"}
_TABLE_KIND = {"c_lambda": "tau", "f_lambda": "F"}


def _least_z_order(check: str, points: int) -> int:
    """The smallest ``--z-order`` at which a check can fail.

    Below it the residual vanishes for every table, KP or not, so a pass
    there says nothing.  The residual of the m-point identity changes sign
    when two points are swapped, so it is the Vandermonde in
    zeta_1..zeta_m times a symmetric series.  The bound for detm fits the
    reading that the first part of that series a non-KP tau makes nonzero
    has degree 4: its monomials of least largest slot degree,
    m - 1 + ceil(4/m), come from the partitions of 4 into at most m parts
    with the shortest first row.  Measured with non-KP tables (W = 4..7; W = 4, 5 for m = 5 and
    W = 4 for m = 6): the Fay, three-term and F-form checks and detm with
    2, 3, 4, 5, 6 points pass at every z order below 3, 3, 3, 3, 4, 4, 5, 6
    respectively and fail at it.  tests/test_cli.py pins all but m = 5, 6.
    """
    if check == "detm" and points >= 2:
        return points - 1 + -(-4 // points)
    return 3


def cmd_verify(args) -> int:
    if args.check == "appendix":
        if args.matrices < 1:
            raise CommandError("--matrices must be at least 1")
        if args.matrices > APPENDIX_MAX_MATRICES:
            raise CommandError(f"verify appendix needs --matrices <= "
                               f"{APPENDIX_MAX_MATRICES}; got {args.matrices}")
        rng = Random(args.seed)
        results = []
        ok = True
        for _ in range(args.matrices):
            n = rng.randint(3, 4)
            m = random_rational_matrix(rng, n)
            r1 = verify.jacobi_minor_identity(m)
            r2 = verify.zdet_identity(
                m, [Rational(rng.randint(1, 5)) for _ in range(n)])
            results.extend([_residual_doc(r1), _residual_doc(r2)])
            ok = ok and r1.passed and r2.passed
        _emit(args, {"checks": results, "pass": ok})
        return 0 if ok else 1

    if args.check == "detm" and args.points > DETM_MAX_POINTS:
        raise CommandError(f"verify detm needs --points <= {DETM_MAX_POINTS}; "
                           f"got {args.points}")
    z_cap = args.z_order
    least = _least_z_order(args.check, args.points)
    if z_cap < least:
        raise CommandError(f"verify {args.check} cannot fail below "
                           f"--z-order {least}; got {z_cap}")
    doc = dataio.load(args.input)
    table = _TABLE_OF_CHECK[args.check]
    if table not in doc:
        raise CommandError(f"verify {args.check} needs a {table} "
                           f"({_TABLE_KIND[table]}) table")
    if table == "c_lambda":
        series = dataio.tau_series_from_document(doc)
    else:
        series = dataio.f_series_from_document(doc)
    poly = _clamp(series, args.weight, args.x_order).assemble()

    if args.check == "fay":
        res = verify.check_fay(poly, z_cap)
    elif args.check == "hirota3":
        res = verify.check_hirota3(poly, z_cap)
    elif args.check == "detm":
        res = verify.check_det_m(poly, args.points, z_cap)
    else:
        res = verify.check_kp2(poly, z_cap)
    _emit(args, _residual_doc(res))
    return 0 if res.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbarkp",
        description="Exact engine for hbar-KP formal solutions and their "
                    "bilinear verification.",
        epilog=f"A document's caps.x_order is at most {dataio.X_ORDER_MAX}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def hbar_flags(p):
        p.add_argument("--hbar", help="rational value for hbar (numeric mode)")
        p.add_argument("--window", nargs=2, type=int, metavar=("LO", "HI"),
                       help="symbolic hbar exponent window")

    def common(p, need_input=False):
        p.add_argument("--output", help="write JSON here instead of stdout")
        if need_input:
            p.add_argument("--input", required=True, help="input data file")

    p = sub.add_parser("schur", help="basis tables")
    p.add_argument("--weight", type=int, required=True,
                   help=f"weight cap, 0 to {SCHUR_MAX_WEIGHT}")
    p.add_argument("--basis", choices=["schur", "h", "m", "p", "t_hbar"],
                   default="schur")
    common(p)
    hbar_flags(p)
    p.set_defaults(func=cmd_schur)

    p = sub.add_parser("transition", help="transition matrices at one weight")
    p.add_argument("--weight", type=int, required=True,
                   help=f"weight, 1 to {TRANSITION_MAX_WEIGHT}")
    common(p)
    p.set_defaults(func=cmd_transition)

    p = sub.add_parser("pconst", help="universal constant tables")
    p.add_argument("--bound", type=int, default=4,
                   help=f"largest i and j, 0 to {PCONST_MAX_BOUND}")
    common(p)
    p.set_defaults(func=cmd_pconst)

    p = sub.add_parser("tau", help="coefficient table from tau-side data")
    p.add_argument("--z-order", type=int, default=0)
    common(p, need_input=True)
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("fseries", help="coefficient table from F-side data")
    p.add_argument("--mode", choices=["concrete", "symbolic"], default="concrete")
    p.add_argument("--basis", choices=["t_hbar", "t_plain"], default="t_hbar")
    p.add_argument("--weight", type=int, default=4,
                   help=f"symbolic mode's weight cap, 0 to {FSERIES_MAX_WEIGHT}")
    p.add_argument("--z-order", type=int, default=0)
    p.add_argument("--input", help="input data file (concrete mode)")
    common(p)
    hbar_flags(p)
    p.set_defaults(func=cmd_fseries)

    p = sub.add_parser("convert", help="plain <-> deformed first derivatives")
    p.add_argument("direction", choices=["to-cauchy", "to-cauchy-like"])
    common(p, need_input=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("bridge", help="F-side data to tau-side data")
    common(p, need_input=True)
    p.set_defaults(func=cmd_bridge)

    p = sub.add_parser("verify", help="run one identity check")
    p.add_argument("check", choices=["fay", "hirota3", "detm", "kp2", "appendix"])
    p.add_argument("--input", help="emitted c_lambda / f_lambda table")
    p.add_argument("--points", type=int, default=3,
                   help=f"m for detm, at most {DETM_MAX_POINTS}")
    p.add_argument("--weight", type=int, help="verify at a smaller weight cap")
    p.add_argument("--x-order", type=int, help="verify at a smaller x order")
    p.add_argument("--z-order", type=int, default=4,
                   help="z cap of the check (default 4); the table's "
                        "caps.z_order is not read")
    p.add_argument("--seed", type=int, default=0, help="appendix matrices seed")
    p.add_argument("--matrices", type=int, default=25,
                   help=f"appendix matrices, 1 to {APPENDIX_MAX_MATRICES}")
    p.add_argument("--output", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_verify)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process, on the first call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "fseries" and args.mode == "concrete" and not args.input:
        print("error: concrete fseries needs --input", file=sys.stderr)
        return 2
    if args.command == "verify" and args.check != "appendix" and not args.input:
        print("error: verify needs --input", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (HbarkpError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
