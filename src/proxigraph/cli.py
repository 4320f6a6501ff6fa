"""Command-line front end.

Subcommands: verify, solve-bpp, solve-fixed-point, solve-pbvp, reproduce.
Exit codes: 0 success / everything verified, 1 a violation or solver failure
was found (the emitted report carries a machine-readable witness), 2 the
input could not be loaded or parsed.  Reports are JSON with sorted keys and
no timestamps, so identical invocations produce byte-identical output.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from . import corpus
from .bpp_solver import iterate_orbit, solve_bpp
from .cyclic_contraction import (
    CyclicMapTable,
    load_gauge_pair,
    load_map,
    verify_g_cyclic_contraction,
    verify_t2_preserves_edges,
)
from .errors import (
    InstanceFormatError,
    ParamOutOfRange,
    ProxigraphError,
    UnknownField,
    require,
)
from .fixed_point import (
    PairMaps,
    PsiGauge,
    apriori_bound,
    check_uniqueness_regime,
    residual,
    solve_common_fixed_point,
    verify_g_psi_contraction,
)
from .metric_graph import (
    SCHEMA_VERSION,
    FiniteMetricGraph,
    check_property_star,
    has_property_uc,
    is_g_chebyshev,
    is_sharp_proximal,
    pair_distance,
    read_document,
)
from .pbvp import (
    GridFunction,
    RhsFunction,
    TimeGrid,
    solve_common_pbvp,
    solve_pbvp,
)

def _json_default(obj):
    """What json cannot encode by itself: a set becomes a sorted list, and a
    numpy scalar or array its Python value (np.float64 is a float already)."""
    if isinstance(obj, (frozenset, set)):
        return sorted(obj)
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# one violation as json.dumps(indent=2, sort_keys=True) writes its object at
# depth 3 of a report, an item of contraction.violations, and the comma after
# it: the text before each of its lhs, rhs, x and y values, and after the last
_ROW = ('\n      {\n        "lhs": ', ',\n        "rhs": ', ',\n        "x": ',
        ',\n        "y": ', '\n      },')


def _json_floats(values) -> list[str]:
    """Each float as json writes it: its repr, or Infinity, -Infinity or NaN.
    A sweep's values repeat, so each distinct bit pattern is written once."""
    bits, index = np.unique(np.array(values, dtype=float).view(np.int64),
                            return_inverse=True)
    text = [float.__repr__(v) if math.isfinite(v) else json.dumps(v)
            for v in bits.view(float).tolist()]
    return list(map(text.__getitem__, index.tolist()))


def _violation_rows(rows) -> str:
    """The nonempty (x, y, lhs, rhs) rows as json.dumps(indent=2,
    sort_keys=True) writes the list of their {"lhs", "rhs", "x", "y"}
    objects, as the value of a report's contraction.violations."""
    x, y, lhs, rhs = zip(*rows)
    ids = set(x).union(y)
    text = dict(zip(ids, map(encode_basestring_ascii, ids)))  # each id written once
    pieces = zip(repeat(_ROW[0]), _json_floats(lhs), repeat(_ROW[1]), _json_floats(rhs),
                 repeat(_ROW[2]), map(text.__getitem__, x),
                 repeat(_ROW[3]), map(text.__getitem__, y), repeat(_ROW[4]))
    # one join of every piece; the last row's comma is dropped
    return "[" + "".join(chain.from_iterable(pieces))[:-1] + "\n    ]"


def _emit(doc: dict, out: str | None) -> None:
    """Write doc as json.dumps(doc, sort_keys=True, indent=2) does, and a
    newline.  A verify report's contraction.violations holds the sweep's
    (x, y, lhs, rhs) rows; _violation_rows writes them in the same bytes as
    their objects, without json's Python encoder."""
    rows = doc.get("contraction", {}).get("violations")
    if rows:
        doc = {**doc, "contraction": {**doc["contraction"], "violations": []}}
    text = json.dumps(doc, sort_keys=True, indent=2, default=_json_default) + "\n"
    if rows:
        # a report has one violations key, and inside a JSON string every '"'
        # is escaped, so this text occurs once
        head, _, tail = text.partition('"violations": []')
        text = head + '"violations": ' + _violation_rows(rows) + tail
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _write(path: str, text: str) -> None:
    """text into the file at path.  A path that cannot be written is an input
    error, as a file that cannot be read is."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InstanceFormatError(f"cannot write {path}: {exc.strerror}") from None


def _parse_inline(text: str, what: str):
    """A flag value that is either a JSON document or a plain number."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        try:
            return float(text)
        except ValueError:
            raise InstanceFormatError(f"{what} must be JSON or a number, got {text!r}") from None


def _parse_rhs(text: str, flag: str) -> RhsFunction:
    doc = _parse_inline(text, flag)
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{flag} must be a JSON object with a 'kind'")
    return RhsFunction.from_dict(doc)


def _check_doc(result) -> dict:
    doc = {"ok": bool(result)}
    if result.witness is not None:
        doc["witness"] = result.witness
    return doc


# ----- verify -----------------------------------------------------------


def _cmd_verify(args) -> int:
    space = FiniteMetricGraph.from_json(args.instance)
    report: dict = {
        "schema": SCHEMA_VERSION,
        "d_ab": pair_distance(space).d_ab,
        "n_points": len(space.ids),
        "predicates": {
            "sharp_proximal": _check_doc(is_sharp_proximal(space)),
            "property_uc": _check_doc(has_property_uc(space)),
            "g_chebyshev": _check_doc(is_g_chebyshev(space)),
            "star_union": _check_doc(check_property_star(space)),
            "star_a": _check_doc(check_property_star(space, within=space.side_a())),
            "star_b": _check_doc(check_property_star(space, within=space.side_b())),
        },
    }
    failed = False
    if args.map:
        tmap = CyclicMapTable.for_space(space, load_map(args.map))
        report["t2_preserves_edges"] = _check_doc(verify_t2_preserves_edges(space, tmap))
        if args.gauges:
            phi1, phi2 = load_gauge_pair(args.gauges)
            con = verify_g_cyclic_contraction(space, tmap, phi1, phi2,
                                              tol=args.tol, all_pairs=args.all_pairs)
            report["contraction"] = {
                "holds": con.holds,
                "all_pairs": args.all_pairs,
                "checked_pairs": con.checked_pairs,
                "violations": con.violations,
            }
            if not con.maps_a0_into_b0:
                report["contraction"]["a0_witness"] = con.a0_witness
            failed = not con.holds
    elif args.gauges:
        raise InstanceFormatError("--gauges needs --map")
    if args.require_predicates:
        failed = failed or not all(p["ok"] for p in report["predicates"].values())
    report["verified"] = not failed
    _emit(report, args.out)
    return 1 if failed else 0


# ----- solve-bpp --------------------------------------------------------


def _cmd_solve_bpp(args) -> int:
    space = FiniteMetricGraph.from_json(args.instance)
    tmap = CyclicMapTable.for_space(space, load_map(args.map))
    checks = not args.skip_hypothesis_checks
    if args.gauges and checks:
        phi1, phi2 = load_gauge_pair(args.gauges)
        require("cyclic contraction bound",
                verify_g_cyclic_contraction(space, tmap, phi1, phi2))
    result = solve_bpp(space, tmap, args.x0, tol=args.tol,
                       max_iter=args.max_iter, check_hypotheses=checks)
    trace = iterate_orbit(space, tmap, args.x0, tol=args.tol, max_iter=args.max_iter)
    _emit({
        "schema": SCHEMA_VERSION,
        "x0": args.x0,
        "points": list(trace.points),
        "gaps": list(trace.gaps),
        "stop_reason": trace.stop_reason,
        "bpp": result.bpp,
        "achieved_gap": result.achieved_gap,
        "iterations": result.iterations,
        "component": sorted(result.component),
    }, args.out)
    return 0


# ----- solve-fixed-point ------------------------------------------------


def _cmd_solve_fixed_point(args) -> int:
    space = FiniteMetricGraph.from_json(args.instance)
    pair = PairMaps.for_space(space, load_map(args.t1), load_map(args.t2))
    doc = read_document(args.psi, {"schema", "kind", "params"}, "psi file")
    # the file's fields have had their warning: the spec gets only kind and params
    psi = PsiGauge.from_dict({k: doc[k] for k in ("kind", "params") if k in doc})
    checks = not args.skip_hypothesis_checks
    if checks:
        require("psi contraction bound",
                verify_g_psi_contraction(space, pair, psi, strengthened=args.strengthened))
    point, trace = solve_common_fixed_point(
        space, pair, psi, args.x0, tol=args.tol, max_iter=args.max_iter,
        check_hypotheses=checks)
    gaps = list(trace.gaps)
    d0 = gaps[0] if gaps else 0.0
    curve = [apriori_bound(d0, psi(d0), n) for n in range(len(gaps))]
    _emit({
        "schema": SCHEMA_VERSION,
        "x0": args.x0,
        "fixed_point": point,
        "points": list(trace.points),
        "gaps": gaps,
        "apriori": curve,
        "residual": residual(space, pair, point),
        "stop_reason": trace.stop_reason,
        "uniqueness_regime": check_uniqueness_regime(space),
    }, args.out)
    return 0


# ----- solve-pbvp -------------------------------------------------------


def _parse_w0(text: str, grid: TimeGrid) -> GridFunction:
    if text.startswith("const:"):
        try:
            return GridFunction.constant(grid, float(text[6:]))
        except ValueError:
            pass
    raise InstanceFormatError(f"--w0 must look like const:VALUE, got {text!r}")


def _cmd_solve_pbvp(args) -> int:
    f = _parse_rhs(args.rhs, "--rhs")
    f2 = _parse_rhs(args.f2, "--f2") if args.f2 else None
    h_spec = _parse_inline(args.h, "--h")
    grid = TimeGrid(period=args.T, n=args.N)
    w0 = _parse_w0(args.w0, grid)
    if f2 is None:
        u, report = solve_pbvp(f, args.alpha, h_spec, w0, tol=args.tol,
                               max_iter=args.max_iter,
                               check_lower=not args.skip_lower_check)
    else:
        u, report = solve_common_pbvp(f, f2, args.alpha, h_spec, w0,
                                      tol=args.tol, max_iter=args.max_iter,
                                      check_lower=not args.skip_lower_check)
    doc = {
        "schema": SCHEMA_VERSION,
        "n": args.N,
        "period": args.T,
        "alpha": args.alpha,
        "beta": report.beta,
        "iterations": report.iterations,
        "sup_norm": u.sup_norm(),
        "periodicity_residual": u.periodicity_residual(),
        "ode_residual": report.ode_residual,
        "ode_residual_periodic": report.ode_residual_periodic,
        "max_ratio": report.max_ratio,
        "final_increment": report.final_increment,
    }
    if args.out:
        _write(args.out, "t,u\n" + "".join(f"{t:.17g},{v:.17g}\n"
                                           for t, v in zip(grid.nodes, u.values)))
    else:
        doc["solution"] = {"t": grid.nodes, "u": u.values}
    _emit(doc, args.report)
    return 0


# ----- reproduce --------------------------------------------------------


def _cmd_reproduce(args) -> int:
    params = {}
    for item in args.params or ():
        key, sep, value = item.partition("=")
        if not sep:
            raise ParamOutOfRange(f"--params entries look like key=value, got {item!r}")
        try:
            params[key] = int(value)
        except ValueError:
            raise ParamOutOfRange(f"parameter {key!r} needs an integer, got {value!r}") from None
    report = corpus.reproduce(args.example_id, params)
    _emit(report, args.out)
    return 0 if report["all_pass"] else 1


# ----- parser -----------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  It names the subcommand only;
    main looks up its handler, _cmd_<subcommand>, when it is called."""
    parser = argparse.ArgumentParser(
        prog="proxigraph",
        description="verify contraction structure and solve proximity, "
                    "fixed-point, and periodic boundary problems on finite "
                    "metric graphs")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_out(p):
        p.add_argument("--out", default=None,
                       help="write the JSON report here instead of stdout")

    def common(p):
        p.add_argument("--strict", action="store_true",
                       help="reject unknown fields and parameter names in the JSON inputs")
        add_out(p)

    p = sub.add_parser("verify", help="check instance structure and the "
                                      "contraction inequality")
    p.add_argument("--instance", required=True)
    p.add_argument("--map", default=None)
    p.add_argument("--gauges", default=None)
    p.add_argument("--all-pairs", action="store_true",
                   help="sweep every cross pair instead of edge-eligible ones")
    p.add_argument("--require-predicates", action="store_true",
                   help="exit 1 unless every hypothesis predicate holds")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="slack allowed when comparing the two sides; 0 allows none")
    common(p)

    p = sub.add_parser("solve-bpp", help="iterate the cyclic map to a best "
                                         "proximity point")
    p.add_argument("--instance", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--gauges", default=None)
    p.add_argument("--x0", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=10_000)
    p.add_argument("--skip-hypothesis-checks", action="store_true")
    common(p)

    p = sub.add_parser("solve-fixed-point", help="alternate two maps to their "
                                                 "common fixed point")
    p.add_argument("--instance", required=True)
    p.add_argument("--t1", required=True)
    p.add_argument("--t2", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=10_000)
    p.add_argument("--strengthened", action="store_true",
                   help="pre-verify the rate bound over ordered pairs")
    p.add_argument("--skip-hypothesis-checks", action="store_true")
    common(p)

    p = sub.add_parser("solve-pbvp", help="iterate the periodic integral "
                                          "operator from a lower solution")
    p.add_argument("--rhs", required=True, help="JSON right-hand side spec")
    p.add_argument("--f2", default=None,
                   help="second right-hand side; switches to the common solve")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--h", required=True,
                   help="JSON comparison-function spec or a number")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--N", type=int, default=201)
    p.add_argument("--w0", default="const:0", help="initial iterate, const:VALUE")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=10_000)
    p.add_argument("--skip-lower-check", action="store_true")
    p.add_argument("--out", default=None, help="write the solution CSV here")
    p.add_argument("--report", default=None,
                   help="write the JSON report here instead of stdout")

    p = sub.add_parser("reproduce", help="rebuild a bundled example and "
                                         "compare against its expected results")
    p.add_argument("example_id")
    p.add_argument("--params", nargs="*", default=[],
                   help="builder parameters as key=value")
    add_out(p)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(f"warning: {message}\n")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = globals()["_cmd_" + args.subcommand.replace("-", "_")]
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        if getattr(args, "strict", False):
            warnings.simplefilter("error", UnknownField)
        try:
            tol = getattr(args, "tol", 0.0)
            if not (math.isfinite(tol) and tol >= 0.0):
                raise ParamOutOfRange(f"--tol must be finite and >= 0, got {tol}")
            max_iter = getattr(args, "max_iter", 1)
            if max_iter < 1:
                raise ParamOutOfRange(f"--max-iter must be >= 1, got {max_iter}")
            return handler(args)
        except ProxigraphError as exc:
            # an input error exits 2; anything raised while a check or solve
            # is running exits 1 with the witness in the report, unless the
            # report cannot be written
            if exc.slug is not None:
                doc = {"schema": SCHEMA_VERSION, "error": exc.slug, "message": str(exc)}
                witness = getattr(exc, "witness", None)
                if witness is not None:
                    doc["witness"] = witness
                try:
                    # into the JSON report: solve-pbvp's --out is its solution CSV
                    _emit(doc, getattr(args, "report", args.out))
                    return 1
                except InstanceFormatError as unwritable:
                    exc = unwritable
            sys.stderr.write(f"input error: {exc}\n")
            return 2


if __name__ == "__main__":
    sys.exit(main())
