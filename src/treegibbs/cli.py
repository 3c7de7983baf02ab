"""Command-line front end.

Subcommands: ``solve`` (one instance, JSON on stdout), ``enumerate`` (all
schemes for a k, CSV), ``classify`` (family of one scheme, JSON), ``sweep``
(scheme x theta grid, CSV + warnings sidecar), ``verify`` (finite-volume
brute-force checks of one solved instance, JSON).

Exit codes: 0 success, 1 verification checks failed, 2 invalid matrix or
other bad input, 3 invalid theta, 4 I/O failure (an output file, or an
unreadable ``--assignment`` file), 5 capacity breach.

``solve``, ``sweep`` and ``verify`` take the solver settings as flags
(``--grid-points``, ``--bisect-tol``, ``--residual-tol``,
``--dedup-tol``); a value that ``SolverConfig`` refuses exits 2.

``main(argv)`` may be called any number of times in one process: the
parser is built on the first call and reused.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from datetime import datetime, timezone

from .extremality import assess_solution
from .kernels import Coupling, _check_theta
from .oracle import check_kolmogorov, finite_volume_measure, root_marginal_ratio
from .scheme import (
    SchemeMatrix,
    classify,
    enumerate_schemes,
    nonuniqueness_criterion,
    reduce as reduce_scheme,
)
from .solver import FieldPair, SolverConfig, _solve_thetas, solve_system, system_residual
from .tree import (
    CapacityError,
    FieldLabel,
    assign_fields,
    build_tree,
    export_assignment,
    numeric_field,
    parse_assignment,
    verify_compatibility,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_MATRIX = 2
EXIT_BAD_THETA = 3
EXIT_IO = 4
EXIT_CAPACITY = 5

COMPAT_TOL = 1e-9
ROOT_RATIO_TOL = 1e-10

SWEEP_COLUMNS = (
    "k,a1,a2,a3,a4,b1,b2,b3,b4,a,b,c,d,theta,criterion,n_solutions,"
    "family,h,l,kappa_bound,gamma_bound,product,verdict"
)


class _MatrixError(ValueError):
    pass


class _ThetaError(ValueError):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _parse_row(text: str) -> tuple[int, int, int, int]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise _MatrixError(f"cannot parse row {text!r}") from exc
    if len(parts) != 4:
        raise _MatrixError(f"row must have four entries, got {text!r}")
    return parts


def _scheme_from(k: int, a_text: str, b_text: str) -> SchemeMatrix:
    try:
        return SchemeMatrix(k=k, a=_parse_row(a_text), b=_parse_row(b_text))
    except ValueError as exc:
        raise _MatrixError(str(exc)) from exc


def _parse_theta(text: str) -> float:
    try:
        theta = float(text)
    except ValueError as exc:
        raise _ThetaError(f"cannot parse theta {text!r}") from exc
    try:
        theta = _check_theta(theta)
    except ValueError as exc:
        raise _ThetaError(str(exc)) from exc
    if theta == 0.0:
        raise _ThetaError("theta must be nonzero")
    return theta


def _solver_config(args) -> SolverConfig:
    flags = ("grid_points", "bisect_tol", "residual_tol", "dedup_tol")
    given = {flag: getattr(args, flag) for flag in flags if getattr(args, flag) is not None}
    try:
        return SolverConfig(**given)
    except ValueError as exc:
        raise _MatrixError(f"bad solver configuration: {exc}") from exc


def _solution_entries(r, theta, solutions) -> list[dict]:
    return [
        {
            "h": pair.h,
            "l": pair.l,
            "residual": system_residual(r, theta, pair),
        }
        for pair in solutions
    ]


# ---------------------------------------------------------------------------
# solve / classify / enumerate
# ---------------------------------------------------------------------------


def _cmd_solve(args) -> int:
    m = _scheme_from(args.k, args.a, args.b)
    theta = _parse_theta(args.theta)
    cfg = _solver_config(args)
    r = reduce_scheme(m)
    solutions = solve_system(r, theta, cfg)
    payload = {
        "reduced": {"a": r.a, "b": r.b, "c": r.c, "d": r.d},
        "criterion": nonuniqueness_criterion(r, theta),
        "solutions": _solution_entries(r, theta, solutions),
        "family": classify(m, solutions.largest_nonnegative()).tag.value,
    }
    if solutions.warnings:
        payload["warnings"] = list(solutions.warnings)
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_classify(args) -> int:
    m = _scheme_from(args.k, args.a, args.b)
    try:
        pair = FieldPair(args.field_h, args.field_l)
    except ValueError as exc:
        raise _MatrixError(f"bad field pair: {exc}") from exc
    family = classify(m, pair)
    print(json.dumps({"family": family.tag.value, "param": family.param}, indent=2))
    return EXIT_OK


def _enumerate_lines(k: int):
    yield "# schema=1"
    yield "k,a1,a2,a3,a4,b1,b2,b3,b4,a,b,c,d,family,family_param"
    zero = FieldPair(0.0, 0.0)
    for m in enumerate_schemes(k):
        r = reduce_scheme(m)
        family = classify(m, zero)
        yield ",".join(
            [str(k), *map(str, m.a), *map(str, m.b),
             str(r.a), str(r.b), str(r.c), str(r.d),
             family.tag.value, "" if family.param is None else str(family.param)]
        )


def _cmd_enumerate(args) -> int:
    if not (1 <= args.k <= 8):
        raise _MatrixError(f"enumerate supports 1 <= k <= 8, got {args.k}")
    lines = _enumerate_lines(args.k)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_rows(payload) -> list[tuple[list[str], list[dict]]]:
    """CSV rows and sidecar warnings of schemes sharing one reduction.

    All thetas are solved in one call for the whole group; only the family
    column depends on the scheme itself.
    """
    k, rows_ab, thetas, couplings, cfg = payload
    schemes = [SchemeMatrix(k=k, a=a_row, b=b_row) for a_row, b_row in rows_ab]
    r = reduce_scheme(schemes[0])
    out: list[tuple[list[str], list[dict]]] = [([], []) for _ in schemes]
    for theta, coupling, solutions in zip(thetas, couplings, _solve_thetas(r, thetas, cfg)):
        pair = solutions.largest_nonnegative()
        report = assess_solution(k, coupling, pair)
        head = [
            str(r.a), str(r.b), str(r.c), str(r.d),
            _fmt(theta),
            "true" if nonuniqueness_criterion(r, theta) else "false",
            str(len(solutions)),
        ]
        tail = [
            _fmt(pair.h), _fmt(pair.l),
            _fmt(report.kappa_bound), _fmt(report.gamma_bound), _fmt(report.product),
            report.verdict.value,
        ]
        for m, (rows, warn_entries) in zip(schemes, out):
            rows.append(",".join([
                str(k), *map(str, m.a), *map(str, m.b), *head,
                classify(m, pair).tag.value, *tail,
            ]))
            if solutions.warnings:
                warn_entries.append({
                    "scheme": f"{','.join(map(str, m.a))}:{','.join(map(str, m.b))}",
                    "theta": theta,
                    "messages": list(solutions.warnings),
                })
    return out


def _cmd_sweep(args) -> int:
    try:
        _check_theta(args.theta_hi)
    except ValueError as exc:
        raise _ThetaError(f"need 0 < theta-lo < theta-hi; theta-hi: {exc}") from exc
    if not (0.0 < args.theta_lo < args.theta_hi):
        raise _ThetaError(
            f"need 0 < theta-lo < theta-hi, got [{args.theta_lo}, {args.theta_hi}]"
        )
    if args.steps < 2:
        raise _ThetaError("steps must be >= 2")
    if args.jobs < 0:
        raise _MatrixError(f"jobs must be >= 0 (0 = all cores), got {args.jobs}")
    # the last theta is theta-hi itself: lo + (steps-1) * step can round
    # past it, into the guard band when theta-hi is at its edge
    thetas = [
        args.theta_lo + i * (args.theta_hi - args.theta_lo) / (args.steps - 1)
        for i in range(args.steps - 1)
    ] + [args.theta_hi]
    if args.scheme:
        schemes = []
        for spec in args.scheme:
            try:
                a_text, b_text = spec.split(":")
            except ValueError as exc:
                raise _MatrixError(f"bad --scheme {spec!r} (want a1,..,a4:b1,..,b4)") from exc
            schemes.append(_scheme_from(args.k, a_text, b_text))
        n_schemes = len(schemes)
    else:
        if args.k < 1:
            raise _MatrixError(f"k must be a positive integer, got {args.k}")
        # the count enumerate_schemes yields, known before a scheme is built
        n_schemes = math.comb(args.k + 3, 3) ** 2
    if n_schemes * args.steps > 10_000_000:
        raise CapacityError(
            f"{n_schemes} schemes x {args.steps} steps exceeds the 10^7 sweep cap"
        )
    if not args.scheme:
        schemes = list(enumerate_schemes(args.k))
    cfg = _solver_config(args)
    couplings = [Coupling.from_theta(theta) for theta in thetas]
    # one payload per distinct reduction, in order of first appearance
    groups: dict = {}
    for i, m in enumerate(schemes):
        groups.setdefault(reduce_scheme(m).abcd, []).append(i)
    payloads = [
        (args.k, [(schemes[i].a, schemes[i].b) for i in members], thetas, couplings, cfg)
        for members in groups.values()
    ]
    jobs = args.jobs if args.jobs else (os.cpu_count() or 1)
    if jobs > 1 and len(payloads) > 1:
        # imported here: multiprocessing adds 2 MB to every process that
        # loads it, and only a parallel sweep needs it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            grouped = list(pool.map(_sweep_rows, payloads))
    else:
        grouped = [_sweep_rows(p) for p in payloads]
    results: list = [None] * len(schemes)
    for members, group_results in zip(groups.values(), grouped):
        for i, result in zip(members, group_results):
            results[i] = result
    lines = ["# schema=1", SWEEP_COLUMNS]
    warn_entries: list[dict] = []
    for rows, warns in results:
        lines.extend(rows)
        warn_entries.extend(warns)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    sidecar = {
        "schema": 1,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "grid_points": cfg.grid_points,
        "warnings": warn_entries,
    }
    with open(args.out + ".sidecar.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    theta = _parse_theta(args.theta)
    coupling = Coupling.from_theta(theta)
    if args.assignment:
        try:
            with open(args.assignment, "r", encoding="utf-8") as fh:
                assignment = parse_assignment(fh.read())
        except ValueError as exc:  # also text that is not UTF-8
            raise _MatrixError(f"bad assignment file: {exc}") from exc
        tree = assignment.tree
        n = tree.depth
        if n < 1:
            raise _MatrixError("assignment tree must have depth >= 1")
        chosen = assignment.values
    else:
        if args.k is None or args.a is None or args.b is None:
            raise _MatrixError("verify needs --k/--a/--b (or --assignment)")
        m = _scheme_from(args.k, args.a, args.b)
        n = args.depth
        if n < 1:
            raise _MatrixError("depth must be >= 1")
        tree = build_tree(args.k, n)
        r = reduce_scheme(m)
        solutions = solve_system(r, theta, _solver_config(args))
        if not (0 <= args.solution_index < len(solutions)):
            raise _MatrixError(
                f"solution index {args.solution_index} out of range "
                f"(found {len(solutions)} solutions)"
            )
        chosen = solutions.solutions[args.solution_index]
        if args.override_h is not None or args.override_l is not None:
            try:
                chosen = FieldPair(
                    chosen.h if args.override_h is None else args.override_h,
                    chosen.l if args.override_l is None else args.override_l,
                )
            except ValueError as exc:
                raise _MatrixError(f"bad override: {exc}") from exc
        root_label = FieldLabel(args.root_label)
        assignment = assign_fields(tree, m, root_label, chosen)
    # the oracle cap is what limits depth here, surfaced as exit 5
    mu_n = finite_volume_measure(tree, assignment, coupling, n)
    mu_prev = finite_volume_measure(tree, assignment, coupling, n - 1)
    compat = verify_compatibility(assignment, theta, COMPAT_TOL)
    kol = check_kolmogorov(mu_n, mu_prev)
    ratio = root_marginal_ratio(mu_n)
    expected_ratio = math.exp(-2.0 * numeric_field(assignment, 0))
    ratio_dev = abs(ratio - expected_ratio)
    ratio_tol = ROOT_RATIO_TOL * max(1.0, expected_ratio)
    ratio_ok = ratio_dev < ratio_tol
    if args.export_assignment:
        with open(args.export_assignment, "w", encoding="utf-8", newline="") as fh:
            fh.write(export_assignment(assignment))
    all_ok = compat.passed and kol.passed and ratio_ok
    payload = {
        "solution": {"h": chosen.h, "l": chosen.l},
        "compatibility": {
            "max_residual": compat.max_residual,
            "worst_vertex": compat.worst_vertex,
            "tol": COMPAT_TOL,
            "pass": compat.passed,
        },
        "kolmogorov": {
            "max_discrepancy": kol.max_discrepancy,
            "tol": kol.tol,
            "pass": kol.passed,
        },
        "root_ratio": {
            "observed": ratio,
            "expected": expected_ratio,
            "deviation": ratio_dev,
            "tol": ratio_tol,
            "pass": ratio_ok,
        },
        "pass": all_ok,
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def _add_solver_flags(sub) -> None:
    sub.add_argument("--grid-points", dest="grid_points", type=int)
    sub.add_argument("--bisect-tol", dest="bisect_tol", type=float)
    sub.add_argument("--residual-tol", dest="residual_tol", type=float)
    sub.add_argument("--dedup-tol", dest="dedup_tol", type=float)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.  Sharing it is
    safe: ``parse_args`` leaves it unchanged and returns a fresh namespace,
    and help is laid out to the terminal width when it is printed."""
    parser = argparse.ArgumentParser(
        prog="treegibbs",
        description="Four-valued boundary-field Gibbs measures on Cayley trees",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_solve = subs.add_parser("solve", help="solve one scheme at one theta")
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument("--a", required=True, help="a1,a2,a3,a4")
    p_solve.add_argument("--b", required=True, help="b1,b2,b3,b4")
    p_solve.add_argument("--theta", required=True)
    _add_solver_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_classify = subs.add_parser("classify", help="measure family of one scheme")
    p_classify.add_argument("--k", type=int, required=True)
    p_classify.add_argument("--a", required=True)
    p_classify.add_argument("--b", required=True)
    p_classify.add_argument("--h", dest="field_h", type=float, default=0.0)
    p_classify.add_argument("--l", dest="field_l", type=float, default=0.0)
    p_classify.set_defaults(func=_cmd_classify)

    p_enum = subs.add_parser("enumerate", help="CSV of all schemes for a k")
    p_enum.add_argument("--k", type=int, required=True)
    p_enum.add_argument("--out")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_sweep = subs.add_parser("sweep", help="scheme x theta grid to CSV")
    p_sweep.add_argument("--k", type=int, required=True)
    p_sweep.add_argument("--theta-lo", dest="theta_lo", type=float, required=True)
    p_sweep.add_argument("--theta-hi", dest="theta_hi", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument(
        "--scheme", action="append",
        help="a1,a2,a3,a4:b1,b2,b3,b4 (repeatable; default all schemes)",
    )
    p_sweep.add_argument("--jobs", type=int, default=0, help="0 = all cores")
    _add_solver_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = subs.add_parser(
        "verify", help="brute-force finite-volume checks of one instance"
    )
    p_verify.add_argument("--k", type=int)
    p_verify.add_argument("--a")
    p_verify.add_argument("--b")
    p_verify.add_argument("--theta", required=True)
    p_verify.add_argument("--depth", type=int, default=3)
    p_verify.add_argument("--solution-index", dest="solution_index", type=int, default=0)
    p_verify.add_argument(
        "--root-label", dest="root_label", default="+H",
        choices=[lab.value for lab in FieldLabel],
        help="root label; spell negative ones as --root-label=-H",
    )
    p_verify.add_argument("--override-h", dest="override_h", type=float)
    p_verify.add_argument("--override-l", dest="override_l", type=float)
    p_verify.add_argument("--export-assignment", dest="export_assignment")
    p_verify.add_argument("--assignment", help="verify a serialized assignment instead")
    _add_solver_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _MatrixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_MATRIX
    except _ThetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_THETA
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
