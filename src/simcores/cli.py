"""Command-line front end: construction, enumeration, verification, diagrams.

Exit codes: 0 success, 1 usage or precondition error, 2 a verification
found a counterexample or an oracle-check mismatch (an internal invariant
that failed counts as one).  Unbounded integers (counts, totals,
coefficients) are emitted as decimal strings in JSON, at any length.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import EnumerationCapError, InvariantError, SimcoresError
from .partitions import Partition, render_ferrers
from .paths import (
    count_gd,
    count_rect_paths,
    enumerate_gd,
    enumerate_rect_paths,
    svg_paths,
)
from .posets import LIST_CAP, build_gap_poset, ideal_to_core, multi_catalan
from .verify import (
    check_catalan_identity_range,
    check_conjecture_range,
    check_gf_range,
    check_motzkin_range,
    check_popoviciu_range,
    check_symmetry_range,
    equinumerosity_suite,
    qdet_coarea,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage problems exit 1; code 2 is reserved for counterexamples
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _gens_arg(text: str) -> tuple[int, ...]:
    try:
        gens = tuple(sorted(set(int(part) for part in text.split(","))))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not gens or gens[0] < 1:
        raise argparse.ArgumentTypeError("generators must be integers >= 1")
    return gens


def _int_at_least(text: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _shape_arg(text: str) -> Partition:
    try:
        return Partition(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> _Parser:
    parser = _Parser(prog="simcores", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    p_poset = sub.add_parser("poset", help="gaps and covers of the generator poset")
    p_poset.add_argument("--gens", type=_gens_arg, required=True)
    p_poset.add_argument("--format", choices=("plain", "json", "dot"), default="plain")
    p_poset.add_argument("--reduce", action="store_true", help="transitively reduce DOT edges")
    p_poset.set_defaults(func=cmd_poset)

    p_ideals = sub.add_parser("ideals", help="lower ideals of the generator poset")
    p_ideals.add_argument("--gens", type=_gens_arg, required=True)
    p_ideals.add_argument("--count-only", action="store_true")
    p_ideals.add_argument("--list", action="store_true", dest="list_items")
    p_ideals.add_argument("--format", choices=("plain", "json"), default="plain")
    p_ideals.add_argument("--max-items", type=_positive_int, default=None)
    p_ideals.add_argument("--from-file", default=None, help="re-check a previous JSON listing")
    p_ideals.set_defaults(func=cmd_ideals)

    p_cores = sub.add_parser("cores", help="simultaneous cores via the hook-set bijection")
    p_cores.add_argument("--gens", type=_gens_arg, required=True)
    p_cores.add_argument("--count-only", action="store_true")
    p_cores.add_argument("--list", action="store_true", dest="list_items")
    p_cores.add_argument("--total-size", action="store_true")
    p_cores.add_argument("--format", choices=("plain", "json"), default="plain")
    p_cores.add_argument("--max-items", type=_positive_int, default=None)
    p_cores.add_argument("--from-file", default=None)
    p_cores.set_defaults(func=cmd_cores)

    p_paths = sub.add_parser("paths", help="lattice paths")
    paths_sub = p_paths.add_subparsers(dest="path_kind")
    p_rect = paths_sub.add_parser("rect", help="N/E paths above the rectangle diagonal")
    p_rect.add_argument("--s", type=_positive_int, required=True)
    p_rect.add_argument("--t", type=_positive_int, required=True)
    p_gd = paths_sub.add_parser("gd", help="generalized paths with jump-k steps")
    p_gd.add_argument("--n", type=_positive_int, required=True)
    p_gd.add_argument("--k", type=_positive_int, required=True)
    for sp, fn in ((p_rect, cmd_paths_rect), (p_gd, cmd_paths_gd)):
        sp.add_argument("--count-only", action="store_true")
        sp.add_argument("--list", action="store_true", dest="list_items")
        sp.add_argument("--svg", default=None, help="write all paths as SVG panels to FILE")
        sp.add_argument("--labels", action="store_true",
                        help="print diagonal cell labels in the SVG (gd only)")
        sp.add_argument("--format", choices=("plain", "json"), default="plain")
        sp.add_argument("--max-items", type=_positive_int, default=None)
        sp.add_argument("--from-file", default=None)
        sp.set_defaults(func=fn)

    p_count = sub.add_parser("count", help="closed-form counts")
    count_sub = p_count.add_subparsers(dest="count_kind")
    p_mc = count_sub.add_parser("multi-catalan", help="lower ideals of a consecutive-run poset")
    p_mc.add_argument("--s", type=_non_negative_int, required=True)
    p_mc.add_argument("--p", type=_positive_int, required=True)
    p_mc.set_defaults(func=cmd_count_multi_catalan)
    p_cr = count_sub.add_parser("rect", help="cycle-lemma rectangle path count")
    p_cr.add_argument("--s", type=_positive_int, required=True)
    p_cr.add_argument("--t", type=_positive_int, required=True)
    p_cr.set_defaults(func=cmd_count_rect)

    p_qdet = sub.add_parser("qdet", help="coarea polynomial of a shape, by q-determinant")
    p_qdet.add_argument("--shape", type=_shape_arg, required=True)
    p_qdet.add_argument("--format", choices=("plain", "json"), default="plain")
    p_qdet.set_defaults(func=cmd_qdet)

    p_diag = sub.add_parser("diagram", help="Ferrers diagram of a shape")
    p_diag.add_argument("--shape", type=_shape_arg, required=True)
    p_diag.add_argument("--hooks", action="store_true")
    p_diag.add_argument("--orientation", choices=("french", "english"), default="french")
    p_diag.set_defaults(func=cmd_diagram)

    p_verify = sub.add_parser("verify", help="run statement checks against their oracles")
    p_verify.add_argument(
        "which",
        choices=("all", "symmetry", "popoviciu", "identity", "motzkin", "gf",
                 "conjecture", "equinumerous"),
    )
    p_verify.add_argument("--min-s", type=int, default=3)
    p_verify.add_argument("--max-s", type=int, default=None)
    # the alternating Catalan identity starts at n = 2
    p_verify.add_argument("--max-n", type=lambda text: _int_at_least(text, 2), default=30)
    p_verify.add_argument("--max-t", type=_positive_int, default=12)
    p_verify.add_argument("--max-p", type=_positive_int, default=3)
    p_verify.add_argument("--terms", type=_positive_int, default=20)
    p_verify.add_argument("--max-sum", type=_positive_int, default=16)
    p_verify.add_argument("--max-path-n", type=_positive_int, default=8)
    p_verify.add_argument("--max-k", type=_positive_int, default=3)
    p_verify.add_argument("--jobs", type=_positive_int, default=1)
    p_verify.add_argument("--format", choices=("plain", "json"), default="plain")
    p_verify.set_defaults(func=cmd_verify)

    return parser


# ---------------------------------------------------------------------------


def cmd_poset(args) -> int:
    poset = build_gap_poset(args.gens)
    if args.format == "dot":
        print(poset.to_dot(transitive_reduce=args.reduce))
    elif args.format == "json":
        print(json.dumps(poset.to_json_dict()))
    else:
        print(f"generators: {', '.join(map(str, poset.generators))}")
        print(f"gaps ({len(poset.gaps)}): {', '.join(map(str, poset.gaps))}")
        print(f"covers ({len(poset.covers)}):")
        for a, b in poset.covers:
            print(f"  {a} > {b}")
    return 0


def _list_cap(args) -> int:
    return LIST_CAP if args.max_items is None else args.max_items


def _print_count(args, count: int, what: str, params: dict) -> int:
    # --max-items N caps what is counted exactly as it caps what is listed
    if args.max_items is not None and count > args.max_items:
        raise EnumerationCapError(what, args.max_items)
    print(json.dumps(dict(params, count=str(count))) if args.format == "json" else count)
    return 0


def _count_ideals(args, poset) -> int:
    # ideals and cores alike: the DP counts without enumerating, under its fixed state cap
    return _print_count(args, poset.count_lower_ideals(),
                        f"lower ideals of P_{list(poset.generators)}",
                        {"generators": list(poset.generators)})


def _ideal_listing(poset, args) -> list[list[int]]:
    return [sorted(ideal) for ideal in poset.iter_lower_ideals(_list_cap(args))]


def cmd_ideals(args) -> int:
    poset = build_gap_poset(args.gens)
    if args.from_file:
        recorded = _load_json(args.from_file)
        ideals = _ideal_listing(poset, args)
        fresh = {
            "generators": list(poset.generators),
            "count": str(len(ideals)),
            "ideals": ideals,
        }
        return _report_roundtrip("ideals", recorded, fresh)
    if args.count_only:
        return _count_ideals(args, poset)
    ideals = _ideal_listing(poset, args)
    if args.format == "json":
        payload = {"generators": list(poset.generators), "count": str(len(ideals))}
        if args.list_items:
            payload["ideals"] = ideals
        print(json.dumps(payload))
    else:
        print(f"{len(ideals)} lower ideals")
        if args.list_items:
            for ideal in ideals:
                print("{" + ", ".join(map(str, ideal)) + "}")
    return 0


def cmd_cores(args) -> int:
    poset = build_gap_poset(args.gens)
    if args.count_only and not args.from_file:
        return _count_ideals(args, poset)
    cores = [ideal_to_core(poset, ideal) for ideal in poset.iter_lower_ideals(_list_cap(args))]
    if args.from_file:
        recorded = _load_json(args.from_file)
        fresh = {
            "generators": list(poset.generators),
            "count": str(len(cores)),
            "cores": [c.to_json() for c in cores],
        }
        return _report_roundtrip("cores", recorded, fresh)
    total = sum(c.size for c in cores)
    if args.format == "json":
        payload = {"generators": list(poset.generators), "count": str(len(cores))}
        if args.total_size:
            payload["total_size"] = str(total)
        if args.list_items:
            payload["cores"] = [c.to_json() for c in cores]
        print(json.dumps(payload))
        return 0
    print(f"{len(cores)} simultaneous cores")
    if args.total_size:
        print(f"total size: {total}")
    if args.list_items:
        for c in cores:
            print("()" if not c.parts else "(" + ", ".join(map(str, c.parts)) + ")")
    return 0


def _emit_paths(args, kind: str, count_fn, enum_fn, params: dict) -> int:
    cap = _list_cap(args)
    if args.from_file:
        recorded = _load_json(args.from_file)
        fresh = dict(params)
        fresh["paths"] = [p.to_json() for p in enum_fn(cap)]
        fresh["count"] = str(len(fresh["paths"]))
        return _report_roundtrip(kind, recorded, fresh)
    if args.count_only:
        what = f"{kind} for " + ", ".join(f"{key}={value}" for key, value in params.items())
        return _print_count(args, count_fn(), what, params)
    paths = list(enum_fn(cap))
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(svg_paths(paths, labels=args.labels))
        print(f"wrote {len(paths)} paths to {args.svg}")
        return 0
    if args.format == "json":
        payload = dict(params, count=str(len(paths)))
        if args.list_items:
            payload["paths"] = [p.to_json() for p in paths]
        print(json.dumps(payload))
    else:
        print(f"{len(paths)} paths")
        if args.list_items:
            for p in paths:
                print(" ".join(p.steps))
    return 0


def cmd_paths_rect(args) -> int:
    return _emit_paths(
        args, "rect paths",
        lambda: count_rect_paths(args.s, args.t),
        lambda cap: enumerate_rect_paths(args.s, args.t, max_items=cap),
        {"s": args.s, "t": args.t},
    )


def cmd_paths_gd(args) -> int:
    return _emit_paths(
        args, "generalized paths",
        lambda: count_gd(args.n, args.k),
        lambda cap: enumerate_gd(args.n, args.k, max_items=cap),
        {"n": args.n, "k": args.k},
    )


def cmd_count_multi_catalan(args) -> int:
    print(multi_catalan(args.s, args.p))
    return 0


def cmd_count_rect(args) -> int:
    print(count_rect_paths(args.s, args.t))
    return 0


def cmd_qdet(args) -> int:
    poly = qdet_coarea(args.shape)
    if args.format == "json":
        print(json.dumps({
            "shape": args.shape.to_json(),
            "coefficients": [str(c) for c in poly.coeffs],
        }))
    else:
        print(poly)
        print(f"coefficients: {list(poly.coeffs)}")
    return 0


def cmd_diagram(args) -> int:
    print(render_ferrers(args.shape, hooks=args.hooks, orientation=args.orientation))
    return 0


def cmd_verify(args) -> int:
    def max_s(default: int) -> int:
        return default if args.max_s is None else args.max_s

    runners = {
        "symmetry": lambda: check_symmetry_range(args.min_s, max_s(25), jobs=args.jobs),
        "popoviciu": lambda: check_popoviciu_range(args.max_t, jobs=args.jobs),
        "identity": lambda: check_catalan_identity_range(args.max_n, jobs=args.jobs),
        "motzkin": lambda: check_motzkin_range(max_s(20), jobs=args.jobs),
        "gf": lambda: check_gf_range(args.max_p, args.terms, jobs=args.jobs),
        "conjecture": lambda: check_conjecture_range(args.min_s, max_s(10), jobs=args.jobs),
        "equinumerous": lambda: equinumerosity_suite(
            args.max_sum, args.max_path_n, args.max_k, jobs=args.jobs),
    }
    # "all" runs every runner in table order, each under the given range flags
    chosen = runners.values() if args.which == "all" else [runners[args.which]]
    reports = [run() for run in chosen]
    if args.format == "json":
        print(json.dumps([r.to_json_dict() for r in reports]))
    else:
        for r in reports:
            print(r.summary())
            for note in r.notes:
                print(f"  {note}")
    return 0 if all(r.passed for r in reports) else 2


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _report_roundtrip(kind: str, recorded, fresh) -> int:
    # every canonical field must match; extra recorded keys are fine
    if isinstance(recorded, dict) and all(recorded.get(k) == v for k, v in fresh.items()):
        print(f"{kind}: file matches a fresh enumeration")
        return 0
    print(f"{kind}: file does NOT match a fresh enumeration", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # Python >= 3.11 caps int -> str at 4300 digits
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"simcores: internal invariant failed: {exc}", file=sys.stderr)
        return 2
    except (SimcoresError, ValueError, OSError) as exc:
        print(f"simcores: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
