"""Command-line front end: construction, enumeration, verification, diagrams.

Exit codes: 0 success, 1 usage or precondition error (running out of
memory counts as one), 2 a verification found a counterexample or an
oracle-check mismatch (an internal invariant that failed counts as one).
Unbounded integers (counts, totals, coefficients) are emitted as decimal
strings in JSON, at any length.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import InvariantError, SimcoresError, check_cap
from .partitions import Partition, render_ferrers
from .paths import (
    count_gd,
    count_rect_paths,
    enumerate_gd,
    enumerate_rect_paths,
    gd_paths_name,
    rect_paths_name,
    svg_paths,
)
from .posets import LIST_CAP, build_gap_poset, multi_catalan
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
    p_poset.set_defaults(func=cmd_poset)

    p_ideals = sub.add_parser("ideals", help="lower ideals of the generator poset")
    p_ideals.add_argument("--gens", type=_gens_arg, required=True)
    p_ideals.set_defaults(func=cmd_ideals)

    p_cores = sub.add_parser("cores", help="simultaneous cores via the hook-set bijection")
    p_cores.add_argument("--gens", type=_gens_arg, required=True)
    p_cores.add_argument("--total-size", action="store_true")
    p_cores.set_defaults(func=cmd_cores)

    p_paths = sub.add_parser("paths", help="lattice paths")
    paths_sub = p_paths.add_subparsers(dest="path_kind")
    p_rect = paths_sub.add_parser("rect", help="N/E paths above the rectangle diagonal")
    p_rect.add_argument("--s", type=_positive_int, required=True)
    p_rect.add_argument("--t", type=_positive_int, required=True)
    p_rect.set_defaults(func=cmd_paths_rect)
    p_gd = paths_sub.add_parser("gd", help="generalized paths with jump-k steps")
    p_gd.add_argument("--n", type=_positive_int, required=True)
    p_gd.add_argument("--k", type=_positive_int, required=True)
    p_gd.add_argument("--labels", action="store_true", help="print diagonal cell labels in the SVG")
    p_gd.set_defaults(func=cmd_paths_gd)
    for sp in (p_rect, p_gd):
        sp.add_argument("--svg", default=None, help="write all paths as SVG panels to FILE")
    # the flags of the one listing route, _listing
    for sp in (p_ideals, p_cores, p_rect, p_gd):
        sp.add_argument("--count-only", action="store_true")
        sp.add_argument("--list", action="store_true", dest="list_items")
        sp.add_argument("--format", choices=("plain", "json"), default="plain")
        sp.add_argument("--max-items", type=_positive_int, default=None)
        sp.add_argument("--from-file", default=None, help="re-check a previous JSON listing")

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
    # symmetry and conjecture both start at s = 3
    p_verify.add_argument("--min-s", type=lambda text: _int_at_least(text, 3), default=3)
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
        print(poset.to_dot())
    elif args.format == "json":
        print(json.dumps(poset.to_json_dict()))
    else:
        print(f"generators: {', '.join(map(str, poset.generators))}")
        print(f"gaps ({len(poset.gaps)}): {', '.join(map(str, poset.gaps))}")
        covers = poset.covers
        print(f"covers ({len(covers)}):")
        for a, b in covers:
            print(f"  {a} > {b}")
    return 0


def _listing(args, params: dict, count, enumerate_items, *, key: str, noun: str, kind: str,
             what, to_json, to_text, totals=lambda items: {}, write=None) -> int:
    """The count, list, JSON and round-trip route of every listing command.

    `--from-file` is read before any work, `--count-only` counts without
    enumerating, and anything else enumerates once.  Both routes take one
    cap, `--max-items N` or LIST_CAP without it: `enumerate_items(cap)`
    fails before any item once its count passes the cap, and `count(cap)`
    once it needs more counting states than the cap; the count it returns
    is compared with the cap only when `--max-items` is given.  Items are named `key` in JSON, `noun` in the
    count line, `kind` in the round-trip verdict and `what()` in the
    count's cap error; `count(cap)` returns (count, named totals), `totals(items)`
    adds the same named totals to a listing, and `write(items)`, when given,
    replaces the printed listing.
    """
    cap = LIST_CAP if args.max_items is None else args.max_items
    if args.from_file:
        with open(args.from_file) as fh:
            try:
                recorded = json.load(fh)
            except RecursionError:
                raise ValueError(f"{args.from_file}: JSON nested too deeply to read") from None
    elif args.count_only:
        n, extra = count(cap)
        check_cap(args.max_items, lambda: n, what)
        if args.format == "json":
            payload = dict(params, count=str(n))
            payload.update((name, str(value)) for name, value in extra.items())
            print(json.dumps(payload))
            return 0
        print(n)
        for name, value in extra.items():
            print(f"{name.replace('_', ' ')}: {value}")
        return 0
    items = list(enumerate_items(cap))
    payload = dict(params, count=str(len(items)))
    if args.from_file:
        # every canonical field must match; extra recorded keys are fine
        payload[key] = [to_json(item) for item in items]
        if isinstance(recorded, dict) and all(recorded.get(k) == v for k, v in payload.items()):
            print(f"{kind}: file matches a fresh enumeration")
            return 0
        print(f"{kind}: file does NOT match a fresh enumeration", file=sys.stderr)
        return 2
    if write is not None:
        return write(items)
    extra = totals(items)
    if args.format == "json":
        payload.update((name, str(value)) for name, value in extra.items())
        if args.list_items:
            payload[key] = [to_json(item) for item in items]
        print(json.dumps(payload))
        return 0
    print(f"{len(items)} {noun}")
    for name, value in extra.items():
        print(f"{name.replace('_', ' ')}: {value}")
    if args.list_items:
        for item in items:
            print(to_text(item))
    return 0


def cmd_ideals(args) -> int:
    poset = build_gap_poset(args.gens)
    return _listing(
        args, {"generators": list(poset.generators)}, lambda cap: (poset.count_lower_ideals(cap), {}),
        lambda cap: map(sorted, poset.iter_lower_ideals(cap)),
        key="ideals", noun="lower ideals", kind="ideals",
        what=poset.ideals_name,
        to_json=list, to_text=lambda ideal: "{" + ", ".join(map(str, ideal)) + "}",
    )


def cmd_cores(args) -> int:
    # counted (and, with --total-size, sized) by the lower-ideal DP, listed
    # through the hook-set bijection by GapPoset.iter_core_rows, which builds
    # each core's parts row by row on the ideal walk, so ideal_to_core's
    # re-check and sort are skipped
    poset = build_gap_poset(args.gens)

    def count(cap):
        if not args.total_size:
            return poset.count_lower_ideals(cap), {}
        n, total_size = poset.core_size_totals(cap)
        return n, {"total_size": total_size}

    return _listing(
        args, {"generators": list(poset.generators)}, count,
        lambda cap: (parts for parts, _, _ in poset.iter_core_rows(cap)),
        key="cores", noun="simultaneous cores", kind="cores",
        what=poset.ideals_name,
        to_json=list, to_text=lambda parts: "(" + ", ".join(map(str, parts)) + ")",
        totals=lambda cores: {"total_size": sum(map(sum, cores))} if args.total_size else {},
    )


def _svg_writer(path: str | None, labels: bool = False):
    def write(paths) -> int:
        with open(path, "w") as fh:
            fh.write(svg_paths(paths, labels=labels))
        print(f"wrote {len(paths)} paths to {path}")
        return 0
    return write if path else None


def cmd_paths_rect(args) -> int:
    return _listing(
        args, {"s": args.s, "t": args.t}, lambda cap: (count_rect_paths(args.s, args.t), {}),
        lambda cap: enumerate_rect_paths(args.s, args.t, max_items=cap),
        key="paths", noun="paths", kind="rect paths", what=lambda: rect_paths_name(args.s, args.t),
        to_json=lambda path: path.to_json(), to_text=lambda path: " ".join(path.steps),
        write=_svg_writer(args.svg),
    )


def cmd_paths_gd(args) -> int:
    return _listing(
        args, {"n": args.n, "k": args.k}, lambda cap: (count_gd(args.n, args.k), {}),
        lambda cap: enumerate_gd(args.n, args.k, max_items=cap),
        key="paths", noun="paths", kind="generalized paths",
        what=lambda: gd_paths_name(args.n, args.k),
        to_json=lambda path: path.to_json(), to_text=lambda path: " ".join(path.steps),
        write=_svg_writer(args.svg, labels=args.labels),
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
        "identity": lambda: check_catalan_identity_range(
            args.max_n, max_hessenberg=min(args.max_n, 12), jobs=args.jobs),
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


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # Python >= 3.11 caps int -> str at 4300 digits
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 1
    # a generator closed as a MemoryError unwinds can fail to close for want of
    # memory too; the one line below says so already
    hook = sys.unraisablehook
    sys.unraisablehook = lambda u: None if isinstance(u.exc_value, MemoryError) else hook(u)
    try:
        return args.func(args)
    except MemoryError:
        # first, because matching the tuple clause below allocates, which fails
        # with no memory left; reported after the handler, which lets go of the
        # frames that ran out
        pass
    except SystemError as exc:
        # CPython can lose a MemoryError while unwinding and raise this instead;
        # it is named as what it is, not as out of memory
        print(f"simcores: interpreter error: SystemError: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"simcores: internal invariant failed: {exc}", file=sys.stderr)
        return 2
    except (SimcoresError, ValueError, OSError) as exc:
        print(f"simcores: {exc}", file=sys.stderr)
        return 1
    finally:
        sys.unraisablehook = hook
    print("simcores: out of memory", file=sys.stderr)
    return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
