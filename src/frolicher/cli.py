"""Command-line front end.

Exit codes: 0 success, 1 domain error (validation failure, inadmissible
parameters, inference or verification mismatch) with the report on stderr,
2 I/O, parse or argument error.  Numeric arguments have upper bounds, so
that no argument can ask for an unbounded allocation, and no error or
report repeats an unbounded number.  A legal document is bounded in size,
not in time: see the ``pages --method`` help.  The five ``s6`` parameters
are at most ``serialize.MAX_SIZE``: a model's total dimension is
2 + 8 (h10 + h02 + h11 + beta) + 16 alpha, so a larger parameter has no
model that ``realize`` or ``verify`` would build.  Tables render with p
increasing left to right and q increasing bottom to top.
"""

import argparse
import re
import sys

from . import serialize
from .bicomplex import InvalidComplexError, validate
from .cohomology import (aeppli, arithmetic_genus, bott_chern, de_rham,
                         dolbeault, row_cohomology)
from .s6 import (GRID, DiamondParams, InadmissibleParamsError,
                 InferenceMismatchError, check_constraints,
                 compute_model_tables, enumerate_diamonds, infer_params,
                 model_mismatches, model_multiset, predicted_tables)
from .serialize import ParseError
from .spectral import (degeneration_page, pages_explicit, pages_filtration,
                       stable_page_index)
from .zigzag import (GridError, ShapeError, canonicalize_shape,
                     contribution_profile, synthesize)

DOMAIN_ERRORS = (InvalidComplexError, InadmissibleParamsError,
                 InferenceMismatchError, ShapeError, GridError)

# Largest ``s6 enumerate --bound``: the box [0, B]^5 holds (B + 1)^5 tuples,
# 161,051 at B = 10, enumerated in about 1.3 s (2-core Xeon, Python 3.11).
MAX_BOUND = 10


def render_grid(grid):
    """Rows q_max down to 0, columns p = 0 .. p_max."""
    pn, qn = grid.shape
    cells = [[str(int(grid[p, q])) for p in range(pn)] for q in range(qn)]
    width = max(4, max(len(c) for row in cells for c in row) + 1,
                len(f"p={pn - 1}") + 1)
    lines = []
    for q in range(qn - 1, -1, -1):
        lines.append(f"q={q} |" + "".join(c.rjust(width) for c in cells[q]))
    lines.append("    +" + "-" * (width * pn))
    lines.append("     " + "".join(f"p={p}".rjust(width) for p in range(pn)))
    return "\n".join(lines)


def _print_tables(named):
    """Each ``(name, table)`` as a ``name:`` line and its grid."""
    for name, table in named:
        print(f"{name}:")
        print(render_grid(table.grid))


def _load_complex(path):
    with open(path, "rb") as fh:
        return serialize.json_to_complex(fh.read())


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_validate(args):
    K = _load_complex(args.file)
    report = validate(K)
    if report:
        for violation in report:
            print(violation, file=sys.stderr)
        return 1
    print("valid")
    return 0


def cmd_cohomology(args):
    K = _load_complex(args.file)
    theory = args.theory
    if theory == "derham":
        print("b_k:", *de_rham(K).b)
    elif theory == "genus":
        print(arithmetic_genus(K))
    else:
        table = {"dolbeault": dolbeault, "row": row_cohomology,
                 "bc": bott_chern, "aeppli": aeppli}[theory](K)
        _print_tables([(table.theory, table)])
    return 0


def cmd_pages(args):
    K = _load_complex(args.file)
    r_max = args.max if args.max is not None else stable_page_index(K)
    if args.method in ("filtration", "both"):
        tables = pages_filtration(K, r_max)
    else:
        tables = pages_explicit(K, r_max)
    if args.method == "both":
        other = pages_explicit(K, r_max)
        for a, b in zip(tables, other):
            if a.grid != b.grid:
                print(f"page {a.r}: filtration and explicit methods disagree",
                      file=sys.stderr)
                print(render_grid(a.grid), file=sys.stderr)
                print(render_grid(b.grid), file=sys.stderr)
                return 1
        print(f"methods agree on pages 1..{r_max}")
    _print_tables((f"E_{t.r}", t) for t in tables)
    return 0


def cmd_degeneration(args):
    K = _load_complex(args.file)
    print(degeneration_page(K))
    return 0


def cmd_zigzag_profile(args):
    grid = tuple(args.grid)
    shape = canonicalize_shape(serialize.parse_dot_list(args.dots))
    prof = contribution_profile(shape, grid)
    print(f"shape: {shape}")
    _print_tables([*((f"E_{t.r}", t) for t in prof.pages),
                   ("dolbeault", prof.dolbeault), ("row", prof.row),
                   ("bott_chern", prof.bott_chern), ("aeppli", prof.aeppli)])
    print("b_k:", *prof.de_rham.b)
    return 0


def cmd_zigzag_synth(args):
    with open(args.file, "rb") as fh:
        multiset, grid = serialize.json_to_multiset(fh.read())
    K = synthesize(multiset, grid)
    _write(args.output, serialize.complex_to_json(K))
    print(f"wrote {args.output}")
    return 0


def _params(args):
    return DiamondParams(args.h10, args.h02, args.h11, args.alpha, args.beta)


def _model(args):
    """The diamond of ``args``, its multiset and its model; exit 2 if too big.

    The model's total dimension is mult x dots summed over its multiset,
    the size that ``serialize.MAX_SIZE`` bounds in a multiset document; it
    is checked before anything is synthesized.
    """
    d = _params(args)
    multiset = model_multiset(d)
    size = sum(m * len(s) for s, m in multiset.items())
    if size > serialize.MAX_SIZE:
        args.parser.error(f"the model of {d} has total dimension {size}; "
                          f"at most {serialize.MAX_SIZE} is allowed")
    return d, multiset, synthesize(multiset, GRID)


def cmd_s6_check(args):
    report = check_constraints(_params(args), assume_a0=args.assume_a0)
    if not report.all_hold:
        print(report, file=sys.stderr)
        return 1
    print(report, "admissible", sep="\n")
    return 0


def cmd_s6_enumerate(args):
    diamonds = enumerate_diamonds(args.bound, assume_a0=args.assume_a0,
                                  h11_zero_only=args.h11_zero)
    row = "{:>4} {:>4} {:>4} {:>6} {:>5}"
    if args.format == "table":
        print(row.format("h10", "h02", "h11", "alpha", "beta"))
    for d in diamonds:
        print(row.format(*d.as_tuple()) if args.format == "table" else d)
    return 0


def cmd_s6_realize(args):
    K = _model(args)[2]
    _write(args.output, serialize.complex_to_json(K))
    print(f"wrote {args.output}")
    return 0


def cmd_s6_predict(args):
    pred = predicted_tables(_params(args))
    _print_tables([("E1", pred.e1), ("E2", pred.e2),
                   ("E_r (r >= 3)", pred.e3plus),
                   ("bott_chern", pred.bott_chern), ("aeppli", pred.aeppli)])
    print("b_k:", *pred.betti.b)
    return 0


def cmd_s6_infer(args):
    K = _load_complex(args.file)
    pages = pages_filtration(K, 2)
    d = infer_params(pages[0], pages[1])
    print(d)
    return 0


def cmd_s6_verify(args):
    d, multiset, K = _model(args)
    mismatches = model_mismatches(d, compute_model_tables(K))
    if mismatches:
        for line in mismatches:
            print(line, file=sys.stderr)
        return 1
    print(f"verified {d}: all tables match predictions "
          f"({sum(multiset.values())} zigzag summands)")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="frolicher",
        description="Exact cohomology and spectral-sequence engine for "
                    "bounded double complexes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the double complex axioms")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("cohomology", help="one cohomology table")
    p.add_argument("file")
    p.add_argument("--theory", required=True,
                   choices=["dolbeault", "row", "derham", "bc", "aeppli",
                            "genus"])
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("pages", help="spectral sequence pages")
    p.add_argument("file")
    p.add_argument("--max", type=_int_arg(serialize.MAX_SIZE, low=1),
                   help=f"last page (at most {serialize.MAX_SIZE}; default "
                        "the stable page)")
    p.add_argument("--method", default="filtration",
                   choices=["filtration", "explicit", "both"],
                   help="filtration (default): one persistence reduction "
                        "per total degree; explicit: one small system per "
                        "spot and page, an independent check; both: run the "
                        "two and compare them.  Time on a dense document "
                        "grows faster than cubically: about 4 s with either "
                        "method at total dimension 400 (2-core Xeon), and "
                        f"the size bound {serialize.MAX_SIZE} does not bound "
                        "the time")
    p.set_defaults(func=cmd_pages)

    p = sub.add_parser("degeneration", help="first stable page index")
    p.add_argument("file")
    p.set_defaults(func=cmd_degeneration)

    zz = sub.add_parser("zigzag", help="zigzag shape tools")
    zzsub = zz.add_subparsers(dest="zigzag_command", required=True)
    p = zzsub.add_parser("profile", help="contribution profile of one shape")
    p.add_argument("--dots", required=True,
                   help='shape as "(p,q),(p,q),..."')
    p.add_argument("--grid", type=_grid_arg, default=(3, 3),
                   help="P,Q grid bounds (default 3,3)")
    p.set_defaults(func=cmd_zigzag_profile)
    p = zzsub.add_parser("synth", help="synthesize a multiset file")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_zigzag_synth)

    s6p = sub.add_parser("s6", help="six-sphere diamond tools")
    s6sub = s6p.add_subparsers(dest="s6_command", required=True)

    def add_params(q):
        bounded = _int_arg(serialize.MAX_SIZE, low=0)
        for name in ("h10", "h02", "h11", "alpha", "beta"):
            q.add_argument(f"--{name}", type=bounded, required=True)
        q.set_defaults(parser=q)

    p = s6sub.add_parser("check", help="constraint report for one tuple")
    add_params(p)
    p.add_argument("--assume-a0", action="store_true", dest="assume_a0")
    p.set_defaults(func=cmd_s6_check)

    p = s6sub.add_parser("enumerate", help="admissible tuples in a box")
    p.add_argument("--bound", type=_int_arg(MAX_BOUND, low=0), required=True,
                   help=f"box [0, B]^5, B at most {MAX_BOUND}")
    p.add_argument("--assume-a0", action="store_true", dest="assume_a0")
    p.add_argument("--h11-zero", action="store_true", dest="h11_zero")
    p.add_argument("--format", default="lines", choices=["table", "lines"])
    p.set_defaults(func=cmd_s6_enumerate)

    p = s6sub.add_parser("realize", help="write the model complex")
    add_params(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_s6_realize)

    p = s6sub.add_parser("predict", help="closed-form tables")
    add_params(p)
    p.set_defaults(func=cmd_s6_predict)

    p = s6sub.add_parser("infer", help="read parameters off a complex")
    p.add_argument("file")
    p.set_defaults(func=cmd_s6_infer)

    p = s6sub.add_parser("verify", help="realize, compute, diff predictions")
    add_params(p)
    p.set_defaults(func=cmd_s6_verify)

    return parser


def _int_arg(high=None, low=None):
    """An argparse type: an integer at most ``high`` and at least ``low``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r:.40}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}")
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value
    return parse


def _grid_arg(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("grid must be P,Q")
    p, q = map(_int_arg(low=0), parts)
    if (p + 1) * (q + 1) > serialize.MAX_SIZE:
        raise argparse.ArgumentTypeError(
            f"the grid must have at most {serialize.MAX_SIZE} spots")
    return p, q


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, *DOMAIN_ERRORS) as exc:
        # A number longer than 40 digits is cut, as the parse errors cut
        # their excerpts, so that no input is echoed unbounded.
        print("error:", re.sub(r"\d{41,}", lambda m: m[0][:40] + "...",
                               str(exc)), file=sys.stderr)
        if isinstance(exc, InadmissibleParamsError):
            print(exc.report, file=sys.stderr)
        return 1 if isinstance(exc, DOMAIN_ERRORS) else 2


if __name__ == "__main__":
    sys.exit(main())
