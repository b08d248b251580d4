"""Command-line interface.

Subcommands: theta, points, matrix, spectrum, tensor-check, count,
selftest.  Every command is deterministic; exit codes are 0 for
success/verified, 1 for a verification mismatch, 2 for usage or domain
errors, 3 when a size guardrail fires, 4 when the output cannot be
written (or another operating-system error).  The ZMSPEC_GUARDRAIL
environment variable (or --guardrail) overrides the default theta
limit of 5000.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from collections.abc import Callable, Iterable
from contextlib import contextmanager, nullcontext

from .counting import (BRUTE_LAYER_LIMIT, LayerSpec, count_2x2, count_2x2_brute, count_layer,
                       count_layer_brute, layer_scan_size)
from .errors import DomainError, GuardrailError
from .matrices import (
    ExactMatrix,
    apply_simultaneous_permutation,
    block_C,
    block_C_reference,
    build_A,
    build_B_analytic,
    build_B_product,
    crt_permutation,
    tensor_product,
    to_csv,
    to_json,
    to_matrix_market,
    to_table,
)
from .projective import (
    ProjectiveSpace,
    canonical_rep,
    enumerate_space,
    k_partition,
    orbit_size,
    point_label,
    points_to_csv,
    theta,
)
from .modular import euler_phi
from .spectrum import (
    eigenbasis_nullities,
    eigvec_family_general,
    spectrum_general,
    verify_spectrum,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_GUARDRAIL = 3
EXIT_IO = 4


def _validate(n: int, m: int, guardrail: int | None = None, flag: str = "-m") -> None:
    """Reject the common knobs of a command that are out of range; ``flag``
    names the option that gave the modulus."""
    if n < 2:
        raise DomainError(f"-n must be >= 2, got {n}")
    if m < 2:
        raise DomainError(f"{flag} must be >= 2, got {m}")
    if guardrail is not None and guardrail <= 0:
        raise DomainError("--guardrail must be positive")


def _emit(text: str, output: str | None) -> None:
    """Write ``text`` to stdout or the output file, then a newline if it
    lacks one: a second write, as appending would copy the whole text."""
    with open(output, "w", encoding="utf-8") if output else nullcontext(sys.stdout) as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def _too_long(digits: int) -> DomainError:
    return DomainError(f"more than {digits} digits to print")


@contextmanager
def _printable():
    """Refuse, as a domain error, output holding an integer with more
    digits than the interpreter converts to decimal.  The limit stays in
    place: the conversion takes quadratic time in the digit count."""
    try:
        yield
    except ValueError as exc:
        raise _too_long(sys.get_int_max_str_digits()) from exc


def _refuse_unprintable(m: int, power: int) -> None:
    """Refuse up front, as ``_printable`` would after the work, output that
    holds an integer of at least m^power.  That integer has at least
    floor(power * log10(m)) + 1 digits, more than the limit once
    power * log10(m) reaches it; the float estimate is lowered by a
    margin far above its rounding error, so it stays a lower bound.  What
    this cannot rule out is computed and left to ``_printable``."""
    limit = sys.get_int_max_str_digits()
    if limit and power * math.log10(m) * (1 - 1e-9) >= limit:
        raise _too_long(limit)


def cmd_theta(args: argparse.Namespace) -> int:
    _validate(args.n, args.m)
    _refuse_unprintable(args.m, args.n - 1)  # theta(n, m) >= m^(n-1)
    with _printable():
        text = str(theta(args.n, args.m))
    _emit(text, None)
    return EXIT_OK


def cmd_points(args: argparse.Namespace) -> int:
    _validate(args.n, args.m, args.guardrail)
    space = enumerate_space(args.n, args.m, args.ordering, guardrail=args.guardrail)
    if args.format == "csv":
        text = points_to_csv(space)
    elif args.format == "json":
        text = json.dumps(
            {
                "n": args.n,
                "m": args.m,
                "theta": len(space),
                "ordering": args.ordering,
                "points": space.coords.tolist(),
            },
            indent=2,
        )
    else:
        text = "\n".join(
            f"{i} {point_label(pt)}" for i, pt in enumerate(space.points)
        ) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def cmd_matrix(args: argparse.Namespace) -> int:
    _validate(args.n, args.m, args.guardrail)
    space = enumerate_space(args.n, args.m, args.ordering, guardrail=args.guardrail)
    mat = build_A(space)
    if args.which == "B":
        mat = build_B_product(mat)
    if args.format == "csv":
        text = to_csv(mat)
    elif args.format == "matrixmarket":
        text = to_matrix_market(mat)
    elif args.format == "json":
        text = to_json(mat)
    else:
        text = to_table(mat)
    _emit(text, args.output)
    return EXIT_OK


def _spectrum_json(table) -> str:
    obj = {
        "n": table.n,
        "m": table.m,
        "theta": table.total_multiplicity,
        "merged": [
            {"lambda": str(lam), "multiplicity": d} for lam, d in table.merged()
        ],
        "rows": [
            {"lambda": str(r.eigenvalue), "multiplicity": r.multiplicity,
             "provenance": r.provenance}
            for r in table.rows
        ],
    }
    return json.dumps(obj, indent=2)


def cmd_spectrum(args: argparse.Namespace) -> int:
    _validate(args.n, args.m, args.guardrail)
    if args.verify:
        space = enumerate_space(args.n, args.m, guardrail=args.guardrail)
        report = verify_spectrum(_build_b(space), spectrum_general(args.n, args.m))
        _emit(report.to_json(), args.output)
        return EXIT_OK if report.all_ok else EXIT_MISMATCH
    # theta >= m^(n-1) and the top eigenvalue >= m^(2(n-2)) are printed
    _refuse_unprintable(args.m, max(args.n - 1, 2 * (args.n - 2)))
    table = spectrum_general(args.n, args.m)
    with _printable():
        if args.format == "json":
            text = _spectrum_json(table)
        else:
            lines = [f"theta = {table.total_multiplicity}", "eigenvalue multiplicity"]
            lines += [f"{lam} {d}" for lam, d in table.merged()]
            text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def _build_b(space: ProjectiveSpace) -> ExactMatrix:
    return build_B_product(build_A(space))


def tensor_similar(n: int, m1: int, m2: int, guardrail: int | None = None) -> bool:
    """B_{n,m1*m2}, relabeled by the CRT permutation, equals B_{n,m1} (x) B_{n,m2}.

    Each space is enumerated once; the permutation, which refuses moduli
    that are not coprime, comes before any B is built."""
    s1, s2, big = (enumerate_space(n, m, guardrail=guardrail) for m in (m1, m2, m1 * m2))
    perm = crt_permutation(s1, s2, big)
    b1, b2 = _build_b(s1), _build_b(s2)
    return apply_simultaneous_permutation(_build_b(big), perm) == tensor_product(b1, b2)


def cmd_tensor_check(args: argparse.Namespace) -> int:
    n, m1, m2 = args.n, args.m1, args.m2
    _validate(n, m1, args.guardrail, "--m1")
    _validate(n, m2, flag="--m2")
    equal = tensor_similar(n, m1, m2, args.guardrail)
    verdict = "PASS" if equal else "FAIL"
    _emit(
        f"{verdict}: B_{{{n},{m1 * m2}}} ~ B_{{{n},{m1}}} (x) B_{{{n},{m2}}}\n",
        None,
    )
    return EXIT_OK if equal else EXIT_MISMATCH


def _parse_coords(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise DomainError(f"cannot parse coordinates from {text!r}") from exc


def cmd_count(args: argparse.Namespace) -> int:
    p, e = args.p, args.e
    if args.coeffs is not None:
        a, b, c, d = args.coeffs
        closed = count_2x2(a, b, c, d, p, e)
        brute = count_2x2_brute(a, b, c, d, p, e)
    else:
        if args.pair is None or args.layer is None:
            raise DomainError("count needs either --coeffs or --pair with --layer")
        first, second = _parse_coords(args.pair[0]), _parse_coords(args.pair[1])
        spec = LayerSpec(g=args.layer, p=p, e=e, n=len(first))
        # canonicalizing walks the phi(p^e) units, so refuse before that
        size, phi = layer_scan_size(spec), euler_phi(p**e)
        if max(size, phi) > BRUTE_LAYER_LIMIT:
            raise GuardrailError(f"the layer scan ({size} tuples) or the units of "
                                 f"{p}^{e} ({phi}) exceed the oracle scale {BRUTE_LAYER_LIMIT}")
        u, v = canonical_rep(first, p**e), canonical_rep(second, p**e)
        closed = count_layer(u, v, spec)
        brute = count_layer_brute(u, v, args.layer)
    _emit(f"closed={closed} brute={brute}\n", None)
    return EXIT_OK if closed == brute else EXIT_MISMATCH


# -------------------- verification battery --------------------
#
# One check per acceptance criterion.  Each takes its grid and returns the
# first failing case, or None.  `zmspec selftest` runs them on the small
# grids of SELFTEST_CHECKS; tests/test_acceptance.py runs the same checks
# on larger grids.  Everything they call is looked up in this module's
# namespace at call time, so a replaced binding is what gets checked.

# the worked grids (n, m, ordering, entry(i, j)): B_{3,2}, and B_{3,4} in
# the k-grouped order, where positions i and j with i = j mod 7 are
# distinct points over the same point of P_{3,2}
B32_WORKED = (3, 2, "lex", lambda i, j: 3 if i == j else 1)
B34_WORKED = (3, 4, "k-grouped", lambda i, j: 6 if i == j else (2 if i % 7 == j % 7 else 1))


def check_b_grid(
    grid: Iterable[tuple[int, int, str, Callable[[int, int], int]]],
) -> tuple | None:
    """Criterion 1: B_{n,m} in the given ordering equals a worked grid."""
    for n, m, ordering, entry in grid:
        b = _build_b(enumerate_space(n, m, ordering))
        size = theta(n, m)
        if (b.rows, b.cols) != (size, size):
            return (n, m, ordering, "order", b.rows, b.cols)
        for i, j in itertools.product(range(size), repeat=2):
            if b[i, j] != entry(i, j):
                return (n, m, ordering, i, j)
    return None


def check_dual_construction(grid: Iterable[tuple[int, int]]) -> tuple | None:
    """Criterion 2: the closed-form B equals A A^t, for (n, m) prime powers."""
    for n, m in grid:
        space = enumerate_space(n, m, "lex")
        if build_B_analytic(space) != build_B_product(build_A(space)):
            return (n, m)
    return None


def check_spectrum_verify(grid: Iterable[tuple[int, int]]) -> tuple | None:
    """Criteria 3 and 4: verify_spectrum proves the closed-form table of B_{n,m}."""
    return next(
        ((n, m) for n, m in grid
         if not verify_spectrum(_build_b(enumerate_space(n, m)), spectrum_general(n, m)).all_ok),
        None,
    )


def check_tensor(grid: Iterable[tuple[int, int, int]]) -> tuple | None:
    """Criterion 5: the CRT tensor lemma on (n, m1, m2)."""
    return next((case for case in grid if not tensor_similar(*case)), None)


def check_count_2x2(grid: Iterable[tuple[int, int]]) -> tuple | None:
    """Criterion 6: the 2x2 closed form equals brute force on every
    coefficient tuple mod p^e, for (p, e) in the grid."""
    return next(
        ((p, e, *coeffs) for p, e in grid
         for coeffs in itertools.product(range(p**e), repeat=4)
         if count_2x2(*coeffs, p, e) != count_2x2_brute(*coeffs, p, e)),
        None,
    )


def check_layer_counts(grid: Iterable[tuple[int, int, int, int]]) -> tuple | None:
    """Criterion 7: the layer count equals brute force at every layer g,
    on the pairs of every stride-th point of P_{n,p^e}, for (n, p, e, stride)."""
    for n, p, e, stride in grid:
        points = enumerate_space(n, p**e, "lex").points[::stride]
        for u, v in itertools.product(points, repeat=2):
            for g in range(e + 1):
                spec = LayerSpec(g=g, p=p, e=e, n=n)
                if count_layer(u, v, spec) != count_layer_brute(u, v, g):
                    return (n, p, e, point_label(u), point_label(v), g)
    return None


def check_eigenvectors(grid: Iterable[tuple[int, int]]) -> tuple | None:
    """Criterion 8: the eigenbasis certificate on the family of
    eigvec_family_general over P_{n,m} proves exactly the multiplicities of
    the closed-form table of B_{n,m}, built over the same space.  The
    certificate checks every column's residual and the full rank of V over
    Q, which gives the columns of each eigenvalue full column rank."""
    for n, m in grid:
        space = enumerate_space(n, m)
        claimed = dict(spectrum_general(n, m).merged())
        if eigenbasis_nullities(_build_b(space), eigvec_family_general(space)) != claimed:
            return (n, m)
    return None


def check_structure(
    grid: tuple[Iterable[tuple[int, int, int]], Iterable[tuple[int, int, int]]],
) -> tuple | None:
    """Criterion 9: the point count and the orbit sizes phi(m) on the
    (n, m, theta) items, and the block identity C_ab = reference on the
    K-partitions of the (n, p, e) items; ``grid`` is the pair of lists."""
    points, blocks = grid
    for n, m, count in points:
        space = enumerate_space(n, m, "lex")
        if theta(n, m) != count or len(space) != count:
            return (n, m, "theta")
        phi = euler_phi(m)
        if any(orbit_size(pt) != phi for pt in space.points):
            return (n, m, "orbit size")
    for n, p, e in blocks:
        part = k_partition(enumerate_space(n, p**e))
        big, base = _build_b(part.space), _build_b(part.base_space)
        for a, b in itertools.product(range(part.l), repeat=2):
            if block_C(a, b, part, big) != block_C_reference(a, b, part, base):
                return (n, p, e, a, b)
    return None


SELFTEST_CHECKS = (
    ("B32-grid", check_b_grid, (B32_WORKED,)),
    ("B34-grid", check_b_grid, (B34_WORKED,)),
    ("dual-construction", check_dual_construction, ((3, 4), (3, 3), (4, 2))),
    ("spectrum-verify", check_spectrum_verify, ((3, 4), (3, 3))),
    ("tensor-similarity", check_tensor, ((2, 2, 3), (3, 2, 3))),
    ("count-2x2-exhaustion", check_count_2x2, ((2, 1), (3, 1), (2, 2))),
    ("layer-counts", check_layer_counts, ((3, 2, 2, 1),)),
    ("eigenvector-families", check_eigenvectors, ((3, 4),)),
    ("structural-identities", check_structure,
     (((3, 4, 28), (3, 6, 91), (2, 2, 3)), ((3, 2, 2),))),
)


def cmd_selftest(args: argparse.Namespace) -> int:
    ok = True
    for name, check, grid in SELFTEST_CHECKS:
        case = check(grid)
        ok = ok and case is None
        print(f"PASS {name}" if case is None else f"FAIL {name} {case}")
    return EXIT_OK if ok else EXIT_MISMATCH


# -------------------- argument parsing --------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zmspec",
        description="Exact construction and spectral verification of the "
        "projective-point Gram matrices over Z_m.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, ordering=False, fmt=None, output=False):
        sp.add_argument("-n", type=int, required=True, help="tuple length n >= 2")
        sp.add_argument("-m", type=int, required=True, help="modulus m >= 2")
        if ordering:
            sp.add_argument("--ordering", choices=["lex", "k-grouped"], default="lex")
        if fmt:
            sp.add_argument("--format", choices=fmt, default=fmt[0])
        if output:
            sp.add_argument("-o", "--output", default=None, help="write to a file")
        sp.add_argument("--guardrail", type=int, default=None,
                        help="max theta before refusing (default 5000 or ZMSPEC_GUARDRAIL)")

    sp = sub.add_parser("theta", help="print the point count of P_{n,m}")
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-m", type=int, required=True)
    sp.set_defaults(func=cmd_theta)

    sp = sub.add_parser("points", help="list the points of P_{n,m}")
    add_common(sp, ordering=True, fmt=["table", "csv", "json"], output=True)
    sp.set_defaults(func=cmd_points)

    sp = sub.add_parser("matrix", help="dump A_{n,m} or B_{n,m}")
    sp.add_argument("--which", choices=["A", "B"], default="B")
    add_common(sp, ordering=True, fmt=["table", "csv", "matrixmarket", "json"], output=True)
    sp.set_defaults(func=cmd_matrix)

    sp = sub.add_parser("spectrum", help="closed-form spectrum, optionally verified")
    sp.add_argument("--verify", action="store_true",
                    help="build B and prove every multiplicity: eigenbasis "
                    "certificate, exact Bareiss nullity as the fallback; the "
                    "report is JSON whatever --format is")
    add_common(sp, fmt=["table", "json"], output=True)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("tensor-check",
                        help="check B_{n,m1*m2} ~ B_{n,m1} (x) B_{n,m2}")
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("--m1", type=int, required=True)
    sp.add_argument("--m2", type=int, required=True)
    sp.add_argument("--guardrail", type=int, default=None)
    sp.set_defaults(func=cmd_tensor_check)

    sp = sub.add_parser("count", help="closed-form vs brute-force solution counts")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--e", type=int, required=True)
    sp.add_argument("--coeffs", type=int, nargs=4, default=None,
                    metavar=("A", "B", "C", "D"),
                    help="count (x,y) with Ax+By = Cx+Dy = 0 mod p^e")
    sp.add_argument("--pair", nargs=2, default=None, metavar=("U", "V"),
                    help="two comma-separated points of P_{n,p^e}")
    sp.add_argument("--layer", type=int, default=None,
                    help="layer index g for the pair form")
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("selftest",
                        help="run the acceptance checks on small fixed grids")
    sp.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GuardrailError as exc:
        print(f"guardrail: {exc}", file=sys.stderr)
        return EXIT_GUARDRAIL
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
