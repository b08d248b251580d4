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
import json
import sys
from dataclasses import dataclass

from .counting import LayerSpec, count_2x2, count_2x2_brute, count_layer, count_layer_brute
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
    to_matrix_market,
)
from .projective import (
    canonical_rep,
    enumerate_space,
    k_partition,
    orbit_size,
    point_label,
    points_to_csv,
    theta,
)
from .modular import euler_phi, factorize
from .spectrum import (
    eigvec_family_prime_power,
    exact_rank,
    spectrum_general,
    verify_spectrum,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_GUARDRAIL = 3
EXIT_IO = 4


@dataclass(frozen=True)
class RunConfig:
    """Validated common knobs of a command invocation."""

    n: int
    m: int
    ordering: str = "lex"
    guardrail: int | None = None
    fmt: str = "table"
    output: str | None = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise DomainError(f"-n must be >= 2, got {self.n}")
        if self.m < 2:
            raise DomainError(f"-m must be >= 2, got {self.m}")
        if self.guardrail is not None and self.guardrail <= 0:
            raise DomainError("--guardrail must be positive")


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _matrix_label(pt) -> str:
    return f"({point_label(pt)})"


def _matrix_table(m: ExactMatrix) -> str:
    # the longest entry is the largest or, with its sign, the smallest
    width = max(len(str(m.array.max())), len(str(m.array.min())))
    if m.row_labels is not None:
        lw = max(len(_matrix_label(pt)) for pt in m.row_labels)
        labels = [_matrix_label(pt).ljust(lw) for pt in m.row_labels]
    else:
        lw = len(str(m.rows - 1))
        labels = [str(i).ljust(lw) for i in range(m.rows)]
    lines = [
        label + " " + " ".join(str(x).rjust(width) for x in row.tolist())
        for label, row in zip(labels, m.array)
    ]
    return "\n".join(lines) + "\n"


def _matrix_json(m: ExactMatrix) -> str:
    obj = {
        "rows": m.rows,
        "cols": m.cols,
        "row_labels": [point_label(pt) for pt in m.row_labels] if m.row_labels else None,
        "col_labels": [point_label(pt) for pt in m.col_labels] if m.col_labels else None,
        "entries": [list(map(str, row.tolist())) for row in m.array],
    }
    return json.dumps(obj, indent=2)


def cmd_theta(args: argparse.Namespace) -> int:
    cfg = RunConfig(n=args.n, m=args.m)
    _emit(str(theta(cfg.n, cfg.m)), None)
    return EXIT_OK


def cmd_points(args: argparse.Namespace) -> int:
    cfg = RunConfig(n=args.n, m=args.m, ordering=args.ordering,
                    guardrail=args.guardrail, fmt=args.format, output=args.output)
    space = enumerate_space(cfg.n, cfg.m, cfg.ordering, guardrail=cfg.guardrail)
    if cfg.fmt == "csv":
        text = points_to_csv(space)
    elif cfg.fmt == "json":
        text = json.dumps(
            {
                "n": cfg.n,
                "m": cfg.m,
                "theta": len(space),
                "ordering": cfg.ordering,
                "points": [list(pt.coords) for pt in space.points],
            },
            indent=2,
        )
    else:
        text = "\n".join(
            f"{i} {point_label(pt)}" for i, pt in enumerate(space.points)
        ) + "\n"
    _emit(text, cfg.output)
    return EXIT_OK


def cmd_matrix(args: argparse.Namespace) -> int:
    cfg = RunConfig(n=args.n, m=args.m, ordering=args.ordering,
                    guardrail=args.guardrail, fmt=args.format, output=args.output)
    space = enumerate_space(cfg.n, cfg.m, cfg.ordering, guardrail=cfg.guardrail)
    mat = build_A(space)
    if args.which == "B":
        mat = build_B_product(mat)
    if cfg.fmt == "csv":
        text = to_csv(mat)
    elif cfg.fmt == "matrixmarket":
        text = to_matrix_market(mat)
    elif cfg.fmt == "json":
        text = _matrix_json(mat)
    else:
        text = _matrix_table(mat)
    _emit(text, cfg.output)
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
    cfg = RunConfig(n=args.n, m=args.m, guardrail=args.guardrail,
                    fmt=args.format, output=args.output)
    table = spectrum_general(cfg.n, cfg.m)
    if args.verify:
        space = enumerate_space(cfg.n, cfg.m, "lex", guardrail=cfg.guardrail)
        b = build_B_product(build_A(space))
        report = verify_spectrum(b, table)
        _emit(report.to_json(), cfg.output)
        return EXIT_OK if report.all_ok else EXIT_MISMATCH
    if cfg.fmt == "json":
        text = _spectrum_json(table)
    else:
        lines = [f"theta = {table.total_multiplicity}", "eigenvalue multiplicity"]
        lines += [f"{lam} {d}" for lam, d in table.merged()]
        text = "\n".join(lines) + "\n"
    _emit(text, cfg.output)
    return EXIT_OK


def cmd_tensor_check(args: argparse.Namespace) -> int:
    cfg = RunConfig(n=args.n, m=args.m1 * args.m2, guardrail=args.guardrail)
    n, m1, m2 = args.n, args.m1, args.m2
    perm = crt_permutation(n, m1, m2, guardrail=cfg.guardrail)
    _, b = _space_and_b(n, m1 * m2, cfg.guardrail)
    _, b1 = _space_and_b(n, m1, cfg.guardrail)
    _, b2 = _space_and_b(n, m2, cfg.guardrail)
    equal = apply_simultaneous_permutation(b, perm) == tensor_product(b1, b2)
    verdict = "PASS" if equal else "FAIL"
    _emit(
        f"{verdict}: B_{{{n},{m1 * m2}}} ~ B_{{{n},{m1}}} (x) B_{{{n},{m2}}}\n",
        None,
    )
    return EXIT_OK if equal else EXIT_MISMATCH


def _space_and_b(n: int, m: int, guardrail: int | None):
    space = enumerate_space(n, m, "lex", guardrail=guardrail)
    return space, build_B_product(build_A(space))


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
        m = p**e
        u = canonical_rep(_parse_coords(args.pair[0]), m)
        v = canonical_rep(_parse_coords(args.pair[1]), m)
        if not 0 <= args.layer <= e:
            raise DomainError(f"--layer must lie in [0, {e}], got {args.layer}")
        spec = LayerSpec(g=args.layer, p=p, e=e, n=u.dimension)
        closed = count_layer(u, v, spec)
        brute = count_layer_brute(u, v, args.layer)
    _emit(f"closed={closed} brute={brute}\n", None)
    return EXIT_OK if closed == brute else EXIT_MISMATCH


# -------------------- selftest --------------------


def _check_b32_grid() -> bool:
    _, b = _space_and_b(3, 2, None)
    return all(
        b[i, j] == (3 if i == j else 1) for i in range(7) for j in range(7)
    )


def _check_b34_grid() -> bool:
    part = k_partition(2, 2, 3)
    space = enumerate_space(3, 4, "k-grouped")
    b = build_B_product(build_A(space))
    base = len(part.base_space)
    for i in range(28):
        for j in range(28):
            same_block = i // base == j // base
            same_base = i % base == j % base
            if i == j:
                expect = 6
            elif same_base and not same_block:
                expect = 2
            else:
                expect = 1
            if b[i, j] != expect:
                return False
    return True


def _check_dual_construction() -> bool:
    for n, m in ((3, 4), (3, 3), (4, 2)):
        space = enumerate_space(n, m, "lex")
        if build_B_analytic(space) != build_B_product(build_A(space)):
            return False
    return True


def _check_spectrum_verify() -> bool:
    for n, m in ((3, 4), (3, 3)):
        space, b = _space_and_b(n, m, None)
        if not verify_spectrum(b, spectrum_general(n, m)).all_ok:
            return False
    return True


def _check_tensor() -> bool:
    for n, m1, m2 in ((2, 2, 3), (3, 2, 3)):
        perm = crt_permutation(n, m1, m2)
        _, b = _space_and_b(n, m1 * m2, None)
        _, b1 = _space_and_b(n, m1, None)
        _, b2 = _space_and_b(n, m2, None)
        if apply_simultaneous_permutation(b, perm) != tensor_product(b1, b2):
            return False
    return True


def _check_count_2x2() -> bool:
    import itertools

    for p, e in ((2, 1), (3, 1), (2, 2)):
        q = p**e
        for a, b, c, d in itertools.product(range(q), repeat=4):
            if count_2x2(a, b, c, d, p, e) != count_2x2_brute(a, b, c, d, p, e):
                return False
    return True


def _check_layer_counts() -> bool:
    space = enumerate_space(3, 4, "lex")
    for u in space.points:
        for v in space.points:
            for g in range(3):
                spec = LayerSpec(g=g, p=2, e=2, n=3)
                if count_layer(u, v, spec) != count_layer_brute(u, v, g):
                    return False
    return True


def _check_eigenvectors() -> bool:
    space, family = eigvec_family_prime_power(3, 2, 2)
    b = build_B_product(build_A(space))
    for lam, vec in family:
        if b.matvec(vec) != [lam * x for x in vec]:
            return False
    stacked = ExactMatrix([[vec[i] for _, vec in family] for i in range(len(space))])
    return exact_rank(stacked) == len(space)


def _check_structure() -> bool:
    if theta(3, 4) != 28 or theta(3, 6) != 91 or theta(2, 2) != 3:
        return False
    space = enumerate_space(3, 4, "lex")
    phi = euler_phi(factorize(4))
    if any(orbit_size(pt) != phi for pt in space.points):
        return False
    part = k_partition(2, 2, 3)
    base_b = build_B_product(build_A(part.base_space))
    big_b = build_B_product(build_A(part.space))
    for a in range(part.l):
        for bb in range(part.l):
            if block_C(a, bb, part, big_b) != block_C_reference(a, bb, part, base_b):
                return False
    return True


SELFTEST_CHECKS = (
    ("B32-grid", _check_b32_grid),
    ("B34-grid", _check_b34_grid),
    ("dual-construction", _check_dual_construction),
    ("spectrum-verify", _check_spectrum_verify),
    ("tensor-similarity", _check_tensor),
    ("count-2x2-exhaustion", _check_count_2x2),
    ("layer-counts", _check_layer_counts),
    ("eigenvector-families", _check_eigenvectors),
    ("structural-identities", _check_structure),
)


def cmd_selftest(args: argparse.Namespace) -> int:
    ok = True
    for name, check in SELFTEST_CHECKS:
        passed = check()
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {name}")
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
                    "certificate, exact Bareiss nullity as the fallback")
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

    sp = sub.add_parser("selftest", help="run the built-in verification battery")
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
