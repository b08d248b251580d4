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
import ctypes
import functools
import itertools
import json
import math
import os
import sys
from collections.abc import Callable, Iterable
from contextlib import contextmanager, nullcontext

from .counting import (BRUTE_LAYER_LIMIT, LayerSpec, count_2x2, count_2x2_brute, count_layer,
                       count_layer_brute, layer_scan_size)
from .errors import DomainError, GuardrailError
from .matrices import (
    ExactMatrix,
    apply_simultaneous_permutation,
    block_identity,
    build_A,
    build_B_analytic,
    build_B_product,
    crt_permutation,
    export_blocks,
    tensor_product,
    to_csv,
    to_matrix_market,
)
from .projective import (
    ProjectiveSpace,
    canonical_rep,
    enumerate_space,
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

# glibc's mallopt parameters (malloc.h) and the values _keep_freed_blocks
# gives them
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 16 << 20
_TRIM_THRESHOLD = 32 << 20


@functools.cache
def _keep_freed_blocks() -> None:
    """Have glibc's malloc serve blocks of up to 16 MiB from its heap and
    keep up to 32 MiB of free heap instead of handing it back, for the
    rest of the process.  ``main`` calls this first, once per process.

    By default glibc maps each block above a threshold that starts at
    128 KiB and rises only to the largest mapped block freed so far, and
    returns the top of the heap to the system once more than twice that is
    free.  The tiled constructions of ``matrices`` free nothing larger
    than their theta^2 results and buffers, so each build of A or B took
    every page of them from the system afresh: 2010-2300 minor faults a
    pass over the crosscheck benchmark and 7800-8030 over build-export
    (``ru_minflt`` over passes 2-4 of one process, seed 1), kernel time
    whose cost varies with the load of the machine.  With both thresholds
    fixed, a freed block is reused by the next build, and those passes
    take 0-5.  Blocks above 16 MiB (an int8 theta x theta array
    once theta > 4096) are still mapped and unmapped on their own, which
    keeps a large single build from holding that much freed heap: on a
    shared 2-core Xeon ``spectrum --verify`` peaks at 136 MiB at (3,67)
    either way, and at (4,12) at 172 MiB against 170 MiB without the
    switch (B's packed right panel, 9 MiB there, stays in the heap), and
    the CSV export of B_{3,67} at 144 MiB against 136 MiB.  Nothing
    happens off Linux or where the C library has no mallopt (musl's does
    nothing)."""
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _validate(n: int, m: int, guardrail: int | None = None, flag: str = "-m") -> None:
    """Reject the common knobs of a command that are out of range; ``flag``
    names the option that gave the modulus."""
    if n < 2:
        raise DomainError(f"-n must be >= 2, got {n}")
    if m < 2:
        raise DomainError(f"{flag} must be >= 2, got {m}")
    if guardrail is not None and guardrail <= 0:
        raise DomainError("--guardrail must be positive")


def _emit(text: str | Iterable[str], output: str | None) -> None:
    """Write ``text``, one string or pieces written each as it comes, to
    stdout or the output file, then a newline if the text lacks one."""
    pieces = (text,) if isinstance(text, str) else text
    end = ""
    with open(output, "w", encoding="utf-8") if output else nullcontext(sys.stdout) as fh:
        for piece in pieces:
            fh.write(piece)
            end = piece[-1:] or end
        if end != "\n":
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
    value = theta(args.n, args.m)
    with _printable():
        text = str(value)
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
        text = "\n".join(f"{i} {label}" for i, label in enumerate(space.labels)) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def cmd_matrix(args: argparse.Namespace) -> int:
    _validate(args.n, args.m, args.guardrail)
    space = enumerate_space(args.n, args.m, args.ordering, guardrail=args.guardrail)
    mat = build_A(space)
    if args.which == "B":
        mat = build_B_product(mat)
    # JSON and the table are written one row block at a time, as they are
    # rendered.  CSV and Matrix Market, whose tokens are shorter, are
    # rendered whole by to_csv and to_matrix_market: the benchmark's export
    # controls replace these two names in this module and its tracer counts
    # the bytes they return (perfbench/test_perfbench.py)
    whole = {"csv": to_csv, "matrixmarket": to_matrix_market}.get(args.format)
    _emit(whole(mat) if whole else export_blocks(mat, args.format), args.output)
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

    Proved from the incidence matrices, in theta^2 work, with no B built.
    Let P be the CRT permutation, P[i, forward[i]] = 1, and A1, A2, A the
    A of P_{n,m1}, P_{n,m2}, P_{n,m1*m2}.  What is compared is
    P A P^T = A1 (x) A2, which holds because <u, v> = 0 mod m1*m2 iff it
    vanishes mod m1 and mod m2.  P is a permutation and B = A A^t exactly,
    so P B P^T = (P A P^T)(P A P^T)^T = (A1 (x) A2)(A1 (x) A2)^T = B1 (x) B2
    by the mixed-product rule: the verdict on B follows from the one on A.

    Each space is enumerated once; the permutation, which refuses moduli
    that are not coprime, comes before any A is built."""
    s1, s2, big = (enumerate_space(n, m, guardrail=guardrail) for m in (m1, m2, m1 * m2))
    perm = crt_permutation(s1, s2, big)
    return (apply_simultaneous_permutation(build_A(big), perm)
            == tensor_product(build_A(s1), build_A(s2)))


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
    given = (args.coeffs is not None, args.pair is not None, args.layer is not None)
    if given not in ((True, False, False), (False, True, True)):
        raise DomainError("count needs either --coeffs or --pair with --layer, not both")
    if args.coeffs is not None:
        a, b, c, d = args.coeffs
        closed = count_2x2(a, b, c, d, p, e)
        brute = count_2x2_brute(a, b, c, d, p, e)
    else:
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
    """Criterion 5: the CRT tensor lemma on (n, m1, m2), proved by
    ``tensor_similar`` from A: the CRT permutation P carries A to
    A1 (x) A2, and as P is a permutation and B = A A^t exactly, it carries
    B to (A1 (x) A2)(A1 (x) A2)^T = B1 (x) B2, so the B-level lemma follows."""
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
    certificate checks every column's residual and proves the full rank of
    V over Q from the labels V is built from, which gives the columns of
    each eigenvalue full column rank."""
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
    (n, m, theta) items, and the block identity on the (n, p, e) items:
    B_{n,p^e} in the k-grouped order, whose l = p^(n-1) row slices are
    the classes of the K-partition, equals ``block_identity`` of the
    lex-ordered B_{n,p^(e-1)}, every block C_ab in one comparison;
    ``grid`` is the pair of lists."""
    points, blocks = grid
    for n, m, count in points:
        space = enumerate_space(n, m, "lex")
        if theta(n, m) != count or len(space) != count:
            return (n, m, "theta")
        phi = euler_phi(m)
        if any(orbit_size(pt) != phi for pt in space.points):
            return (n, m, "orbit size")
    for n, p, e in blocks:
        base = _build_b(enumerate_space(n, p ** (e - 1)))
        if _build_b(enumerate_space(n, p**e, "k-grouped")) != block_identity(n, p, e, base):
            return (n, p, e)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``zmspec`` parser, built once per process: each command is bound
    by ``set_defaults`` and looks up what it calls at call time."""
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
    _keep_freed_blocks()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # a short output still sits in stdout's buffer; flushed here, a
        # closed pipe fails where the handler below can see it
        sys.stdout.flush()
        return code
    except GuardrailError as exc:
        _report(f"guardrail: {exc}")
        return EXIT_GUARDRAIL
    except DomainError as exc:
        _report(f"error: {exc}")
        return EXIT_USAGE
    except OSError as exc:
        _report(f"error: {exc}")
        _silence_broken_streams()
        return EXIT_IO


def _report(message: str) -> None:
    """Print ``message`` to stderr.  A report that cannot be written, such
    as one to a closed pipe, is dropped, so that the exit code still says
    what went wrong."""
    try:
        print(message, file=sys.stderr)
    except OSError:
        pass


def _silence_broken_streams() -> None:
    """Point stdout and stderr at os.devnull where a flush fails, as on a
    closed pipe.  Their unwritten bytes then go nowhere, so the
    interpreter's own flush at exit cannot fail and turn the exit code
    into 120."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
