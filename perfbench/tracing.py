"""Span tracing of the zmspec layers, installed from the benchmark's process.

No file under src/ is edited.  ``Tracer.install`` wraps every public
function and public method defined in the layer modules, and patches the
wrapper into the defining module and into every zmspec namespace that
imported the name (``zmspec.cli.build_A``, ``zmspec.spectrum.theta``,
the package namespace), so calls through any of them are seen.  Each
call becomes a span (name, start, end, parent, case id, size) held in
memory; ``write_spans`` writes them out once the run is over.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

LAYERS = ("projective", "matrices", "spectrum", "counting", "cli")

NAME, START, END, PARENT, CASE, SIZE = range(6)


def _rows_times_cols(args, result) -> int:
    return result.rows * result.cols


# the size a span records, per span name; other spans record 0
SIZES = {
    "projective.enumerate_space": lambda args, result: len(result),
    "matrices.build_A": _rows_times_cols,
    "matrices.build_B_product": _rows_times_cols,
    "matrices.build_B_analytic": _rows_times_cols,
    "matrices.to_matrix_market": lambda args, result: len(result.encode("utf-8")),
    "matrices.to_csv": lambda args, result: len(result.encode("utf-8")),
    "spectrum.exact_nullity": lambda args, result: args[0].rows,
    # the benchmark runs cli.main with stdout bound to a fresh OutputSink
    "cli.main": lambda args, result: getattr(sys.stdout, "nbytes", 0),
}

_BUILDS = ("matrices.build_A", "matrices.build_B_product", "matrices.build_B_analytic")
_EXPORTS = ("matrices.to_matrix_market", "matrices.to_csv")
_CLOSED = ("counting.count_2x2", "counting.count_layer")
_BRUTE = ("counting.count_2x2_brute", "counting.count_layer_brute")

# metric -> (span names, statistic, unit).  Statistics are taken over the
# outermost spans of the named set (recursive calls are not counted twice):
# s = summed duration, calls = count, max_s = longest, size = summed size.
SPAN_METRICS = {
    "projective.enumerate_space.s": (("projective.enumerate_space",), "s", "s"),
    "projective.enumerate_space.calls": (("projective.enumerate_space",), "calls", "count"),
    "projective.points": (("projective.enumerate_space",), "size", "count"),
    "projective.k_partition.s": (("projective.k_partition",), "s", "s"),
    "projective.canonical_rep.calls": (("projective.canonical_rep",), "calls", "count"),
    "matrices.build_A.s": (("matrices.build_A",), "s", "s"),
    "matrices.build_B_product.s": (("matrices.build_B_product",), "s", "s"),
    "matrices.build_B_analytic.s": (("matrices.build_B_analytic",), "s", "s"),
    "matrices.entries": (_BUILDS, "size", "count"),
    "matrices.crt_permutation.s": (("matrices.crt_permutation",), "s", "s"),
    "matrices.apply_simultaneous_permutation.s":
        (("matrices.apply_simultaneous_permutation",), "s", "s"),
    "matrices.tensor_product.s": (("matrices.tensor_product",), "s", "s"),
    "matrices.matvec.s": (("matrices.ExactMatrix.matvec",), "s", "s"),
    "matrices.matvec.calls": (("matrices.ExactMatrix.matvec",), "calls", "count"),
    "matrices.to_matrix_market.s": (("matrices.to_matrix_market",), "s", "s"),
    "matrices.to_csv.s": (("matrices.to_csv",), "s", "s"),
    "matrices.export_bytes": (_EXPORTS, "size", "bytes"),
    "spectrum.verify_spectrum.s": (("spectrum.verify_spectrum",), "s", "s"),
    "spectrum.exact_nullity.s": (("spectrum.exact_nullity",), "s", "s"),
    "spectrum.exact_nullity.calls": (("spectrum.exact_nullity",), "calls", "count"),
    "spectrum.exact_nullity.max_s": (("spectrum.exact_nullity",), "max_s", "s"),
    "spectrum.nullity_order_sum": (("spectrum.exact_nullity",), "size", "count"),
    "spectrum.exact_rank.s": (("spectrum.exact_rank",), "s", "s"),
    "spectrum.exact_rank.calls": (("spectrum.exact_rank",), "calls", "count"),
    "spectrum.eigvec_family_prime_power.s":
        (("spectrum.eigvec_family_prime_power",), "s", "s"),
    "spectrum.spectrum_general.s": (("spectrum.spectrum_general",), "s", "s"),
    "counting.closed.s": (_CLOSED, "s", "s"),
    "counting.closed.calls": (_CLOSED, "calls", "count"),
    "counting.brute.s": (_BRUTE, "s", "s"),
    "counting.brute.calls": (_BRUTE, "calls", "count"),
    "cli.main.s": (("cli.main",), "s", "s"),
    "cli.output_bytes": (("cli.main",), "size", "bytes"),
}

# metrics derived from more than one span set or from the pass timings
DERIVED_UNITS = {"cli.self_s": "s", "trace.overhead_s": "s", "trace.pass_s": "s"}

LAYER_UNITS = {name: unit for name, (_, _, unit) in SPAN_METRICS.items()} | DERIVED_UNITS


class Tracer:
    """Records a span for every call of a wrapped zmspec function."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.case: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, size_of = self.spans, self._stack, SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, perf_counter(), parent, self.case, 0)
                stack.pop()
                raise
            end = perf_counter()
            stack.pop()
            size = size_of(args, result) if size_of else 0
            spans[idx] = (name, start, end, parent, self.case, size)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions and methods everywhere they are bound."""
        if self._patches:
            raise RuntimeError("the tracer is already installed")
        namespaces = [mod for key, mod in sys.modules.items()
                      if key == "zmspec" or key.startswith("zmspec.")]
        for layer in LAYERS:
            module = sys.modules[f"zmspec.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, key, wrapped)
                elif inspect.isclass(obj):
                    for key, value in list(vars(obj).items()):
                        if not key.startswith("_") and inspect.isfunction(value):
                            self._patch(obj, key, self._wrap(f"{layer}.{attr}.{key}", value))

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)


# -------------------- aggregation --------------------


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _outermost(spans: list[tuple], subset: list[tuple], names: tuple[str, ...]) -> list[tuple]:
    """Spans of ``subset`` named in ``names`` with no ancestor named in ``names``."""
    out = []
    for span in subset:
        if span[NAME] not in names:
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent < 0:
            out.append(span)
    return out


def pass_metrics(spans: list[tuple], cases: set[int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, given the case ids it ran.

    ``spans`` is the tracer's full list; parents are indices into it."""
    mine = [s for s in spans if s[CASE] in cases]
    names = {s[NAME] for s in mine}
    metrics: dict[str, float] = {}
    for metric, (span_names, stat, _) in SPAN_METRICS.items():
        if not names.intersection(span_names):
            metrics[metric] = 0
            continue
        outer = _outermost(spans, mine, span_names)
        if stat == "s":
            metrics[metric] = sum(s[END] - s[START] for s in outer)
        elif stat == "max_s":
            metrics[metric] = max(s[END] - s[START] for s in outer)
        elif stat == "calls":
            metrics[metric] = len(outer)
        else:
            metrics[metric] = sum(s[SIZE] for s in outer)
    # cli self time: main minus the non-cli spans called directly from cli code
    below = sum(s[END] - s[START] for s in mine
                if _layer(s[NAME]) != "cli" and s[PARENT] >= 0
                and _layer(spans[s[PARENT]][NAME]) == "cli")
    metrics["cli.self_s"] = metrics["cli.main.s"] - below
    return metrics


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}


def write_spans(path: Path, header: dict, spans: list[tuple]) -> None:
    """One JSON header line, then one line per span:
    [name, start_s, end_s, parent_index, case_id, size]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")
