"""Record the outputs the benchmark's gates compare against (expected.json).

    python3 perfbench/record_expected.py

Each recorded value is validated before it is written: every spectrum
is confirmed by exact nullity (verify_spectrum), and every export is
parsed back and compared entrywise with the closed-form B, an
independent construction.  Run it only when an output format changes on
purpose; the benchmark otherwise treats a changed digest as a failure.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from zmspec import matrices, projective, spectrum  # noqa: E402


def _parse_export(fmt: str, text: str) -> list[list[int]]:
    if fmt == "matrixmarket":
        lines = text.split()
        if lines[:4] != ["%%MatrixMarket", "matrix", "array", "integer"]:
            raise ValueError("not a dense integer Matrix Market file")
        rows, cols = int(lines[5]), int(lines[6])
        values = [int(v) for v in lines[7:]]
        return [[values[j * rows + i] for j in range(cols)] for i in range(rows)]
    if fmt == "csv":
        return [[int(v) for v in row[1:]] for row in list(csv.reader(io.StringIO(text)))[1:]]
    return [[int(v) for v in row] for row in json.loads(text)["entries"]]


def record() -> dict:
    spectra = {}
    for n, m in workloads.VERIFY_WARMUP + workloads.VERIFY_GRID:
        space = projective.enumerate_space(n, m)
        table = spectrum.spectrum_general(n, m)
        b = matrices.build_B_product(matrices.build_A(space))
        if not spectrum.verify_spectrum(b, table).all_ok:
            raise SystemExit(f"spectrum of B_{{{n},{m}}} failed exact verification")
        spectra[f"{n},{m}"] = [[str(lam), d] for lam, d in table.merged()]

    digests = {}
    for n, m in workloads.EXPORT_WARMUP + workloads.EXPORT_GRID:
        closed = matrices.build_B_analytic(projective.enumerate_space(n, m)).to_lists()
        for fmt in workloads.EXPORT_FORMATS:
            argv = ["matrix", "-n", str(n), "-m", str(m), "--which", "B", "--format", fmt]
            code, out = workloads.run_cli(argv, keep=True)
            text = out.text()
            if code != 0 or _parse_export(fmt, text) != closed:
                raise SystemExit(f"{fmt} export of B_{{{n},{m}}} differs from the closed form")
            digests[f"{n},{m},{fmt}"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return {"spectra": spectra, "digests": digests}


if __name__ == "__main__":
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=1)
        fh.write("\n")
