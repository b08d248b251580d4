import json

import pytest

from zmspec.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_theta_command(capsys):
    code, out, _ = run(capsys, "theta", "-n", "3", "-m", "4")
    assert code == 0 and out.strip() == "28"
    code, out, _ = run(capsys, "theta", "-n", "3", "-m", "6")
    assert code == 0 and out.strip() == "91"
    code, out, _ = run(capsys, "theta", "-n", "2", "-m", "2")
    assert code == 0 and out.strip() == "3"


def test_theta_rejects_bad_arguments(capsys):
    code, _, err = run(capsys, "theta", "-n", "1", "-m", "4")
    assert code == 2 and "error" in err


def test_points_command(capsys):
    code, out, _ = run(capsys, "points", "-n", "3", "-m", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert lines[0] == "0 001" and lines[-1] == "6 111"

    code, out, _ = run(capsys, "points", "-n", "3", "-m", "4", "--ordering", "k-grouped")
    assert code == 0
    labels = [line.split()[1] for line in out.strip().splitlines()]
    assert len(labels) == 28
    assert labels[:7] == ["001", "010", "011", "100", "101", "110", "111"]
    assert labels[7] == "021" and labels[14] == "201" and labels[21] == "221"

    code, out, _ = run(capsys, "points", "-n", "2", "-m", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "index,c1,c2"


def test_points_json(capsys):
    code, out, _ = run(capsys, "points", "-n", "2", "-m", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["theta"] == 4 and len(obj["points"]) == 4


def test_matrix_command_table(capsys):
    code, out, _ = run(capsys, "matrix", "-n", "3", "-m", "2", "--which", "B")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("(001)")
    assert lines[0].split()[1:] == ["3", "1", "1", "1", "1", "1", "1"]


def test_matrix_command_A_permutation(capsys):
    code, out, _ = run(capsys, "matrix", "-n", "2", "-m", "2", "--which", "A")
    assert code == 0
    rows = [line.split()[1:] for line in out.strip().splitlines()]
    assert rows == [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]]


def test_matrix_matrixmarket(capsys):
    code, out, _ = run(capsys, "matrix", "-n", "2", "-m", "2", "--which", "B",
                       "--format", "matrixmarket")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "%%MatrixMarket matrix array integer general"
    assert lines[1] == "3 3"
    assert len(lines) == 2 + 9


def test_matrix_json_entries_are_strings(capsys):
    code, out, _ = run(capsys, "matrix", "-n", "2", "-m", "3", "--which", "B",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["entries"][0][0] == "1"


def test_matrix_guardrail(capsys):
    code, _, err = run(capsys, "matrix", "-n", "3", "-m", "4", "--guardrail", "5")
    assert code == 3 and "guardrail" in err


def test_spectrum_command(capsys):
    code, out, _ = run(capsys, "spectrum", "-n", "3", "-m", "2")
    assert code == 0
    assert "9 1" in out and "2 6" in out

    code, out, _ = run(capsys, "spectrum", "-n", "3", "-m", "6", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["merged"][0] == {"lambda": "144", "multiplicity": 1}


def test_spectrum_verify(capsys):
    code, out, _ = run(capsys, "spectrum", "-n", "3", "-m", "4", "--verify")
    assert code == 0
    report = json.loads(out)
    assert report["all_ok"] is True
    assert {e["lambda"]: e["claimed"] for e in report["entries"]} == {
        "36": 1, "8": 6, "4": 21
    }
    assert {e["method"] for e in report["entries"]} == {"eigenbasis"}


def test_spectrum_verify_composite(capsys):
    code, out, _ = run(capsys, "spectrum", "-n", "3", "-m", "6", "--verify")
    assert code == 0
    report = json.loads(out)
    assert report["all_ok"] is True and len(report["entries"]) == 4


def test_tensor_check_command(capsys):
    code, out, _ = run(capsys, "tensor-check", "-n", "2", "--m1", "2", "--m2", "3")
    assert code == 0 and out.startswith("PASS")

    code, _, err = run(capsys, "tensor-check", "-n", "2", "--m1", "2", "--m2", "4")
    assert code == 2 and "coprime" in err


def test_count_coeffs(capsys):
    code, out, _ = run(capsys, "count", "--p", "2", "--e", "2",
                       "--coeffs", "0", "0", "0", "0")
    assert code == 0 and out.strip() == "closed=16 brute=16"

    code, out, _ = run(capsys, "count", "--p", "2", "--e", "2",
                       "--coeffs", "2", "0", "0", "2")
    assert code == 0 and out.strip() == "closed=4 brute=4"


def test_count_pair(capsys):
    code, out, _ = run(capsys, "count", "--p", "2", "--e", "2",
                       "--pair", "0,0,1", "0,1,0", "--layer", "0")
    assert code == 0 and out.strip() == "closed=4 brute=4"


def test_count_invalid_layer(capsys):
    code, _, err = run(capsys, "count", "--p", "2", "--e", "2",
                       "--pair", "0,0,1", "0,1,0", "--layer", "5")
    assert code == 2 and "layer" in err


def test_count_requires_a_mode(capsys):
    code, _, err = run(capsys, "count", "--p", "2", "--e", "2")
    assert code == 2


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "points.csv"
    code, out, _ = run(capsys, "points", "-n", "2", "-m", "2",
                       "--format", "csv", "-o", str(target))
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[0] == "index,c1,c2"


def test_unwritable_output_exit_code(tmp_path, capsys):
    target = tmp_path / "missing" / "x.mtx"
    code, out, err = run(capsys, "matrix", "-n", "2", "-m", "2", "-o", str(target))
    assert code == 4 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_commands_are_deterministic(capsys):
    _, first, _ = run(capsys, "matrix", "-n", "3", "-m", "4", "--ordering",
                      "k-grouped", "--format", "csv")
    _, second, _ = run(capsys, "matrix", "-n", "3", "-m", "4", "--ordering",
                       "k-grouped", "--format", "csv")
    assert first == second


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "-n", "3"])  # missing -m
    assert exc.value.code == 2


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert all(line.startswith("PASS") for line in lines)
