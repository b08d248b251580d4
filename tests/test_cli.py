import hashlib
import json
import time
from collections import Counter

import pytest

from zmspec import cli, projective
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


PRINTING = (["theta"], ["spectrum"], ["spectrum", "--format", "json"])


@pytest.mark.parametrize(
    "argv",
    [cmd + ["-n", "10000", "-m", "3"] for cmd in PRINTING]
    + [cmd + ["-n", "10000000", "-m", "6"] for cmd in PRINTING],
)
def test_numbers_too_long_to_print_are_a_domain_error(capsys, argv):
    # theta(10000, 3) has 4771 digits, past the interpreter's 4300-digit
    # limit on int -> str; exit 1 would read as a verification mismatch.
    # The digit count is bounded before anything is computed, which at
    # n = 10^7 would take minutes.
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "error: more than 4300 digits to print\n"


@pytest.mark.parametrize("argv", [["theta", "-n", "4301", "-m", "10"],
                                  ["spectrum", "-n", "7144", "-m", "2"]])
def test_numbers_the_digit_bound_misses_are_refused_after_computing(capsys, argv):
    # both print a 4301-digit number that the up-front bound lets through:
    # the top eigenvalue (2^7143 - 1)^2 of B_{7144,2} is bounded by 2^14284,
    # which has 4300 digits, and theta(4301, 10) by 10^4300, an exact power
    # of ten that the margin of the float estimate gives up
    code, out, err = run(capsys, *argv)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "error: more than 4300 digits to print\n"


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


@pytest.mark.parametrize(
    "m1,m2,message",
    [("1", "6", "--m1 must be >= 2, got 1"), ("6", "1", "--m2 must be >= 2, got 1"),
     ("-2", "-3", "--m1 must be >= 2, got -2")],
)
def test_tensor_check_names_the_modulus_out_of_range(capsys, m1, m2, message):
    code, out, err = run(capsys, "tensor-check", "-n", "2", "--m1", m1, "--m2", m2)
    assert (code, out, err) == (cli.EXIT_USAGE, "", f"error: {message}\n")


def test_each_space_is_scanned_once_per_command(monkeypatch, capsys):
    real, scans = projective._lex_points, Counter()

    def counted(n, m):
        scans[n, m] += 1
        return real(n, m)

    monkeypatch.setattr(projective, "_lex_points", counted)
    assert run(capsys, "tensor-check", "-n", "3", "--m1", "2", "--m2", "9")[0] == 0
    assert scans == {(3, 2): 1, (3, 9): 1, (3, 18): 1}
    scans.clear()
    assert run(capsys, "spectrum", "-n", "2", "-m", "30", "--verify")[0] == 0
    # the family is built over the space of B's row labels
    assert scans == {(2, 2): 1, (2, 3): 1, (2, 5): 1, (2, 6): 1, (2, 30): 1}
    scans.clear()
    assert cli.check_eigenvectors([(3, 4)]) is None
    assert scans == {(3, 4): 1, (3, 2): 1}


def test_an_explicit_guardrail_reaches_every_subspace(monkeypatch, capsys):
    # sub-spaces take their limit from the space they came from, never
    # from the environment, which only the command's own space consults
    monkeypatch.setenv("ZMSPEC_GUARDRAIL", "10")
    code, out, _ = run(capsys, "spectrum", "-n", "3", "-m", "6", "--verify", "--guardrail", "200")
    report = json.loads(out)
    assert code == 0 and {c["method"] for c in report["entries"]} == {"eigenbasis"}
    argv = ["tensor-check", "-n", "3", "--m1", "2", "--m2", "3", "--guardrail", "200"]
    assert run(capsys, *argv)[0] == 0
    argv = ["points", "-n", "3", "-m", "8", "--ordering", "k-grouped", "--guardrail", "200"]
    assert run(capsys, *argv)[0] == 0
    code, _, err = run(capsys, "spectrum", "-n", "3", "-m", "6", "--verify")
    assert code == 3 and "guardrail 10" in err


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


@pytest.mark.parametrize("e,layer", [(16, 0), (22, 22)])
def test_count_pair_refuses_before_canonicalizing(monkeypatch, capsys, e, layer):
    # the layer scan (e = 16) or the phi(2^e) units that canonicalizing
    # walks (e = 22) exceed the oracle scale: exit 3 before any work
    from zmspec import cli

    def canonicalize(*args):
        pytest.fail("count --pair canonicalized before its scale check")

    monkeypatch.setattr(cli, "canonical_rep", canonicalize)
    code, _, err = run(capsys, "count", "--p", "2", "--e", str(e),
                       "--pair", "1,0", "0,1", "--layer", str(layer))
    assert code == 3 and "oracle scale" in err


def test_count_requires_a_mode(capsys):
    code, _, err = run(capsys, "count", "--p", "2", "--e", "2")
    assert code == 2


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "points.csv"
    code, out, _ = run(capsys, "points", "-n", "2", "-m", "2",
                       "--format", "csv", "-o", str(target))
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[0] == "index,c1,c2"


@pytest.mark.parametrize("argv", [
    "points -n 2 -m 3 --format json",
    "matrix -n 2 -m 3 --format json",
    "spectrum -n 3 -m 6 --format json",
    "spectrum -n 3 -m 4 --verify",
])
def test_output_file_equals_stdout(tmp_path, capsys, argv):
    target = tmp_path / "out"
    code, out, _ = run(capsys, *argv.split())
    file_code, file_out, _ = run(capsys, *argv.split(), "-o", str(target))
    assert code == file_code == 0 and file_out == ""
    assert out.endswith("\n")
    assert target.read_bytes() == out.encode("utf-8")


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


# sha256 of stdout, recorded before the matrix storage moved to ndarrays:
# every export format of A and B (lex, k-grouped, comma-quoted labels for
# m > 10, a composite modulus), two certified spectra and a point list
GOLDEN_DIGESTS = [
    ("matrix -n 2 -m 2 --ordering lex --which A --format table",
     "a869e89ad01433ace9e788b1a5690b634fdcd474596bcee8bdee0f7b8f08eef1"),
    ("matrix -n 2 -m 2 --ordering lex --which A --format csv",
     "09f8091072b3a41f43da7514958beced66ab10e8f1800e801c8cb207bcc30960"),
    ("matrix -n 2 -m 2 --ordering lex --which A --format matrixmarket",
     "287101c046e26dd64f9190fadadc052c3198c5d49950ef3cd1459a683aca854a"),
    ("matrix -n 2 -m 2 --ordering lex --which A --format json",
     "7637682a619e5d2476e60af663309b95a4834d04eaa13c80bf713c28a258910d"),
    ("matrix -n 2 -m 2 --ordering lex --which B --format table",
     "89c2d0da6d0a0d4d1fc4363470a1ef96f9fa9c0a2dc22f2f3fa1eccc7a171f4b"),
    ("matrix -n 2 -m 2 --ordering lex --which B --format csv",
     "17a5167d2ea9816638d90d516703cdd37e6b704b4830009d96407f6ab2a85375"),
    ("matrix -n 2 -m 2 --ordering lex --which B --format matrixmarket",
     "c81e80dde49b769eca818a16a633f9443b1d410e5576c619ac98a1d8759a905e"),
    ("matrix -n 2 -m 2 --ordering lex --which B --format json",
     "b254ad0a7c3ec75fcd31fe77d11e6b09e36dae1309c2e2f796474ba32d10544d"),
    ("matrix -n 3 -m 4 --ordering k-grouped --which A --format table",
     "b12da4d51abdb0c8a43b220dceaf2dfb3e3b90fd370fa9c01d444ba3421fe97c"),
    ("matrix -n 3 -m 4 --ordering k-grouped --which A --format csv",
     "020180175d6cdc122b0d4053976777e21ca71424038441e74ce2f41592f96cb8"),
    ("matrix -n 3 -m 4 --ordering k-grouped --which A --format matrixmarket",
     "d3066d139b8b8840399f15a7a5b05d2a65671546e765853867ed1d8d5c3de9b3"),
    ("matrix -n 3 -m 4 --ordering k-grouped --which A --format json",
     "acd70710b709fda50587228f85d635383251778bbb06177bfd7aa225f92982e3"),
    ("matrix -n 3 -m 4 --ordering k-grouped --which B --format table",
     "d358d554a7d2ddb9485f0789afb2131119054d6f1c4aa3e6479969311816eacd"),
    ("matrix -n 3 -m 4 --ordering k-grouped --which B --format csv",
     "f906a5d8efd9c6aedbfc95a5bdf694c3cdb0bffe02cb5850e96a818d7eae70f7"),
    ("matrix -n 3 -m 4 --ordering k-grouped --which B --format matrixmarket",
     "23892361e58e454d223702d9fd3db38cd9a3f504613f25271f41aad0e9a00903"),
    ("matrix -n 3 -m 4 --ordering k-grouped --which B --format json",
     "ae4e7a6edb33bc920b46254fa6baa3fc59bfd342e7567feefc373d17304e3290"),
    ("matrix -n 2 -m 12 --ordering lex --which A --format table",
     "1b2eef77acfee0c6a7ae53725941717ae2d012da7e3e0781b80731122f0f2c0f"),
    ("matrix -n 2 -m 12 --ordering lex --which A --format csv",
     "3ea47fa0d06aebb344d89cf51be5923c448c4a8c6d024b2e126d1439a87da4b1"),
    ("matrix -n 2 -m 12 --ordering lex --which A --format matrixmarket",
     "205bb597d3019d631f726caca9e370ca838ffe35511a62d15f6cbe83d31bda7c"),
    ("matrix -n 2 -m 12 --ordering lex --which A --format json",
     "38cd8786bdb5dd596ed436a5dcd58988f9510dbb100c2c2552f1e08abcb0a015"),
    ("matrix -n 2 -m 12 --ordering lex --which B --format table",
     "c93be862a7652bbfda0f992ffa061bfb6f2278b1e12bb9b5cfdb9112c37e75fe"),
    ("matrix -n 2 -m 12 --ordering lex --which B --format csv",
     "d6c5d8e3abd44cc43aa7739e1afa27c5dfb298b59fb7cbf569cda5d963f0c146"),
    ("matrix -n 2 -m 12 --ordering lex --which B --format matrixmarket",
     "33e2c6f8259ca3876f2e4f108d39261ba7fec3302183b7486d9d0ece624fa38a"),
    ("matrix -n 2 -m 12 --ordering lex --which B --format json",
     "30031c361c8fb18a07f56cd4efbcf461b9a434a0453a3b969cc7e6af8dfca32f"),
    ("matrix -n 3 -m 6 --ordering lex --which A --format table",
     "f16a3438590f792db27f691b3007ab32030dc5fc51717b408e4ab0797d67fd51"),
    ("matrix -n 3 -m 6 --ordering lex --which A --format csv",
     "e516369a7a75d1c18d6502b2095983bd206c7920359372c868babc2d7b58c148"),
    ("matrix -n 3 -m 6 --ordering lex --which A --format matrixmarket",
     "5e24800a80163529fe526db8c5c450219afe898b1b949fe8b15237e6973c2435"),
    ("matrix -n 3 -m 6 --ordering lex --which A --format json",
     "f82b6425e9c786862dcc8723ae72bd9729fb83e257f2aea3f34061d750374418"),
    ("matrix -n 3 -m 6 --ordering lex --which B --format table",
     "d07ceab5519dab747057ab12c915f2b4c983bde4738b71fb3613602ace475735"),
    ("matrix -n 3 -m 6 --ordering lex --which B --format csv",
     "a29298cac616042614b0c405f4f3be89229d815fbc0807f8cbf1d9c61a4fb3df"),
    ("matrix -n 3 -m 6 --ordering lex --which B --format matrixmarket",
     "c5dd38acf39aa54cf484946a293cace717245e37cfa3253e9f75c576d86e6144"),
    ("matrix -n 3 -m 6 --ordering lex --which B --format json",
     "bdcb2cae0b25addc02c3f4768f013397b967f00a03f00f3a55322b4c83767c78"),
    ("spectrum -n 3 -m 4 --verify",
     "26e8385565f7bbfe094c395847979289e923bebd4a7fd0725519b5f1e73c314f"),
    ("spectrum -n 3 -m 10 --verify",
     "6521416413fa5eb91c1cbd67d0f60951c2f8f65eaf844f948b2f1fdf66f6ec79"),
    ("points -n 3 -m 12 --format json",
     "3c0e4918d6fb22a7d420597a0a5f8c935475e5cdcd08fb301adf0af6d1c51043"),
    # nine PASS lines, names and order fixed
    ("selftest",
     "1516f23db9275bc1628f12d2234e9e1ec2c8dfd9424c84afc05c4f6dc5cca306"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_DIGESTS, ids=[a for a, _ in GOLDEN_DIGESTS])
def test_golden_output_digests(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
