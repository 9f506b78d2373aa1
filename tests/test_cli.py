import json
import os
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from m2z.bigpicture import ball, export_dot, export_json, parse_vertex
from m2z.cli import main
from m2z.supernatural import MoebiusMatrix, moebius_apply, parse_supernatural
from m2z import supernatural, zeta
from m2z.textout import CHUNK_PARTS
from m2z.zeta import MAX_ZETA_TERMS, count_primitive_by_det, psi_coeffs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHnfCommand:
    def test_canonical_input(self, capsys):
        code, out, _ = run(capsys, "hnf", "2,0;0,1")
        assert code == 0
        assert json.loads(out) == {"hnf": [[2, 0], [0, 1]], "det": 2, "primitive": True, "content": 1}

    def test_permuted_input_same_payload(self, capsys):
        _, out1, _ = run(capsys, "hnf", "2,0;0,1")
        _, out2, _ = run(capsys, "hnf", "0,1;2,0")
        assert out1 == out2

    def test_singular_exit_code(self, capsys):
        code, out, err = run(capsys, "hnf", "1,2;2,4")
        assert code == 1
        assert out == ""
        assert "SingularMatrix" in err

    def test_parse_failure_exit_code(self, capsys):
        code, _, err = run(capsys, "hnf", "1,2;3")
        assert code == 2
        assert "parse error" in err

    def test_roundtrip_through_literal(self, capsys):
        code, out, _ = run(capsys, "hnf", "4,7;2,3")
        payload = json.loads(out)
        [[a, b], [_, d]] = payload["hnf"]
        code2, out2, _ = run(capsys, "hnf", f"{a},{b};0,{d}")
        assert json.loads(out2) == payload

    def test_help_names_the_literal_like_every_other_command(self, capsys):
        code, out, _ = run(capsys, "hnf", "--help")
        assert code == 0
        assert '"a,b;c,d"' in out
        assert "a11" not in out


class TestDistCommand:
    def test_identical_inputs(self, capsys):
        code, out, _ = run(capsys, "dist", "M=1,r=0", "M=1,r=0")
        assert code == 0
        assert json.loads(out) == {"delta": 1, "via_alpha": 1, "agree": True}

    def test_vertex_pair(self, capsys):
        _, out, _ = run(capsys, "dist", "M=2/1,r=0/1", "M=1/2,r=0/1")
        assert json.loads(out) == {"delta": 4, "via_alpha": 4, "agree": True}

    def test_matrix_pair(self, capsys):
        _, out, _ = run(capsys, "dist", "2,0;0,1", "1,0;0,2")
        payload = json.loads(out)
        assert payload["delta"] == 4 and payload["agree"] is True

    def test_imprimitive_matrix_has_no_alpha_route(self, capsys):
        _, out, _ = run(capsys, "dist", "2,0;0,2", "1,0;0,1")
        assert json.loads(out) == {"delta": 4, "via_alpha": None, "agree": None}

    def test_bad_literal(self, capsys):
        code, _, _ = run(capsys, "dist", "M=", "M=1,r=0")
        assert code == 2


class TestBallCommand:
    def test_radius_one(self, capsys):
        code, out, err = run(capsys, "ball", "M=1,r=0", "--radius", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["vertices"] == [{"M": "1/1", "r": "0/1", "det": 1}]
        assert payload["edges"] == []
        assert "vertices: 1 edges: 0" in err

    def test_radius_two_counts(self, capsys):
        code, out, err = run(capsys, "ball", "M=1,r=0", "--radius", "2")
        payload = json.loads(out)
        assert len(payload["vertices"]) == 4
        assert len(payload["edges"]) == 3
        assert "vertices: 4 edges: 3" in err

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "ball", "M=1,r=0", "--radius", "2", "--format", "dot")
        assert code == 0
        assert out.startswith("graph picture {\n")
        assert out.count("--") == 3
        assert out.endswith("}\n")

    def test_dot_byte_stable(self, capsys):
        outs = {run(capsys, "ball", "M=1,r=0", "--radius", "6", "--format", "dot")[1] for _ in range(3)}
        assert len(outs) == 1

    def test_bad_flag_usage(self, capsys):
        code, _, _ = run(capsys, "ball", "M=1,r=0", "--radius", "2", "--format", "yaml")
        assert code == 2

    def test_large_determinant_center(self, capsys):
        code, _, err = run(capsys, "ball", "M=1000000000039,r=0", "--radius", "3")
        assert code == 0
        assert "vertices: 8 edges: 7" in err

    @pytest.mark.parametrize("center, radius", [("M=1,r=0", 36), ("M=3/2,r=1/2", 12), ("M=625/16,r=3/16", 6)])
    def test_stdout_is_the_export(self, capsys, center, radius):
        # det embed(625/16, 3/16) = 10^4
        graph = ball(parse_vertex(center), radius)
        _, out, err = run(capsys, "ball", center, "--radius", str(radius), "--format", "dot")
        assert out == export_dot(graph)
        assert err == f"vertices: {len(graph.classes)} edges: {len(graph.edges)}\n"
        _, out, _ = run(capsys, "ball", center, "--radius", str(radius), "--format", "json")
        assert out == export_json(graph) + "\n"

    @pytest.mark.parametrize("fmt", ["dot", "json"])
    def test_large_ball_is_written_in_chunks(self, capsys, monkeypatch, fmt):
        writes = []
        real_write = sys.stdout.write

        def write(text):
            writes.append(text)
            return real_write(text)

        monkeypatch.setattr(sys.stdout, "write", write)
        code, out, _ = run(capsys, "ball", "M=1,r=0", "--radius", "100", "--format", fmt)
        assert code == 0
        assert len(writes) > 2
        assert max(map(len, writes)) < len(out)

    def test_non_primitive_centre_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "ball", "2,0;0,2", "--radius", "3")
        assert (code, out, err) == (1, "", "error: NotPrimitive: 2,0;0,2 has content 2\n")

    def test_first_ball_over_the_guard_writes_nothing(self, capsys):
        # sum_{n <= 726} psi(n) = 401,074: the streamed origin ball is refused before its first byte
        code, out, err = run(capsys, "ball", "M=1,r=0", "--radius", "726")
        assert code == 2
        assert out == ""
        assert err == "too large: a ball of radius 726 has over 400000 vertices\n"


class TestZetaCommand:
    def test_full_monoid_formula(self, capsys):
        code, out, _ = run(capsys, "zeta", "--which", "M", "--terms", "4")
        assert code == 0
        assert out == "1,1\n2,3\n3,4\n4,7\n"

    def test_header_flag(self, capsys):
        _, out, _ = run(capsys, "zeta", "--which", "M", "--terms", "2", "--header")
        assert out == "n,coefficient\n1,1\n2,3\n"

    def test_primitive_table(self, capsys):
        _, out, _ = run(capsys, "zeta", "--which", "P", "--terms", "4")
        assert out.endswith("4,6\n")

    def test_axpb_all_ones(self, capsys):
        _, out, _ = run(capsys, "zeta", "--which", "Pbar", "--terms", "4")
        assert out == "1,1\n2,1\n3,1\n4,1\n"

    def test_both_mode_reports_mismatches(self, capsys):
        code, out, err = run(capsys, "zeta", "--which", "P", "--terms", "6", "--mode", "both", "--header")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,formula,enumerated"
        assert lines[1] == "1,1,1"
        assert lines[-1] == "6,12,12"
        assert "mismatches: 0" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("wrong", [1, 2, 37])
    def test_both_mode_counts_the_entries_that_differ(self, capsys, monkeypatch, fmt, wrong):
        sigma = zeta._sigma_table

        def faulty(n):  # the formula, wrong at `wrong` entries spread over the table
            table = sigma(n)
            for k in range(1, n + 1, n // wrong)[:wrong]:
                table[k] += 1
            return table

        monkeypatch.setattr(zeta, "_sigma_table", faulty)
        code, out, err = run(capsys, "zeta", "--which", "M", "--terms", "1000", "--mode", "both", "--format", fmt)
        assert (code, err) == (0, f"mismatches: {wrong}\n")
        if fmt == "json":
            assert json.loads(out)["mismatches"] == wrong

    def test_json_format(self, capsys):
        _, out, _ = run(capsys, "zeta", "--which", "M", "--terms", "4", "--format", "json")
        assert json.loads(out) == [1, 3, 4, 7]

    def test_bad_which(self, capsys):
        code, _, _ = run(capsys, "zeta", "--which", "X", "--terms", "4")
        assert code == 2

    @pytest.mark.parametrize("which", ["Pbar", "P"])
    def test_absurd_term_count_is_a_usage_error(self, capsys, which):
        # refused by the MAX_ZETA_TERMS guard, so this allocates nothing
        code, out, err = run(capsys, "zeta", "--which", which, "--terms", str(10**20))
        assert code == 2
        assert out == ""
        assert err.startswith("too large: ")

    def test_long_csv_is_written_in_chunks(self, capsys, monkeypatch):
        writes = []
        real_write = sys.stdout.write

        def write(text):
            writes.append(text)
            return real_write(text)

        monkeypatch.setattr(sys.stdout, "write", write)
        code, out, _ = run(capsys, "zeta", "--which", "Pbar", "--terms", "40000", "--header")
        assert code == 0
        assert out == "n,coefficient\n" + "".join(f"{i},1\n" for i in range(1, 40001))
        assert len(writes) > 2

    # the JSON parts' edges, and the decimal blocks' edges, where a row number gains a digit
    @pytest.mark.parametrize("terms", [
        1, CHUNK_PARTS - 1, CHUNK_PARTS, CHUNK_PARTS + 1, 2 * CHUNK_PARTS + 1,
        999, 1000, 1001, 1999, 2001, 9999, 10000, 10001,
    ])
    @pytest.mark.parametrize("which, formula, enumeration", [
        ("M", zeta.sigma_coeffs, zeta.count_classes_by_det),
        ("P", zeta.psi_coeffs, zeta.count_primitive_by_det),
        ("Pbar", zeta.axpb_count, zeta.axpb_count),
    ])
    @pytest.mark.parametrize("mode", ["formula", "both"])
    def test_block_edges_write_the_row_at_a_time_text(self, capsys, terms, which, formula, enumeration, mode):
        f, e = formula(terms).coeffs[1:], enumeration(terms).coeffs[1:]
        if mode == "formula":
            header, csv = "n,coefficient\n", "".join(f"{n},{c}\n" for n, c in enumerate(f, 1))
            dumped, err = json.dumps(f), ""
        else:
            header, csv = "n,formula,enumerated\n", "".join(f"{n},{c},{d}\n" for n, c, d in zip(range(1, terms + 1), f, e))
            dumped, err = json.dumps({"formula": f, "enumerated": e, "mismatches": 0}), "mismatches: 0\n"
        for options, out in [
            ((), csv),
            (("--header",), header + csv),
            (("--format", "json"), dumped + "\n"),
            (("--format", "json", "--header"), dumped + "\n"),
        ]:
            argv = ("zeta", "--which", which, "--terms", str(terms), "--mode", mode, *options)
            assert run(capsys, *argv) == (0, out, err), argv

    @pytest.mark.parametrize("mode", ["formula", "both"])
    def test_long_json_is_the_dumps_text_written_in_chunks(self, capsys, monkeypatch, mode):
        writes = []
        real_write = sys.stdout.write

        def write(text):
            writes.append(text)
            return real_write(text)

        monkeypatch.setattr(sys.stdout, "write", write)
        code, out, _ = run(capsys, "zeta", "--which", "P", "--terms", "3000", "--mode", mode, "--format", "json")
        assert code == 0
        formula = psi_coeffs(3000).coeffs[1:]
        if mode == "formula":
            assert out == json.dumps(formula) + "\n"
        else:
            enumerated = count_primitive_by_det(3000).coeffs[1:]
            assert out == json.dumps({"formula": formula, "enumerated": enumerated, "mismatches": 0}) + "\n"
        assert len(writes) > 2
        assert max(map(len, writes)) < len(out) // 2


class TestExtCommand:
    def test_equiv_prime_powers(self, capsys):
        code, out, _ = run(capsys, "ext", "equiv", "2^1", "2^3")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "Equivalent"
        assert "witness" in payload

    def test_equiv_obstruction(self, capsys):
        _, out, _ = run(capsys, "ext", "equiv", "2^1", "3^1")
        assert json.loads(out) == {"verdict": "NotEquivalent", "reason": "prime-divisor-obstruction"}

    def test_apply(self, capsys):
        code, out, _ = run(capsys, "ext", "apply", "31,0;-1,30", "2^4*5^2*3^inf")
        assert code == 0
        assert out.strip() == "2^5*3^inf*5^3"

    def test_apply_not_a_unit(self, capsys):
        code, out, _ = run(capsys, "ext", "apply", "4,0;-1,4", "2^2")
        assert code == 1
        assert json.loads(out) == {"error": "NotAUnit", "prime": 2}

    def test_apply_degenerate(self, capsys):
        code, out, _ = run(capsys, "ext", "apply", "1,2;2,4", "2^2")
        assert code == 1
        assert json.loads(out) == {"error": "Degenerate"}

    @pytest.mark.parametrize(
        "matrix, z, out, message",
        [
            ("2,3;0,1", "0", '{"error": "NotRepresentable"}', "all components map to 3/2"),
            ("1,-1;0,2", "2^1", '{"error": "NotRepresentable", "prime": 2}', "component at 2 maps to 3"),
            ("3,0;-1,2", "2^2", '{"error": "NotRepresentable", "prime": 2}', "component at 2 maps to -8"),
            ("2,1;0,2", "2^1", '{"error": "NotRepresentable"}', "default components map to 3/2"),
            ("1,2;0,-2", "5^1", '{"error": "NotRepresentable"}', "default components map to 0"),
        ],
    )
    def test_apply_not_representable(self, capsys, matrix, z, out, message):
        assert run(capsys, "ext", "apply", "--", matrix, z) == (1, out + "\n", f"error: NotRepresentable: {message}\n")

    def test_member(self, capsys):
        # "--" ends option parsing so negative rationals pass through
        code, out, _ = run(capsys, "ext", "member", "2^1", "--", "-1/3", "1/3")
        assert code == 0
        assert out.strip() == "true"
        _, out, _ = run(capsys, "ext", "member", "2^1", "1/3", "1/3")
        assert out.strip() == "false"

    def test_member_with_explicit_s(self, capsys):
        _, out, _ = run(capsys, "ext", "member", "1", "1/2", "0", "--s", "2^1", "--sprime", "0")
        assert out.strip() == "true"

    def test_bad_supernatural_literal(self, capsys):
        code, _, err = run(capsys, "ext", "equiv", "4^1", "2^1")
        assert code == 2
        assert "parse error" in err

    def test_removed_flag_is_a_usage_error(self, capsys):
        code, out, _ = run(capsys, "ext", "equiv", "2^1", "2^3", "--search-bound", "5")
        assert code == 2
        assert out == ""

    def test_readme_examples(self, capsys):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        examples = [line for line in readme.read_text().splitlines() if line.startswith("m2z ext ")]
        assert len(examples) == 4
        for line in examples:
            command, _, expected = line.partition("#")
            code, out, _ = run(capsys, *shlex.split(command)[1:])
            assert code == 0
            assert out == expected.strip() + "\n", command


class TestLargePrimeLiterals:
    # trial division kept the first two running past a 10 s timeout,
    # stripping 2 one factor at a time kept the third running for 28 s, and
    # the fourth took 4.3 s in Fraction arithmetic; each now takes well under
    # a second, so a 5 s timeout in a fresh process catches a regression
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("ext", "member", "1", "--", "1/100000000000000000039", "0"), "false\n"),
            (("ext", "apply", "1,0;0,1", "1000000000000000003^1"), "1000000000000000003^1\n"),
            (("ext", "apply", "1,0;0,1", "2^300000"), "2^300000\n"),
            (
                ("ext", "equiv", "2^200000*3^204000*5^inf", "2^200001*3^204001*5^inf"),
                '{"verdict": "NotEquivalent", "reason": "infeasible-system"}\n',
            ),
        ],
    )
    def test_answers_in_time(self, argv, expected):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run(
            [sys.executable, "-m", "m2z.cli", *argv], env=env, capture_output=True, text=True, timeout=5
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == expected


class TestAnswersOverTheDefaultDigitCap:
    # int.__str__ refuses more than 4,300 digits by default; these literals
    # parse within it, but the answers are longer
    def test_equiv_witness(self, capsys):
        digits = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "ext", "equiv", "2^1", "2^20000")
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == digits  # main restores the cap
        sys.set_int_max_str_digits(0)
        try:
            payload = json.loads(out)
            (a, b), (c, d) = payload["witness"]
            image = moebius_apply(MoebiusMatrix(a, b, c, d), parse_supernatural("2^1"))
            assert payload["verdict"] == "Equivalent"
            assert image == parse_supernatural("2^20000")
        finally:
            sys.set_int_max_str_digits(digits)

    def test_distance_of_two_long_classes(self, capsys):
        digits = sys.get_int_max_str_digits()
        x, y = "3" * 3000, "7" * 3000
        code, out, err = run(capsys, "dist", f"M={x},r=0", f"M=1/{y},r=0")
        assert (code, err) == (0, "")
        expected = int(x) * int(y)
        sys.set_int_max_str_digits(0)
        try:
            assert json.loads(out) == {"delta": expected, "via_alpha": expected, "agree": True}
        finally:
            sys.set_int_max_str_digits(digits)


def zeta_at_the_limit(tmp_path, megabytes, *options):
    """``m2z zeta`` at MAX_ZETA_TERMS terms, its address space capped at
    ``megabytes``: the exit code, the file that holds its stdout, its stderr."""
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (megabytes << 20, megabytes << 20))

    src = Path(__file__).resolve().parent.parent / "src"
    argv = [sys.executable, "-m", "m2z.cli", "zeta", "--terms", str(MAX_ZETA_TERMS), *options]
    with open(tmp_path / "stdout", "wb") as out:
        result = subprocess.run(
            argv,
            env=dict(os.environ, PYTHONPATH=str(src)),
            stdout=out,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
            preexec_fn=cap_address_space,
        )
    return result.returncode, tmp_path / "stdout", result.stderr


def test_out_of_memory_is_a_usage_error(tmp_path):
    # the largest table the guard allows needs about 48 MB of address space,
    # 18 MB of it the interpreter's, so a 32 MB cap refuses it part way: the
    # MemoryError comes from an allocation, not from a size guard, and
    # cli.main still maps it to exit 2
    code, out, err = zeta_at_the_limit(tmp_path, 32, "--which", "P")
    assert code == 2
    assert out.stat().st_size == 0
    assert err == "too large: the answer does not fit in memory\n"


@pytest.mark.parametrize("options, last_row, stderr", [
    (("--which", "P"), b"3000000,7200000\n", ""),
    (("--which", "M", "--mode", "both"), b"3000000,9921748,9921748\n", "mismatches: 0\n"),
], ids=["P", "M-both"])
def test_the_largest_tables_fit_in_128_mb(tmp_path, options, last_row, stderr):
    # the tables are arrays of machine words; as tables of int objects they did not fit
    code, out, err = zeta_at_the_limit(tmp_path, 128, *options)
    assert (code, err) == (0, stderr)
    with open(out, "rb") as written:
        rows = sum(chunk.count(b"\n") for chunk in iter(lambda: written.read(1 << 20), b""))
        written.seek(-len(last_row), os.SEEK_END)
        assert (rows, written.read()) == (MAX_ZETA_TERMS, last_row)


def test_ball_over_the_size_guard_is_refused_at_once():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    ball = [sys.executable, "-m", "m2z.cli", "ball", "M=1,r=0", "--radius"]
    result = subprocess.run(ball + ["100000"], env=env, capture_output=True, text=True, timeout=5)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("too large:")
    assert result.stderr.count("\n") == 1
    result = subprocess.run(ball + ["155"], env=env, capture_output=True, text=True, timeout=30)
    assert result.returncode == 0
    assert result.stderr == "vertices: 18310 edges: 37633\n"


def test_ball_around_a_large_centre_is_refused_at_once():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    center = f"M={10**400 + 1}/7,r=1/{10**300 + 7}"
    argv = [sys.executable, "-m", "m2z.cli", "ball", center, "--radius", "300"]
    result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=5)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("too large:")
    assert result.stderr.count("\n") == 1


def test_goormaghtigh_over_the_size_guard_is_refused_at_once():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "m2z.cli", "goormaghtigh", "--bound", str(10**24)]
    result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=5)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("too large:")
    assert result.stderr.count("\n") == 1


class TestGoormaghtighCommand:
    def test_first_row(self, capsys):
        code, out, _ = run(capsys, "goormaghtigh", "--bound", "31")
        assert code == 0
        assert out == "2,5,5,3,31\n"

    def test_empty_below_threshold(self, capsys):
        code, out, _ = run(capsys, "goormaghtigh", "--bound", "30")
        assert code == 0
        assert out == ""

    def test_header(self, capsys):
        _, out, _ = run(capsys, "goormaghtigh", "--bound", "31", "--header")
        assert out == "x,y,n,m,value\n2,5,5,3,31\n"

    def test_header_alone_below_threshold(self, capsys):
        code, out, _ = run(capsys, "goormaghtigh", "--bound", "30", "--header")
        assert code == 0
        assert out == "x,y,n,m,value\n"

    @pytest.mark.parametrize("bound, rows", [(30, 0), (10**9, 2)])
    @pytest.mark.parametrize("header", [False, True])
    def test_rows_are_the_f_string_text(self, capsys, bound, rows, header):
        found = supernatural.goormaghtigh_search(bound)
        assert len(found) == rows
        text = "x,y,n,m,value\n" * header + "".join(f"{x},{y},{n},{m},{value}\n" for x, y, n, m, value in found)
        code, out, _ = run(capsys, "goormaghtigh", "--bound", str(bound), *["--header"] * header)
        assert (code, out) == (0, text)

    def test_note_emitted_at_second_solution(self, capsys):
        code, out, err = run(capsys, "goormaghtigh", "--bound", "10000")
        assert code == 0
        assert out == "2,5,5,3,31\n2,90,13,3,8191\n"
        assert "(90^2-1)/(90-1) = 91" in err


class TestDeterminism:
    BATTERY = [
        ("hnf", "0,1;2,0"),
        ("dist", "M=2/1,r=0/1", "M=1/2,r=0/1"),
        ("ball", "M=1,r=0", "--radius", "6", "--format", "json"),
        ("ball", "M=1,r=0", "--radius", "6", "--format", "dot"),
        ("zeta", "--which", "M", "--terms", "20", "--mode", "both"),
        ("zeta", "--which", "P", "--terms", "20", "--header"),
        ("zeta", "--which", "Pbar", "--terms", "5"),
        ("ext", "equiv", "2^1", "2^3"),
        ("ext", "equiv", "2^2*3^1", "2^1*3^2"),
        ("ext", "apply", "31,0;-1,30", "2^4*5^2*3^inf"),
        ("ext", "member", "2^1*5^inf", "--", "-1/3", "1/3"),
        ("goormaghtigh", "--bound", "10000", "--header"),
    ]

    @pytest.mark.parametrize("argv", BATTERY, ids=lambda a: " ".join(a)[:40])
    def test_three_runs_byte_identical(self, capsys, argv):
        outputs = [run(capsys, *argv) for _ in range(3)]
        assert len({out for _, out, _ in outputs}) == 1
        assert len({code for code, _, _ in outputs}) == 1


def _fresh_run(*argv):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "m2z.cli", *argv], env=env, capture_output=True, text=True, timeout=5)


# Number forms outside the literal grammar (ASCII digits, an optional sign, one
# "/" in a rational): each of these exited 0 when Fraction or int read them.
@pytest.mark.parametrize(
    "argv",
    [
        ("dist", "M=1e3,r=0", "M=1,r=0"),
        ("ext", "member", "2^1", "0.5", "1/3"),
        ("hnf", "1_000,0;0,1"),
        ("ext", "equiv", "٣^1", "3^1"),  # ARABIC-INDIC DIGIT THREE
        ("dist", "r=0,M=1", "M=1,r=0"),
    ],
)
def test_removed_number_form_is_a_parse_error(argv):
    result = _fresh_run(*argv)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("parse error:")
    assert result.stderr.count("\n") == 1


# A zero denominator is outside the grammar: the message names the form and
# the literal, as for any other bad literal (it was "Fraction(1, 0)").
@pytest.mark.parametrize(
    "argv, form, literal",
    [
        (("dist", "M=1/0,r=0", "M=1,r=0"), '"M=num/den,r=g/h"', "M=1/0,r=0"),
        (("dist", "M=1,r=0", "M=2,r=1/ 000"), '"M=num/den,r=g/h"', "M=2,r=1/ 000"),
        (("ext", "apply", "1,0;0,1/0", "2^1"), '"a,b;c,d" with entries num/den', "1,0;0,1/0"),
        (("ext", "member", "2^1", "1/0", "1/3"), "a rational num/den", "1/0"),
        (("ext", "member", "2^1", "--", "1/3", "-7/00"), "a rational num/den", "-7/00"),
    ],
)
def test_zero_denominator_is_a_parse_error(capsys, argv, form, literal):
    assert run(capsys, *argv) == (2, "", f"parse error: expected {form}, got {literal!r}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("dist", "M=1/" + "0" * 10**6 + ",r=0", "M=1,r=0"),
        ("ext", "apply", "1,0;0,1/" + "0" * 10**6, "2^1"),
        ("ext", "member", "2^1", "1/" + "0" * 10**6, "1/3"),
    ],
)
def test_long_zero_denominator_is_refused_in_linear_time(capsys, argv):
    # 10^6 zeros: a quadratic match would run for minutes
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err.startswith("parse error: expected ") and err.count("\n") == 1


# Unguarded, each of these ran for 14 s to over a minute: Fraction expanded the
# exponent form, or a huge supernatural value was raised to a power or tested
# for primality.  Each is now refused before any of that.
_ODD_BASE = "1" + "0" * 4930 + "7"  # 10^4931 + 7, with no prime factor below 43


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (("dist", "M=1e1000000,r=0", "M=1,r=0"), "parse error:"),
        (("dist", "M=1e10000000,r=0", "M=1,r=0"), "parse error:"),
        (("ext", "apply", "1,0;0,1", "2^3000000"), "too large:"),
        (("ext", "equiv", "2^1", "2^3000000"), "too large:"),
        (("ext", "apply", "1,0;0,1", f"{_ODD_BASE}^1"), "too large:"),
    ],
)
def test_literal_bomb_is_refused_at_once(argv, prefix):
    result = _fresh_run(*argv)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith(prefix)
    assert result.stderr.count("\n") == 1


def _fresh_python(*args):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-W", "error", *args], env=env, capture_output=True, text=True, timeout=30)


# `import m2z` registers every library module unexecuted; one runs on the first
# access to its attributes.  type() does not trigger that load: it is
# types.ModuleType only for a module that has run.
_EXECUTED = "sorted(n[4:] for n, m in sys.modules.items() if n.startswith('m2z.') and type(m) is types.ModuleType)"
_CALL_PROBE = f"""
import contextlib, io, sys, types
before = set(sys.modules)
from m2z.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
loaded = [name for name in ("fractions", "heapq", "json") if name in set(sys.modules) - before]  # taken before the probe imports json
import json
print(json.dumps([code, {_EXECUTED}, loaded]))
"""


# unexecuted: the m2z modules, and json and heapq, that the call must not run;
# the tables are integers, written by textout's % formats without json, and
# only the goormaghtigh search merges with heapq
@pytest.mark.parametrize(
    "argv, unexecuted",
    [
        (("hnf", "0,1;2,0"), {"bigpicture", "localposet", "supernatural", "textout", "zeta"}),
        (("zeta", "--which", "M", "--terms", "10"), {"bigpicture", "localposet", "matrices", "supernatural", "json"}),
        (("ext", "equiv", "2^1", "2^3"), {"bigpicture", "localposet", "textout", "zeta", "heapq"}),
        (
            ("zeta", "--which", "P", "--terms", "2000", "--mode", "both", "--format", "json"),
            {"bigpicture", "localposet", "matrices", "supernatural", "json"},
        ),
        (("goormaghtigh", "--bound", "10000", "--header"), {"bigpicture", "localposet", "zeta", "json"}),
    ],
)
def test_a_call_runs_only_the_modules_of_its_subcommand(argv, unexecuted):
    result = _fresh_python("-c", _CALL_PROBE, *argv)
    assert result.stderr == ""
    code, executed, loaded = json.loads(result.stdout)
    assert code == 0
    assert not unexecuted & {*executed, *loaded}
    assert "fractions" not in loaded  # nothing in these calls builds a rational


# off the origin too: an integer or matrix centre is moved in integers, never unembedded
@pytest.mark.parametrize("center", ["M=1,r=0", "1,0;0,1", "2,1;0,3", "M=2,r=0"])
def test_an_origin_ball_call_runs_bigpicture_and_loads_no_fractions_or_json(center):
    result = _fresh_python("-c", _CALL_PROBE, "ball", center, "--radius", "3")
    assert result.stderr == ""
    code, executed, loaded = json.loads(result.stdout)
    assert code == 0 and "bigpicture" in executed
    assert not {"localposet", "supernatural", "zeta"} & set(executed)
    assert loaded == []  # the ball is streamed as integer triples and written without json


def test_a_module_whose_first_run_raised_runs_again_on_the_next_access():
    probe = """
import sys, types
import m2z
math, sys.modules["math"] = sys.modules["math"], None  # zeta's own "from math import ..." fails
try:
    m2z.zeta.sigma_coeffs
except ImportError:
    print("ImportError")
sys.modules["math"] = math
print(m2z.zeta.sigma_coeffs(4).coeffs, type(sys.modules["m2z.zeta"]) is types.ModuleType)
"""
    result = _fresh_python("-c", probe)
    assert (result.stdout, result.stderr) == ("ImportError\n(0, 1, 3, 4, 7) True\n", "")


def test_star_import_binds_the_public_names_of_the_six_modules():
    probe = """
import m2z.bigpicture, m2z.errors, m2z.localposet, m2z.matrices, m2z.supernatural, m2z.zeta
modules = [m2z.bigpicture, m2z.errors, m2z.localposet, m2z.matrices, m2z.supernatural, m2z.zeta]
expected = {name: getattr(m, name) for m in modules for name in m.__all__}
namespace = {}
exec("from m2z import *", namespace)
del namespace["__builtins__"]
print(namespace.keys() == expected.keys(), all(namespace[k] is v for k, v in expected.items()))
"""
    result = _fresh_python("-c", probe)
    assert (result.stdout, result.stderr) == ("True True\n", "")


def test_the_version_loads_no_module():
    result = _fresh_python("-c", f"import sys, types, m2z; m2z.__version__; print({_EXECUTED})")
    assert (result.stdout, result.stderr) == ("[]\n", "")


def test_running_the_cli_module_warns_nothing():
    # runpy warns, and runs the module twice, when the package has already put m2z.cli in sys.modules
    result = _fresh_python("-m", "m2z.cli", "hnf", "0,1;2,0")
    assert (result.returncode, result.stderr) == (0, "")


def test_threads_that_touch_a_module_first_all_find_it_whole():
    # the first access runs the module while the other threads wait for the end of the run
    probe = """
import sys, threading
import m2z
sys.setswitchinterval(1e-6)
barrier, seen = threading.Barrier(8), []
def touch():
    barrier.wait()
    seen.append(m2z.supernatural.goormaghtigh_witness)  # the last name the module binds
threads = [threading.Thread(target=touch) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(10)
print(len(seen), len(set(seen)), any(t.is_alive() for t in threads))
"""
    result = _fresh_python("-c", probe)
    assert (result.stdout, result.stderr) == ("8 1 False\n", "")
