import json
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from m2z.cli import main


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

    def test_json_format(self, capsys):
        _, out, _ = run(capsys, "zeta", "--which", "M", "--terms", "4", "--format", "json")
        assert json.loads(out) == [1, 3, 4, 7]

    def test_bad_which(self, capsys):
        code, _, _ = run(capsys, "zeta", "--which", "X", "--terms", "4")
        assert code == 2

    @pytest.mark.parametrize("which", ["Pbar", "P"])
    def test_absurd_term_count_is_a_usage_error(self, capsys, which):
        # 10**20 terms cannot even be sized as a list, so this allocates nothing
        code, out, err = run(capsys, "zeta", "--which", which, "--terms", str(10**20))
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: ")

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
    # trial division kept both running past a 10 s timeout; each now takes
    # well under a second, so a 5 s timeout in a fresh process catches a
    # regression
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("ext", "member", "1", "--", "1/100000000000000000039", "0"), "false\n"),
            (("ext", "apply", "1,0;0,1", "1000000000000000003^1"), "1000000000000000003^1\n"),
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


def test_out_of_memory_is_a_usage_error():
    # the sieve asks for about 8 GB in one allocation, which a 1 GB
    # address-space cap refuses at once
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-m", "m2z.cli", "zeta", "--which", "P", "--terms", "1000000000"],
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=cap_address_space,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("too large:")
    assert result.stderr.count("\n") == 1


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
