"""CLI surface: formats, exit codes, determinism, and pinned golden output."""

import csv
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qnary.cli import main
from qnary.debruijn import _braced, primitive_pseudo_orbits
from qnary.words import lyndon_words

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_fresh(*argv, timeout=60, **kwargs):
    # a fresh interpreter, so neither a hang nor a memory blow-up can take the
    # suite with it, and sys.modules starts empty
    return subprocess.run(
        [sys.executable, *argv], env=fresh_env(), capture_output=True, text=True,
        timeout=timeout, **kwargs,
    )


# --- lyndon list ----------------------------------------------------------------


# above ten letters words print comma-separated, as str(Word) does
Q12_L2 = [str(w) for w in lyndon_words(12, 2)]


def test_lyndon_list_plain(capsys):
    code, out, _ = run(capsys, "lyndon", "list", "--q", "2", "--l", "4")
    assert code == 0
    assert out.splitlines() == ["0001", "0011", "0111"]
    code, out, _ = run(capsys, "lyndon", "list", "--q", "12", "--l", "2")
    assert code == 0
    assert out.splitlines() == Q12_L2


def test_lyndon_list_json(capsys):
    code, out, _ = run(capsys, "lyndon", "list", "--q", "2", "--l", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == ["0001", "0011", "0111"]
    code, out, _ = run(capsys, "lyndon", "list", "--q", "12", "--l", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == Q12_L2


def test_lyndon_list_zero_length_is_usage_error(capsys):
    code, out, err = run(capsys, "lyndon", "list", "--q", "2", "--l", "0")
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("length", [40, 10**9])
def test_lyndon_list_over_budget_exits_3_promptly(length):
    # about 2^40/40 words, and at l = 10^9 a count that is never built
    proc = run_fresh("-m", "qnary", "lyndon", "list", "--q", "2", "--l", str(length), timeout=10)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert f"Lyndon words of length {length} over 2 letters exceed budget" in proc.stderr


def test_lyndon_list_within_budget_is_unchanged():
    proc = run_fresh("-m", "qnary", "lyndon", "list", "--q", "2", "--l", "18", timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "".join(f"{w}\n" for w in lyndon_words(2, 18))
    assert len(proc.stdout.splitlines()) == 14532


def one_shot_listing(q, l, fmt):
    # the whole output built at once, as json.dumps and csv.writer give it
    words = [str(w) for w in lyndon_words(q, l)]
    if fmt == "json":
        return json.dumps(words, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([["word"]] + [[w] for w in words])
        return buf.getvalue()
    return "".join(f"{w}\n" for w in words)


# no words at q = 1, l = 2; comma-bearing words quoted in CSV at q = 12; and
# 7,710 words at q = 2, l = 17, which take two chunks
@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
@pytest.mark.parametrize("q,l", [(1, 2), (12, 3), (2, 17)])
def test_lyndon_list_streams_the_one_shot_output(capsys, q, l, fmt):
    code, out, err = run(capsys, "lyndon", "list", "--q", str(q), "--l", str(l), "--format", fmt)
    assert code == 0 and err == ""
    assert out == one_shot_listing(q, l, fmt)


# Runs the CLI as a grandchild with stdout to a file and prints its exit code
# and peak RSS in KiB.  os.wait4 reports the grandchild's own high-water mark;
# the floor Linux carries into it is this small launcher, not the test process.
RSS_PROBE = """
import os, sys
path, *argv = sys.argv[1:]
out = [(os.POSIX_SPAWN_OPEN, 1, path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)]
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "qnary", *argv], os.environ,
                     file_actions=out)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_lyndon_list_streams_in_bounded_memory(tmp_path):
    # 190,557 words: held whole, the listing peaked at 51.7 MiB
    path = tmp_path / "words.txt"
    proc = run_fresh("-c", RSS_PROBE, str(path), "lyndon", "list", "--q", "2", "--l", "22")
    assert proc.returncode == 0, proc.stderr
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 0
    assert peak_kib < 30 * 1024
    assert path.read_text() == "".join(f"{w}\n" for w in lyndon_words(2, 22))


def test_orbits_stream_in_bounded_memory(tmp_path):
    # 131,072 pseudo orbits: held as objects, the JSON listing peaked at 121.7 MiB
    path = tmp_path / "orbits.json"
    argv = ["orbits", "--q", "2", "--m", "1", "--n", "18", "--format", "json"]
    proc = run_fresh("-c", RSS_PROBE, str(path), *argv)
    assert proc.returncode == 0, proc.stderr
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 0
    assert peak_kib < 40 * 1024
    record = json.loads(path.read_text())
    assert record["count"] == len(record["pseudo_orbits"]) == 2**17


# --- factorize ---------------------------------------------------------------------


def test_factorize_plain(capsys):
    code, out, _ = run(capsys, "factorize", "110", "--q", "2")
    assert code == 0
    assert out.strip() == "(1)(1)(0) strict=false"

    code, out, _ = run(capsys, "factorize", "101", "--q", "2")
    assert code == 0
    assert out.strip() == "(1)(01) strict=true"


def test_factorize_letter_out_of_range(capsys):
    code, out, err = run(capsys, "factorize", "2", "--q", "2")
    assert code == 2
    assert "error" in err
    # a letter is ASCII digits only: int() would take these, and the error names the field
    for word, q, field in [
        ("+1,0", "12", "+1"),
        (" 1,0", "12", " 1"),
        ("1_0,3", "12", "1_0"),
        ("\u0661\u0660", "2", "\u0661"),  # Arabic-Indic 1, 0
    ]:
        code, out, err = run(capsys, "factorize", word, "--q", q)
        assert (code, out) == (2, "")
        assert f"error: invalid literal for int() with base 10: {field!r}" in err
    # a comma field has no leading zero: "01,3" would echo as the word "1,3"
    for word, q, field in [("01,3", "12", "01"), ("00,3", "12", "00"), ("1,011", "12", "011"),
                           ("00,1", "2", "00")]:
        code, out, err = run(capsys, "factorize", word, "--q", q, "--format", "csv")
        assert (code, out) == (2, "")
        assert f"error: letter {field!r} has a leading zero" in err
    for word, q in [("0,3", "12"), ("10,0", "12"), ("0011", "2")]:
        assert run(capsys, "factorize", word, "--q", q)[0] == 0


def test_factorize_csv(capsys):
    code, out, _ = run(capsys, "factorize", "0110", "--q", "2", "--format", "csv")
    assert code == 0
    assert out == "word,q,factors,strictly_decreasing\n0110,2,(011)(0),true\n"


def test_factorize_json(capsys):
    code, out, _ = run(capsys, "factorize", "0110", "--q", "2", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["factors"] == ["011", "0"]
    assert record["strictly_decreasing"] is True


_FACTORIZE_Q12 = {
    ("3,11,0,11", "plain"): "(3,11)(0,11) strict=true\n",
    ("3,11,0,11", "csv"): (
        'word,q,factors,strictly_decreasing\n"3,11,0,11",12,"(3,11)(0,11)",true\n'
    ),
    ("3,11,0,11", "json"): (
        '{\n  "word": "3,11,0,11",\n  "q": 12,\n  "factors": [\n    "3,11",\n'
        '    "0,11"\n  ],\n  "strictly_decreasing": true\n}\n'
    ),
    ("11,11,3", "plain"): "(11)(11)(3) strict=false\n",
    ("11,11,3", "csv"): "word,q,factors,strictly_decreasing\n\"11,11,3\",12,(11)(11)(3),false\n",
    ("11,11,3", "json"): (
        '{\n  "word": "11,11,3",\n  "q": 12,\n  "factors": [\n    "11",\n    "11",\n'
        '    "3"\n  ],\n  "strictly_decreasing": false\n}\n'
    ),
}


@pytest.mark.parametrize("word,fmt", list(_FACTORIZE_Q12))
def test_factorize_above_ten_letters_in_every_format(capsys, word, fmt):
    # above q = 10 a word and each factor print as comma-separated letters
    code, out, err = run(capsys, "factorize", word, "--q", "12", "--format", fmt)
    assert (code, out, err) == (0, _FACTORIZE_Q12[word, fmt], "")


# --- count ----------------------------------------------------------------------------


def test_count_both_agrees(capsys):
    code, out, _ = run(capsys, "count", "--q", "2", "--n", "4", "--mode", "both")
    assert code == 0
    assert out.strip() == "formula=8 bruteforce=8 agree=true"


def test_count_bruteforce_only(capsys):
    code, out, _ = run(capsys, "count", "--q", "3", "--n", "2", "--mode", "bruteforce")
    assert code == 0
    assert out.strip() == "bruteforce=6"


def test_count_budget_exceeded(capsys):
    code, out, err = run(capsys, "count", "--q", "2", "--n", "40", "--mode", "bruteforce")
    assert code == 3
    assert "error" in err


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--q", "2", "--n", "5", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record == {"q": 2, "n": 5, "mode": "both", "formula": 16, "bruteforce": 16, "agree": True}


# --- orbits -----------------------------------------------------------------------------


def test_orbits_plain(capsys):
    code, out, _ = run(capsys, "orbits", "--q", "2", "--m", "3", "--n", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "count=8"
    assert lines[:-1] == [
        "{0001}",
        "{001,0}",
        "{0011}",
        "{011,0}",
        "{0111}",
        "{1,001}",
        "{1,01,0}",
        "{1,011}",
    ]


def test_orbits_empty_length(capsys):
    code, out, _ = run(capsys, "orbits", "--q", "2", "--m", "3", "--n", "0")
    assert code == 0
    assert out.splitlines() == ["{}", "count=1"]


def test_orbits_count_closed_form(capsys):
    for n in range(2, 9):
        code, out, _ = run(capsys, "orbits", "--q", "2", "--m", "3", "--n", str(n), "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["count"] == 2 ** (n - 1)
        assert len(record["pseudo_orbits"]) == record["count"]


def test_orbits_budget(capsys):
    code, _, err = run(capsys, "orbits", "--q", "2", "--m", "3", "--n", "4", "--budget", "3")
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--q", "2", "--n", "3", "--mode", "formula", "--budget", "-1"],
        ["orbits", "--q", "2", "--m", "1", "--n", "3", "--budget", "-5"],
        ["coeffs", "--q", "2", "--m", "1", "--k", "1", "--budget", "0"],
    ],
    ids=["count", "orbits", "coeffs"],
)
def test_budget_below_one_is_an_argument_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: --budget must be at least 1, got {argv[-1]}\n"


# each subcommand's valid arguments, and its bounded options in the order they
# are checked: (flag, lowest accepted value, how the refusal states it)
BOUNDED_OPTIONS = {
    "lyndon_list": (["lyndon", "list", "--q", "2", "--l", "3"],
                    [("--q", 1, "at least 1"), ("--l", 1, "at least 1")]),
    "factorize": (["factorize", "0", "--q", "2"], [("--q", 1, "at least 1")]),
    "count": (["count", "--q", "2", "--n", "3"],
              [("--q", 1, "at least 1"), ("--n", 0, "non-negative"),
               ("--budget", 1, "at least 1")]),
    "orbits": (["orbits", "--q", "2", "--m", "1", "--n", "3"],
               [("--q", 2, "at least 2"), ("--m", 1, "at least 1"), ("--n", 0, "non-negative"),
                ("--budget", 1, "at least 1")]),
    "coeffs": (["coeffs", "--q", "2", "--m", "1", "--k", "1"],
               [("--q", 2, "at least 2"), ("--m", 1, "at least 1"), ("--seed", 0, "non-negative"),
                ("--budget", 1, "at least 1")]),
    "variance": (["variance", "--q", "2", "--m", "2", "--n", "4"],
                 [("--q", 2, "at least 2"), ("--m", 1, "at least 1"), ("--n", 0, "non-negative"),
                  ("--samples", 0, "non-negative"), ("--seed", 0, "non-negative")]),
}


@pytest.mark.parametrize("command", BOUNDED_OPTIONS)
def test_option_bounds_are_checked_in_declaration_order(capsys, monkeypatch, command):
    base, bounds = BOUNDED_OPTIONS[command]
    calls = []
    monkeypatch.setattr(f"qnary.cli._cmd_{command}", lambda args: calls.append(args) or 0)

    def argv(values):
        args = list(base)
        for flag, value in values.items():
            if flag in args:
                args[args.index(flag) + 1] = str(value)
            else:
                args += [flag, str(value)]
        return args

    # each option one below its bound, then it and every later one at once:
    # the first of them is reported, before the command starts
    for i, (flag, low, stated) in enumerate(bounds):
        for values in ({flag: low - 1}, {f: lo - 3 for f, lo, _ in bounds[i:]}):
            code, out, err = run(capsys, *argv(values))
            assert (code, out) == (2, "")
            assert err == f"error: {flag} must be {stated}, got {values[flag]}\n"
    assert calls == []
    # each option at its bound, alone and all at once, reaches the command
    for values in [*({flag: low} for flag, low, _ in bounds), {f: lo for f, lo, _ in bounds}]:
        assert run(capsys, *argv(values)) == (0, "", "")
        args = calls.pop()
        assert all(getattr(args, flag[2:]) == low for flag, low in values.items())


def test_orbits_q1_rejected(capsys):
    code, _, err = run(capsys, "orbits", "--q", "1", "--m", "1", "--n", "2")
    assert code == 2


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_refused_orbits_write_no_stdout(capsys, fmt):
    code, out, err = run(capsys, "orbits", "--q", "2", "--m", "1", "--n", "40",
                         "--budget", "1000", "--format", fmt)
    assert code == 3
    assert out == ""
    assert "pseudo orbits of length 40 exceed budget 1000" in err


def one_shot_orbits(q, m, n, fmt):
    # the whole output built at once from the public pseudo orbits
    orbits = primitive_pseudo_orbits(q, n)
    listed = [[str(w) for w in po] for po in orbits]
    shown = [_braced(words, q) for words in listed]
    if fmt == "json":
        record = {"q": q, "m": m, "n": n, "count": len(orbits), "pseudo_orbits": listed}
        return json.dumps(record, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        rows = [[text, len(po), sum(map(len, po))] for text, po in zip(shown, orbits)]
        header = ["pseudo_orbit", "num_orbits", "total_length"]
        csv.writer(buf, lineterminator="\n").writerows([header] + rows)
        return buf.getvalue()
    return "".join(f"{text}\n" for text in shown) + f"count={len(orbits)}\n"


# the empty pseudo orbit at n = 0, and the ";" separator inside CSV quoting at q = 12
@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
@pytest.mark.parametrize("q,n_max,m", [(2, 8, 3), (3, 6, 1), (12, 3, 2)])
def test_orbits_stream_the_one_shot_output(capsys, q, n_max, m, fmt):
    for n in range(n_max + 1):
        args = ["--q", str(q), "--m", str(m), "--n", str(n), "--format", fmt]
        code, out, err = run(capsys, "orbits", *args)
        assert code == 0 and err == ""
        assert out == one_shot_orbits(q, m, n, fmt)


# --- coeffs ------------------------------------------------------------------------------


@pytest.mark.parametrize(
    "k,shown", [("3.5", "3.5"), ("1e7", "10000000"), ("1e12", "1e+12")], ids=["3.5", "1e7", "1e12"]
)
def test_coeffs_both_agree(capsys, k, shown):
    # both routes read U(k)'s per-edge phases, so max_delta stays at rounding for large k
    code, out, _ = run(
        capsys, "coeffs", "--q", "2", "--m", "2", "--k", k, "--seed", "7", "--method", "both"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"q=2 m=2 k={shown} seed=7 method=both"
    assert lines[1] == "a_0 = (1, 0)"
    assert lines[-1].startswith("max_delta=")
    assert float(lines[-1].split("=")[1]) < 1e-9


def test_coeffs_nan_delta_is_a_mismatch(capsys, monkeypatch):
    # max would keep its first value past a NaN delta; the comparison must not
    monkeypatch.setattr("qnary.cli.coeff_from_pseudo_orbits", lambda n, inst, k: complex("nan"))
    code, out, _ = run(capsys, "coeffs", "--q", "2", "--m", "1", "--k", "3.5", "--method", "both")
    assert code == 1
    assert out.splitlines()[-1] == "max_delta=nan"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--q", "2", "--m", "1", "--k", "1e308", "--method", "both"],
        ["coeffs", "--q", "2", "--m", "1", "--k", "1e308", "--method", "orbits"],
        ["coeffs", "--q", "2", "--m", "1", "--k=-1e308", "--method", "det"],
        ["variance", "--q", "2", "--m", "1", "--n", "2", "--samples", "1000",
         "--k-max", "1e308", "--seed", "1"],
    ],
    ids=["coeffs-both", "coeffs-orbits", "coeffs-det", "variance"],
)
def test_overflowing_phase_is_usage_error(capsys, argv):
    # every edge is shorter than 2, so 2 n |k| bounds a phase over n edges
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "is too large: the phase bound" in err


def test_coeffs_deterministic(capsys):
    args = ("coeffs", "--q", "2", "--m", "2", "--k", "9.25", "--seed", "3", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    record = json.loads(out1)
    assert record["seed"] == 3
    assert len(record["coefficients"]) == 9
    assert record["coefficients"][0] == [1.0, 0.0]


def test_coeffs_orbit_method(capsys):
    code, out, _ = run(
        capsys, "coeffs", "--q", "3", "--m", "1", "--k", "1.0", "--method", "orbits",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert len(record["coefficients"]) == 10
    assert "max_delta" not in record


def test_coeffs_rejects_q1(capsys):
    code, _, err = run(capsys, "coeffs", "--q", "1", "--m", "1", "--k", "1.0")
    assert code == 2


@pytest.mark.parametrize(
    "extra",
    [
        [],  # --method both: 2^32 + 1 pseudo orbits of lengths 0..32 against 10^8
        ["--method", "orbits", "--budget", "1000"],
        # each length is enumerated under 10^8, so a larger --budget still refuses
        ["--method", "orbits", "--budget", "10000000000"],
    ],
)
def test_coeffs_orbit_expansion_over_budget_exits_3_promptly(extra):
    proc = run_fresh(
        "-m", "qnary", "coeffs", "--q", "2", "--m", "4", "--k", "3.5", *extra, timeout=20
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    budget = min(int(extra[-1]), 10**8) if extra else 10**8
    assert f"exceed budget {budget}\n" in proc.stderr


@pytest.mark.parametrize("method", ["det", "orbits"])
def test_coeffs_refuses_before_building_the_instance(capsys, monkeypatch, method):
    # E = 2048: past the determinant cap and 2^2048 + 1 pseudo orbits
    def fail(*args, **kwargs):
        raise AssertionError("build_instance called before the refusal")

    monkeypatch.setattr("qnary.cli.build_instance", fail)
    code, out, err = run(capsys, "coeffs", "--q", "2", "--m", "10", "--k", "1", "--method", method)
    assert code == 3
    assert out == ""
    assert "exceed" in err


@pytest.mark.parametrize(
    "argv",
    [
        # each refused count has more digits than int-to-str formats by default
        ["orbits", "--q", "2", "--m", "1", "--n", "20000", "--budget", "1000"],
        ["count", "--q", "2", "--n", "20000", "--mode", "bruteforce"],
        ["coeffs", "--q", "2", "--m", "15000", "--k", "1"],
        # one word, but of 10^9 letters
        ["count", "--q", "1", "--n", "1000000000", "--mode", "bruteforce"],
    ],
)
def test_budget_refusal_of_a_huge_count_exits_3(argv):
    proc = run_fresh("-m", "qnary", *argv)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "exceed" in proc.stderr and "budget" in proc.stderr
    assert len(proc.stderr.encode()) < 200


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--q", "3", "--n", "1000000000", "--mode", "bruteforce"],
        ["orbits", "--q", "3", "--m", "1", "--n", "1000000000"],
    ],
)
def test_refusal_of_a_huge_power_is_decided_by_bit_length(argv):
    # building 3^(10^9) exactly would take minutes; the refusal must not
    proc = run_fresh("-m", "qnary", *argv, timeout=10)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "3^" in proc.stderr and "exceed" in proc.stderr


@pytest.mark.parametrize("q,n", [(2, 23), (3, 15), (10, 8), (10000, 2)])
def test_bruteforce_budget_counts_letters(q, n):
    # the q^n words fit the budget of 10^8, their n q^n letters do not: counting
    # 2^23 words takes about 11 s, 3^15 about 13 s
    proc = run_fresh("-m", "qnary", "count", "--q", str(q), "--n", str(n),
                     "--mode", "bruteforce", timeout=10)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert f"{q}^{n} words of {n} letters exceeds budget 100000000" in proc.stderr


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("mode", ["formula", "both"])
def test_count_with_more_digits_than_int_to_str_formats_exits_3(capsys, mode, fmt):
    # (q-1) q^(n-1) is printed up to 4300 digits and refused as a power past that
    code, out, err = run(capsys, "count", "--q", "2", "--n", "20000", "--mode", mode,
                         "--format", fmt)
    assert code == 3
    assert out == ""
    assert err == "error: count 1*2^19999 has more than 4300 digits\n"
    code, out, _ = run(capsys, "count", "--q", "10", "--n", "4300", "--mode", "formula",
                       "--format", fmt)
    assert code == 0
    assert "9" + "0" * 4299 in out
    code, _, err = run(capsys, "count", "--q", "10", "--n", "4301", "--mode", mode,
                       "--format", fmt)
    assert code == 3
    assert "9*10^4300" in err


def test_coeffs_det_is_not_bounded_by_the_orbit_count(capsys):
    code, out, _ = run(capsys, "coeffs", "--q", "2", "--m", "4", "--k", "3.5", "--method", "det")
    assert code == 0
    assert len(out.splitlines()) == 1 + 33


# --- variance ---------------------------------------------------------------------------


def test_variance_default_json(capsys):
    code, out, _ = run(capsys, "variance", "--q", "2", "--m", "2", "--n", "4",
                       "--samples", "0", "--seed", "7")
    assert code == 0
    record = json.loads(out)
    assert record["diag"] == 0.5
    assert record["cue_ref"] == 1.0
    assert record["pseudo_orbit_count"] == 8
    assert record["seed"] == 7
    assert "mc_estimate" not in record


def test_variance_q3(capsys):
    code, out, _ = run(capsys, "variance", "--q", "3", "--m", "1", "--n", "3", "--samples", "0")
    assert code == 0
    record = json.loads(out)
    assert record["diag"] == pytest.approx(2 / 3, abs=1e-11)


def test_variance_with_samples(capsys):
    code, out, _ = run(capsys, "variance", "--q", "2", "--m", "2", "--n", "4",
                       "--samples", "200", "--k-max", "100", "--seed", "5")
    assert code == 0
    record = json.loads(out)
    assert "mc_estimate" in record and "mc_std_error" in record
    assert record["k_max"] == 100.0


def test_variance_plain(capsys):
    code, out, _ = run(capsys, "variance", "--q", "2", "--m", "2", "--n", "4",
                       "--samples", "0", "--seed", "7", "--format", "plain")
    assert code == 0
    assert out == (
        "q=2\nm=2\nn=4\nseed=7\nsamples=0\npseudo_orbit_count=8\n"
        "diag=0.5\nexact_grouped=0.75\ncue_ref=1\ncoe_ref=2.77777777778\n"
    )


def test_variance_csv(capsys):
    code, out, _ = run(capsys, "variance", "--q", "2", "--m", "2", "--n", "4",
                       "--samples", "0", "--format", "csv")
    assert code == 0
    header, row = out.splitlines()
    assert header.split(",")[0] == "q"
    assert len(header.split(",")) == len(row.split(","))


@pytest.mark.parametrize(
    "q,m,n",
    [
        (4, 2, 32),  # the DP's live states outgrow the budget; 4^32 pseudo orbits
        (2, 6, 64),  # likewise, with 2^64 pseudo orbits
    ],
)
def test_variance_over_budget_exits_3_promptly(q, m, n):
    proc = run_fresh("-m", "qnary", "variance", "--q", str(q), "--m", str(m),
                     "--n", str(n), "--samples", "0")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "exceed budget" in proc.stderr
    assert "live states" in proc.stderr  # the DP's cap tripped, then the count's


@pytest.mark.parametrize(
    "argv,message",
    [
        # E = 128 is past the determinant cap that sampling needs
        (["--m", "6", "--n", "3", "--samples", "10"], "dimension 128 exceeds cap 64"),
        # the DP gives up at d = 600, and 2^599 pseudo orbits are over budget
        (["--m", "11", "--n", "600", "--samples", "0"], "1*2^599 pseudo orbits"),
    ],
    ids=["determinant-cap", "grouping-budget"],
)
def test_variance_refuses_before_building_the_instance(capsys, monkeypatch, argv, message):
    def fail(*args, **kwargs):
        raise AssertionError("Sigma assembled before the refusal")

    monkeypatch.setattr("qnary.spectral_stats.build_instance", fail)
    if "--samples" in argv and argv[argv.index("--samples") + 1] != "0":
        # the cap is known from q and m, so not even the exact value is computed
        monkeypatch.setattr("qnary.spectral_stats._exact_variance", fail)
    code, out, err = run(capsys, "variance", "--q", "2", *argv)
    assert code == 3
    assert out == ""
    assert message in err


def test_variance_oversized_sample_exits_3_promptly(capsys):
    # the 10^12 draws alone would take 7.28 TiB
    start = time.perf_counter()
    code, out, err = run(capsys, "variance", "--q", "2", "--m", "1", "--n", "2",
                         "--samples", "1000000000000")
    assert time.perf_counter() - start < 0.5
    assert code == 3
    assert out == ""
    assert "1000000000000 samples of 5 coefficients exceed budget 100000000" in err


def test_variance_with_more_digits_than_int_to_str_formats_exits_3(capsys):
    # the record's pseudo_orbit_count 2^16383 follows the count command's rule
    code, out, err = run(capsys, "variance", "--q", "2", "--m", "14", "--n", "16384")
    assert code == 3
    assert out == ""
    assert "count 1*2^16383 has more than 4300 digits" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        # 2^19999 pseudo orbits of length 20000, but n lies past E = 4
        (["--m", "1", "--n", "20000"], "coefficient index 20000 outside 0..4"),
        (["--m", "14", "--n", "16384", "--samples", "1"], "need at least 2 samples, got 1"),
    ],
    ids=["index", "samples"],
)
def test_variance_argument_errors_come_before_the_count_digits(capsys, argv, message):
    code, out, err = run(capsys, "variance", "--q", "2", *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_variance_infinite_k_max_is_usage_error(capsys):
    code, out, err = run(capsys, "variance", "--q", "2", "--m", "1", "--n", "2",
                         "--samples", "10", "--k-max", "inf")
    assert code == 2
    assert out == ""
    assert "k_max must be finite and positive, got inf" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--q", "2", "--m", "1", "--k", "1"],
        ["variance", "--q", "2", "--m", "2", "--n", "4", "--samples", "10"],
        ["variance", "--q", "2", "--m", "2", "--n", "4", "--samples", "0"],
    ],
    ids=["coeffs", "variance-sampled", "variance-exact"],
)
def test_negative_seed_is_usage_error_before_any_work(capsys, monkeypatch, argv):
    def fail(*args, **kwargs):
        raise AssertionError("work started before --seed was checked")

    monkeypatch.setattr("qnary.cli.build_graph", fail)
    monkeypatch.setattr("qnary.cli.variance_report", fail)
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "--seed must be non-negative, got -1" in err


def test_variance_exact_value_never_builds_sigma():
    # E = 2^15: Sigma would take 16 GiB, the exact value needs only q, m and n
    proc = run_fresh("-m", "qnary", "variance", "--q", "2", "--m", "14", "--n", "2",
                     "--samples", "0")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["exact_grouped"] == 0.5


def test_variance_up_to_m_plus_one_is_the_closed_form_on_a_wide_alphabet():
    # 99,990,000 pseudo orbits of length 2 on 10^8 edges: none is listed, no
    # matrix is built, so the child fits in 2 GiB of address space
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))

    proc = run_fresh("-m", "qnary", "variance", "--q", "10000", "--m", "1", "--n", "2",
                     "--samples", "0", timeout=30, preexec_fn=limit_memory)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["pseudo_orbit_count"] == 99_990_000
    assert record["exact_grouped"] == record["diag"] == 0.9999


def test_variance_beyond_pseudo_orbit_budget(capsys):
    # 2^31 pseudo orbits of length 32, but the balanced-edge-set DP finishes
    code, out, _ = run(capsys, "variance", "--q", "2", "--m", "5", "--n", "32", "--samples", "0")
    assert code == 0
    record = json.loads(out)
    assert record["pseudo_orbit_count"] == 2**31
    assert record["exact_grouped"] == pytest.approx(0.564468383789, abs=1e-11)


# --- csv quoting ----------------------------------------------------------------------


def test_orbits_csv_quotes_multi_orbit_sets(capsys):
    import csv as csv_mod
    import io

    code, out, _ = run(capsys, "orbits", "--q", "2", "--m", "2", "--n", "4", "--format", "csv")
    assert code == 0
    rows = list(csv_mod.reader(io.StringIO(out)))
    assert rows[0] == ["pseudo_orbit", "num_orbits", "total_length"]
    assert len(rows) == 1 + 8
    assert ["{1,01,0}", "3", "4"] in rows


def test_coeffs_csv(capsys):
    import csv as csv_mod
    import io

    code, out, _ = run(capsys, "coeffs", "--q", "2", "--m", "1", "--k", "2.0",
                       "--seed", "1", "--format", "csv")
    assert code == 0
    rows = list(csv_mod.reader(io.StringIO(out)))
    assert rows[0] == ["q", "m", "k", "seed", "method", "n", "re", "im"]
    assert len(rows) == 1 + 5
    assert rows[1][5:] == ["0", "1", "0"]


def test_lyndon_list_csv(capsys):
    code, out, _ = run(capsys, "lyndon", "list", "--q", "2", "--l", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["word", "001", "011"]
    code, out, _ = run(capsys, "lyndon", "list", "--q", "12", "--l", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["word"]] + [[w] for w in Q12_L2]


# --- golden outputs -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,args",
    [
        ("lyndon_list_q2_l4.json", ("lyndon", "list", "--q", "2", "--l", "4", "--format", "json")),
        ("orbits_q2_m3_n4.json", ("orbits", "--q", "2", "--m", "3", "--n", "4", "--format", "json")),
        (
            "variance_q2_m2_n4.json",
            ("variance", "--q", "2", "--m", "2", "--n", "4", "--samples", "0", "--seed", "7"),
        ),
    ],
)
def test_golden_output(capsys, name, args):
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


# --- start-up ---------------------------------------------------------------------------

NUMPY_FREE_COMMANDS = [
    (["lyndon", "list", "--q", "2", "--l", "6"], 0),
    (["factorize", "0110", "--q", "2"], 0),
    (["factorize", "0", "--q", "2", "--format", "json"], 0),
    (["count", "--q", "2", "--n", "8", "--mode", "both"], 0),
    (["orbits", "--q", "2", "--m", "3", "--n", "6"], 0),
    (["orbits", "--q", "2", "--m", "3", "--n", "4", "--budget", "3"], 3),
]

# Each entry reports which of these modules the process has loaded that the
# interpreter had not loaded before the probe began.
NUMPY_PROBE = """
import contextlib, io, json, sys
watched = ("numpy", "dataclasses", "inspect", "csv")
preloaded = set(sys.modules)
def new():
    return [name for name in watched if name in sys.modules and name not in preloaded]
import qnary
loaded = [name for name in ("words", "debruijn", "quantum", "spectral_stats")
          if "qnary." + name in sys.modules]
after_import = new()
import qnary.__main__
from qnary.cli import main
after_cli_import = new()
results = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    results.append([code, new()])
print(json.dumps({"loaded": loaded, "after_import": after_import,
                  "after_cli_import": after_cli_import, "results": results}))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["lyndon", "list", "--q", "2", "--l", "22"],
        ["orbits", "--q", "2", "--m", "1", "--n", "16", "--format", "csv"],
    ],
)
def test_closed_stdout_exits_141_quietly(argv):
    # `qnary ... | head -1`: the reader goes away with far more than a pipe buffer unwritten
    proc = subprocess.Popen(
        [sys.executable, "-m", "qnary", *argv],
        env=fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_combinatorial_commands_run_without_numpy():
    # then a CSV command, which alone loads csv, and last the numerical one: it
    # must load numpy, which shows the probe can see it
    commands = NUMPY_FREE_COMMANDS + [
        (["lyndon", "list", "--q", "2", "--l", "4", "--format", "csv"], 0),
        (["coeffs", "--q", "2", "--m", "1", "--k", "1.0"], 0),
    ]
    proc = run_fresh("-c", NUMPY_PROBE, json.dumps([argv for argv, _ in commands]))
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    # every submodule is loaded eagerly; the benchmark tracer looks them up by name
    assert probe["loaded"] == ["words", "debruijn", "quantum", "spectral_stats"]
    # the value types are plain __slots__ classes: no dataclasses, so no inspect
    assert probe["after_import"] == probe["after_cli_import"] == []
    expected = [[code, []] for _, code in NUMPY_FREE_COMMANDS] + [[0, ["csv"]]]
    assert probe["results"][:-1] == expected
    code, loaded = probe["results"][-1]
    assert code == 0 and "numpy" in loaded


@pytest.mark.parametrize(
    "m,n",
    [
        (20, 60),  # E = 2^21, d = 60: the 2^59 pseudo orbits are over budget
        (22, 24),  # E = 2^23, d = 24: 2^23 pseudo orbits, but 24 * 2^23 edges are over budget
    ],
)
def test_variance_refused_at_a_zero_state_cap_never_loads_numpy(m, n):
    # the DP's state cap 10^8 // (E(d+1)) is 0 and the grouping is over
    # budget, so the refusal needs no array; a grouping that ran anyway would
    # need gigabytes, so the child gets 1 GiB of address space
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    argv = ["variance", "--q", "2", "--m", str(m), "--n", str(n), "--samples", "0"]
    proc = run_fresh("-c", NUMPY_PROBE, json.dumps([argv]), timeout=20,
                     preexec_fn=limit_memory)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"] == [[3, []]]


def test_variance_below_the_numpy_move_never_loads_numpy():
    # a balanced-set DP runs in pure Python until it passes _NUMPY_STATES live states:
    # the golden command (the grouping, once the DP gives up), the exact-sweep graph
    # (34 at the DP's peak) and the refusal at a state cap of 40 need no array; the
    # (3, 2) DP reaches 285, which shows the probe can see numpy
    commands = [
        ["variance", "--q", "2", "--m", "2", "--n", "4", "--samples", "0", "--seed", "7"],
        ["variance", "--q", "2", "--m", "4", "--n", "12", "--samples", "0"],
        ["variance", "--q", "2", "--m", "11", "--n", "600", "--samples", "0"],
        ["variance", "--q", "3", "--m", "2", "--n", "13", "--samples", "0"],
    ]
    proc = run_fresh("-c", NUMPY_PROBE, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)["results"]
    assert results[:3] == [[0, []], [0, []], [3, []]]
    code, loaded = results[3]
    assert code == 0 and "numpy" in loaded


NUMPY_RANDOM_PROBE = """
import contextlib, io, sys
from qnary import cli
from qnary.quantum import build_instance
from qnary.spectral_stats import variance_report
build_instance(2, 3, seed=1)
variance_report(2, 3, 8, seed=1, samples=200)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["coeffs", "--q", "2", "--m", "5", "--k", "3.5", "--method", "det"])
print(code, "numpy" in sys.modules, "numpy.random" in sys.modules)
"""


def test_seeded_draws_never_import_numpy_random():
    # the edge lengths and the Monte-Carlo wavenumbers come from Python's
    # random.Random; numpy.random alone adds ~6 MB to a process's peak
    proc = run_fresh("-c", NUMPY_RANDOM_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "True", "False"]


@pytest.mark.parametrize(
    "argv,json_output",
    [
        (["factorize", "0", "--q", "2"], False),  # the benchmark's set-up probe
        (["count", "--q", "2", "--n", "8"], False),
        (["lyndon", "list", "--q", "2", "--l", "4", "--format", "csv"], False),
        (["variance", "--q", "2", "--m", "2", "--n", "4", "--samples", "0", "--format", "plain"],
         False),
        (["factorize", "0", "--q", "2", "--format", "json"], True),
    ],
)
def test_only_json_output_imports_json(argv, json_output):
    # as csv, json is imported on the first output in its format; none of these
    # commands needs numpy or the array kernels that import it
    proc = run_fresh("-X", "importtime", "-m", "qnary", *argv)
    assert proc.returncode == 0, proc.stderr
    modules = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
               if line.startswith("import time:")}
    assert ("json" in modules) == json_output
    assert not modules & {"numpy", "qnary._kernels"}


@pytest.mark.parametrize(
    "argv",
    [
        ["variance", "--q", "2", "--m", "2", "--n", "4", "--samples", "200", "--seed", "7"],
        ["coeffs", "--q", "2", "--m", "2", "--k", "3.5", "--seed", "7", "--method", "det",
         "--format", "json"],
    ],
    ids=["variance", "coeffs"],
)
def test_seeded_output_is_the_same_in_every_process(argv, monkeypatch):
    # the stream depends on the seed alone, not on string hashing
    outputs = []
    for hash_seed in ("0", "1"):
        monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
        proc = run_fresh("-m", "qnary", *argv)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] != ""
