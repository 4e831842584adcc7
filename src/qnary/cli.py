"""Command-line front end with deterministic, machine-readable output.

Subcommands: `lyndon list`, `factorize`, `count`, `orbits`, `coeffs`,
`variance`.  Exit codes: 0 success, 1 verification mismatch, 2 argument
error, 3 budget exceeded, 141 (128 + SIGPIPE) stdout closed by its reader.
Floats are printed with 12 significant digits so output is stable across
platforms.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys

from .debruijn import _braced, _pseudo_orbit_tuples, build_graph
from .quantum import (
    _check_dimension,
    _check_index,
    build_instance,
    char_poly_direct,
    coeff_from_pseudo_orbits,
    evolution_operator,
)
from .spectral_stats import _check_sampling, variance_report
from .words import (
    DEFAULT_ENUMERATION_BUDGET,
    BudgetExceededError,
    Word,
    _display,
    _lyndon_tuples_of_length,
    _power_exceeds,
    _strictly_decreasing_exceeds,
    count_strictly_decreasing,
    count_strictly_decreasing_bruteforce,
    duval_factorize,
    is_strictly_decreasing,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141

COEFF_MATCH_TOL = 1e-9

# Python formats ints of at most 4,300 digits by default.  A closed-form count
# (q-1) q^(n-1), from `count` or in a `variance` record, with more digits exits
# 3 before any work, in every format, and states the count as a power.
MAX_COUNT_DIGITS = 4300


def _round12(x: float) -> float:
    # 12 significant digits; the +0.0 folds -0.0 into 0.0
    return float(f"{x:.12g}") + 0.0


def _plain(x: float) -> str:
    return f"{_round12(x):.12g}"


def _pair(z: complex) -> str:
    return f"({_plain(z.real)}, {_plain(z.imag)})"


# Output goes out _CHUNK_LINES lines to a write: with unbuffered stdout every
# print is a system call of its own, and a long listing is never held whole.
_CHUNK_LINES = 4096


def _emit(pieces) -> None:
    pieces = iter(pieces)
    while text := "".join(itertools.islice(pieces, _CHUNK_LINES)):
        sys.stdout.write(text)


def _emit_lines(lines) -> None:
    _emit(f"{line}\n" for line in lines)


def _emit_json(obj) -> None:
    import json  # only JSON output pays for the import, as only CSV output pays for csv's

    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _emit_json_list(value) -> None:
    # the text of _emit_json(value), one list item at a time: value is an
    # iterable of items, or a record whose last value is one
    import json

    shell, items, pad = [], value, "\n  "
    if isinstance(value, dict):
        *_, (key, items) = value.items()
        shell, pad = {**value, key: []}, "\n    "
    quoted = (_json_item(x, pad, json.dumps) for x in items)
    first = next(quoted, None)
    if first is None:
        _emit_json(shell)
    else:
        # the items go where the shell's text has its empty list, closed one level out
        head, _, tail = json.dumps(shell, indent=2).rpartition("[]")
        rest = (f",{pad}{x}" for x in quoted)
        _emit(itertools.chain([f"{head}[{pad}{first}"], rest, [f"{pad[:-2]}]{tail}\n"]))


def _json_item(item, pad: str, dumps) -> str:
    # json.dumps(item, indent=2) with its lines joined by pad, for a string or
    # a list of strings: the strings go through json's C encoder (dumps), where
    # the indented encoder is pure Python
    if isinstance(item, str):
        return dumps(item)
    if not item:
        return "[]"
    inner = pad + "  "
    return f"[{inner}{(',' + inner).join(map(dumps, item))}{pad}]"


def _emit_csv(header, rows) -> None:
    import csv  # only CSV output pays for the import
    from types import SimpleNamespace

    # writerow returns what its file's write returns: here, the row's text
    writer = csv.writer(SimpleNamespace(write=lambda text: text), lineterminator="\n")
    _emit(map(writer.writerow, itertools.chain([header], rows)))


def _require_printable_count(q: int, n: int) -> None:
    if shown := _strictly_decreasing_exceeds(q, n, 10**MAX_COUNT_DIGITS - 1):
        raise BudgetExceededError(f"count {shown} has more than {MAX_COUNT_DIGITS} digits")


def _cmd_lyndon_list(args) -> int:
    words = (_display(t, args.q) for t in _lyndon_tuples_of_length(args.q, args.l))
    if args.format == "json":
        _emit_json_list(words)
    elif args.format == "csv":
        _emit_csv(["word"], ([w] for w in words))
    else:
        _emit_lines(words)
    return EXIT_OK


def _cmd_factorize(args) -> int:
    word = Word.from_string(args.word, args.q)
    factorization = duval_factorize(word)
    strict = is_strictly_decreasing(factorization)
    factors = [str(f) for f in factorization]
    shown = "".join(f"({f})" for f in factors)
    if args.format == "json":
        _emit_json(
            {
                "word": str(word),
                "q": args.q,
                "factors": factors,
                "strictly_decreasing": strict,
            }
        )
    elif args.format == "csv":
        _emit_csv(
            ["word", "q", "factors", "strictly_decreasing"],
            [[str(word), args.q, shown, str(strict).lower()]],
        )
    else:
        _emit_lines([f"{shown} strict={str(strict).lower()}"])
    return EXIT_OK


def _cmd_count(args) -> int:
    formula = bruteforce = None
    if args.mode in ("formula", "both"):
        _require_printable_count(args.q, args.n)
        formula = count_strictly_decreasing(args.q, args.n)
    if args.mode in ("bruteforce", "both"):
        bruteforce = count_strictly_decreasing_bruteforce(args.q, args.n, budget=args.budget)
    agree = formula == bruteforce if args.mode == "both" else None

    # the fields the mode computed, in output order; booleans print lowercase
    fields = {"formula": formula, "bruteforce": bruteforce, "agree": agree}
    present = {key: value for key, value in fields.items() if value is not None}
    shown = {key: str(value).lower() for key, value in present.items()}
    if args.format == "json":
        _emit_json({"q": args.q, "n": args.n, "mode": args.mode, **present})
    elif args.format == "csv":
        row = [args.q, args.n, args.mode, *(shown.get(key, "") for key in fields)]
        _emit_csv(["q", "n", "mode", *fields], [row])
    else:
        _emit_lines([" ".join(f"{key}={value}" for key, value in shown.items())])
    return EXIT_MISMATCH if agree is False else EXIT_OK


def _cmd_orbits(args) -> int:
    words, items = _pseudo_orbit_tuples(args.q, args.n, budget=args.budget)
    shown = [_display(w, args.q) for w in words]
    orbits = ([shown[i] for i in item] for item in items)
    count = count_strictly_decreasing(args.q, args.n)
    if args.format == "json":
        record = {"q": args.q, "m": args.m, "n": args.n, "count": count, "pseudo_orbits": orbits}
        _emit_json_list(record)
    elif args.format == "csv":
        rows = ([_braced(po, args.q), len(po), args.n] for po in orbits)
        _emit_csv(["pseudo_orbit", "num_orbits", "total_length"], rows)
    else:
        _emit_lines(itertools.chain((_braced(po, args.q) for po in orbits), [f"count={count}"]))
    return EXIT_OK


def _cmd_coeffs(args) -> int:
    # refuse from q and m alone, before Sigma is assembled
    E = build_graph(args.q, args.m, budget=args.budget).num_edges
    # the pseudo orbits of lengths 0..E number q^E + 1, refused without
    # building q^E once bit lengths decide; the expansion enumerates each
    # length under the default budget, so --budget can lower it, not raise it
    limit = min(args.budget, DEFAULT_ENUMERATION_BUDGET)
    if args.method in ("orbits", "both") and _power_exceeds(args.q, E, limit - 1):
        raise BudgetExceededError(
            f"{args.q}^{E} + 1 pseudo orbits of lengths 0..{E} exceed budget {limit}"
        )
    if args.method in ("det", "both"):
        _check_dimension(E)
    inst = build_instance(args.q, args.m, args.seed)

    det_coeffs = orbit_coeffs = None
    if args.method in ("det", "both"):
        det_coeffs = list(char_poly_direct(evolution_operator(inst, args.k)).a)
    if args.method in ("orbits", "both"):
        orbit_coeffs = [coeff_from_pseudo_orbits(n, inst, args.k) for n in range(E + 1)]
    shown = det_coeffs if det_coeffs is not None else orbit_coeffs
    max_delta = None
    if args.method == "both":
        deltas = [abs(d - o) for d, o in zip(det_coeffs, orbit_coeffs)]
        # max keeps its first value past a NaN, so a NaN delta is looked for
        max_delta = math.nan if any(map(math.isnan, deltas)) else max(deltas)

    if args.format == "json":
        record = {
            "q": args.q,
            "m": args.m,
            "k": _round12(args.k),
            "seed": args.seed,
            "method": args.method,
            "coefficients": [[_round12(z.real), _round12(z.imag)] for z in shown],
        }
        if max_delta is not None:
            record["max_delta"] = _round12(max_delta)
        _emit_json(record)
    elif args.format == "csv":
        _emit_csv(
            ["q", "m", "k", "seed", "method", "n", "re", "im"],
            [
                [args.q, args.m, _plain(args.k), args.seed, args.method,
                 n, _plain(z.real), _plain(z.imag)]
                for n, z in enumerate(shown)
            ],
        )
    else:
        lines = [f"q={args.q} m={args.m} k={_plain(args.k)} seed={args.seed} method={args.method}"]
        lines += [f"a_{n} = {_pair(z)}" for n, z in enumerate(shown)]
        if max_delta is not None:
            lines.append(f"max_delta={_plain(max_delta)}")
        _emit_lines(lines)
    if max_delta is not None and not max_delta <= COEFF_MATCH_TOL:  # NaN mismatches
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_variance(args) -> int:
    if not _power_exceeds(args.q, args.m + 1, args.n - 1):  # E < n: E is small then
        _check_index(args.n, args.q ** (args.m + 1))
    if args.samples != 0:
        _check_sampling(args.samples, args.k_max)
    _require_printable_count(args.q, args.n)  # the record's pseudo_orbit_count
    record = variance_report(
        args.q, args.m, args.n, seed=args.seed, samples=args.samples, k_max=args.k_max
    )
    for key, value in record.items():
        if isinstance(value, float):
            record[key] = _round12(value)
    if args.format == "json":
        _emit_json(record)
    elif args.format == "csv":
        keys = list(record)
        row = [_plain(record[k]) if isinstance(record[k], float) else record[k] for k in keys]
        _emit_csv(keys, [row])
    else:
        _emit_lines(
            f"{key}={_plain(value) if isinstance(value, float) else value}"
            for key, value in record.items()
        )
    return EXIT_OK


def _add_format(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument(
        "--format", choices=("json", "csv", "plain"), default=default, help="output format"
    )


def _add_int(parser: argparse.ArgumentParser, flag: str, low: int, **kwargs) -> None:
    # main refuses a value below low, checking the bounds in declaration order
    parser.add_argument(flag, type=int, **kwargs)
    parser.set_defaults(bounds=[*(parser.get_default("bounds") or ()), (flag, low)])


def _add_budget(parser: argparse.ArgumentParser) -> None:
    _add_int(parser, "--budget", 1, default=DEFAULT_ENUMERATION_BUDGET,
             help="enumeration budget override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnary",
        description="Lyndon word combinatorics and q-nary quantum graph spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lyndon = sub.add_parser("lyndon", help="Lyndon word utilities")
    lyndon_sub = lyndon.add_subparsers(dest="lyndon_command", required=True)
    lyndon_list = lyndon_sub.add_parser("list", help="list Lyndon words of one length")
    _add_int(lyndon_list, "--q", 1, required=True, help="alphabet size")
    _add_int(lyndon_list, "--l", 1, required=True, help="word length")
    _add_format(lyndon_list, "plain")
    lyndon_list.set_defaults(func=_cmd_lyndon_list)

    factorize = sub.add_parser("factorize", help="standard decomposition of a word")
    factorize.add_argument("word", help="the word, e.g. 0110 (or comma-separated letters)")
    _add_int(factorize, "--q", 1, required=True, help="alphabet size")
    _add_format(factorize, "plain")
    factorize.set_defaults(func=_cmd_factorize)

    count = sub.add_parser("count", help="count strictly decreasing decompositions")
    _add_int(count, "--q", 1, required=True, help="alphabet size")
    _add_int(count, "--n", 0, required=True, help="word length")
    count.add_argument("--mode", choices=("formula", "bruteforce", "both"), default="both")
    _add_format(count, "plain")
    _add_budget(count)
    count.set_defaults(func=_cmd_count)

    orbits = sub.add_parser("orbits", help="enumerate primitive pseudo orbits")
    _add_int(orbits, "--q", 2, required=True, help="alphabet size")
    _add_int(orbits, "--m", 1, required=True, help="graph order")
    _add_int(orbits, "--n", 0, required=True, help="total topological length")
    _add_format(orbits, "plain")
    _add_budget(orbits)
    orbits.set_defaults(func=_cmd_orbits)

    coeffs = sub.add_parser("coeffs", help="characteristic polynomial coefficients")
    _add_int(coeffs, "--q", 2, required=True, help="alphabet size")
    _add_int(coeffs, "--m", 1, required=True, help="graph order")
    coeffs.add_argument("--k", type=float, required=True, help="wavenumber")
    _add_int(coeffs, "--seed", 0, default=0, help="edge-length seed")
    coeffs.add_argument("--method", choices=("det", "orbits", "both"), default="both")
    _add_format(coeffs, "plain")
    _add_budget(coeffs)
    coeffs.set_defaults(func=_cmd_coeffs)

    variance = sub.add_parser("variance", help="coefficient variance report")
    _add_int(variance, "--q", 2, required=True, help="alphabet size")
    _add_int(variance, "--m", 1, required=True, help="graph order")
    _add_int(variance, "--n", 0, required=True, help="coefficient index")
    _add_int(variance, "--samples", 0, default=0, help="Monte-Carlo sample count")
    _add_int(variance, "--seed", 0, default=0, help="edge-length and sampling seed")
    variance.add_argument("--k-max", dest="k_max", type=float, default=1e4)
    _add_format(variance, "json")
    variance.set_defaults(func=_cmd_variance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag, low in args.bounds:
            if (value := getattr(args, flag[2:])) < low:
                floor = "be non-negative" if low == 0 else f"be at least {low}"
                raise ValueError(f"{flag} must {floor}, got {value}")
        code = args.func(args)
        sys.stdout.flush()  # inside the try, so a reader gone by the last write is caught
        return code
    except BrokenPipeError:
        # stdout's reader closed it (`qnary ... | head`): point the descriptor at
        # devnull so the interpreter's exit flush stays quiet, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
