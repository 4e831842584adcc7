"""In-memory span recorder for the traced benchmark run.

`Tracer.install()` wraps the public entry points listed in `TARGETS` and
rebinds each wrapper in every loaded `qnary.*` namespace that holds the
original function, so calls between modules are recorded too.  A span is
(name, start, end, parent).  An untraced worker installs nothing, so it runs
the package unmodified; it imports this module only for `residual`.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable


def residual(a) -> float:
    """Self-inversive residual max_n |a_(E-n) - conj(a_n) a_E| of coefficients.

    det(xi I - U) of a unitary U satisfies it exactly, so what is left is
    roundoff.  `a` is any sequence of complex numbers, a_0 first.
    """
    E = len(a) - 1
    return max(abs(a[E - n] - a[n].conjugate() * a[E]) for n in range(E + 1))


def _charpoly_residual(result):
    return residual(result.a)


def _result_len(args, result):
    return len(result)


def _bruteforce_words(args, result):
    q, n = args[0], args[1]
    return q**n


def _expansion_len(args, result):
    return len(result[0])


def _lu_flops(args, result):
    # char_poly_direct factorizes N+1 complex N x N matrices; a complex LU
    # costs about (2/3) N^3 complex multiply-adds of 8 real flops each
    n = args[0].shape[0]
    return (n + 1) * 16 * n**3 // 3


@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    span: str
    # items(args, result) -> objects produced by the call
    items: Callable | None = None
    # key(args) -> identity of the work; items are counted once per key
    key: Callable | None = None
    # residual(result) -> numerical error of the call; the largest is kept
    residual: Callable | None = None


TARGETS = (
    Target("qnary.words", "lyndon_words", "words.lyndon_words", _result_len),
    Target(
        "qnary.words", "count_strictly_decreasing_bruteforce", "words.bruteforce",
        _bruteforce_words,
    ),
    Target(
        "qnary.debruijn", "primitive_pseudo_orbits", "debruijn.pseudo_orbits", _result_len,
        key=lambda args: (args[0], args[1]),
    ),
    Target("qnary.debruijn", "edge_multiplicities", "debruijn.edge_multiplicities"),
    Target("qnary.debruijn", "build_graph", "debruijn.build_graph"),
    Target("qnary.quantum", "build_instance", "quantum.build_instance"),
    Target(
        "qnary.quantum", "expansion_terms", "quantum.expansion_terms", _expansion_len,
        key=lambda args: (id(args[0]), args[1]),
    ),
    Target("qnary.quantum", "orbit_amplitude", "quantum.orbit_amplitude"),
    # items of char_poly_direct are computed flops, not objects
    Target(
        "qnary.quantum", "char_poly_direct", "quantum.char_poly_direct", _lu_flops,
        residual=_charpoly_residual,
    ),
    Target("qnary.quantum", "evolution_operator", "quantum.evolution_operator"),
    Target("qnary.quantum", "coeff_from_pseudo_orbits", "quantum.coeff_from_pseudo_orbits"),
    Target(
        "qnary.spectral_stats", "exact_grouped_variance",
        "spectral_stats.exact_grouped_variance",
    ),
    Target(
        "qnary.spectral_stats", "monte_carlo_variance", "spectral_stats.monte_carlo_variance"
    ),
    Target(
        "qnary.spectral_stats", "monte_carlo_coefficient_means",
        "spectral_stats.monte_carlo_coefficient_means",
    ),
    Target("qnary.spectral_stats", "variance_report", "spectral_stats.variance_report"),
)


# span names whose per-call durations are kept for percentiles
KEEP_DURATIONS = frozenset({"quantum.char_poly_direct"})


class Tracer:
    """Records nested spans of one worker process in parallel lists."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.items: dict[str, int] = {}
        self.residuals: dict[str, float] = {}
        self._stack: list[int] = []
        self._seen: set = set()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _count(self, target: Target, args, result) -> None:
        if target.key is not None:
            key = (target.span, target.key(args))
            if key in self._seen:
                return
            self._seen.add(key)
        self.items[target.span] = self.items.get(target.span, 0) + target.items(args, result)

    def wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(target.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if target.items is not None:
                self._count(target, args, result)
            if target.residual is not None:
                value = float(target.residual(result))
                self.residuals[target.span] = max(self.residuals.get(target.span, 0.0), value)
            return result

        return traced

    def install(self) -> None:
        """Rebind every target in each loaded qnary module that imported it."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "qnary"]
        for target in TARGETS:
            original = getattr(sys.modules[target.module], target.attr)
            wrapped = self.wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def summary(self, since: float) -> dict:
        """Per-span-name totals: self time, call count, items, durations and
        the largest residual.

        A span's self time is its duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        `top_level_s` sums the outermost spans that started at or after
        `since`, the part of the timed region the spans account for.
        """
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        self_time = list(durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                self_time[parent] -= durations[idx]
        out: dict[str, dict] = {}
        for idx, name in enumerate(self.names):
            rec = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += self_time[idx]
            if name in KEEP_DURATIONS:
                rec.setdefault("durations", []).append(durations[idx])
        for name, count in self.items.items():
            out.setdefault(name, {"calls": 0, "self_s": 0.0})["items"] = count
        for name, value in self.residuals.items():
            out.setdefault(name, {"calls": 0, "self_s": 0.0})["residual_max"] = value
        top = sum(
            d for d, p, s in zip(durations, self.parents, self.starts) if p < 0 and s >= since
        )
        return {"spans": out, "top_level_s": top}

    def write(self, path) -> None:
        """Write every span as one tab-separated line: name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for row in zip(self.names, self.starts, self.ends, self.parents):
                fh.write("%s\t%.9f\t%.9f\t%d\n" % row)

