"""Variance of characteristic-polynomial coefficients over the wavenumber.

Averaged over k, the coefficients a_n have mean zero for n >= 1, and their
variance reduces to a double sum over pairs of primitive pseudo orbits with
equal metric length.  Three routes evaluate it:

* the diagonal approximation keeps only self-pairings, giving
  sum |A|^2 = Str * q^(-n), which equals (q-1)/q for every n >= 2;
* with rationally independent edge lengths, equal metric length forces equal
  edge-multiplicity vectors, so grouping by that exact integer key and
  summing |group total|^2 evaluates the k-average exactly;
* the same average from edge sets.  det(I - zU) is multilinear in the edge
  phases, so a_n = (-1)^n sum over n-edge sets S of det U[S,S], every group
  of pseudo orbits that repeats an edge sums to zero, and

      Var(a_n) = sum over |S| = n of |det Sigma[S,S]|^2.

  Only balanced S, with as many in-edges as out-edges at every vertex v,
  contribute, and the minor factors over the vertices as
  prod_v |det F[C_v,B_v]|^2 (F the q x q DFT, B_v the first letters of v's
  in-edges in S, C_v the last letters of its out-edges).  Complements of
  balanced sets are balanced with equal weight, so Var(a_n) = Var(a_(E-n)).

`exact_grouped_variance` evaluates n at d = min(n, E - n) by one rule:

* for d <= m + 1 distinct orbits share no edge: the diagonal value;
* otherwise a transfer DP over the balanced edge sets, run at degree D,
  returns Var(a_0..a_D).  D = E // 2 where the pseudo orbits of length
  E // 2, E // 2 edges each, fit the default enumeration budget (then they
  fit at every d), so one run answers every n; else D = d.  The DP gives up
  past the number of pseudo orbits of length D in work (the budget where
  those are over it) or past the budget over E(D+1) in live states.  The
  last run's values are kept;
* where it gives up, the pseudo orbits of length d are grouped by their d
  edges each, unless those edges exceed the budget in all: then
  BudgetExceededError.

Each DP state carries a degree floor, `need`, that prunes the sets which can
no longer balance within D edges, and each vertex weight comes from a
pure-Python elimination on its <= q x q minor of the DFT table
(`quantum._dft_table`), so no exact value depends on LAPACK or on a complex
numpy kernel.  numpy holds only the DP's arrays, sized by its live states,
and the sampler's, sized by E and the sample count: at a state cap of 0 the
DP gives up before numpy is imported, and the grouping never imports it.
The value, its route and the refusal depend on (q, m, n) alone, so
`variance_report` builds the instance only to sample.

A Monte-Carlo estimator over uniform k samples cross-checks the pipeline,
and circular-ensemble reference values (CUE = 1, COE = 1 + n(E-n)/(E+1))
provide the random-matrix comparison point.

numpy is imported inside the functions that compute, as in `quantum`, so
importing the package does not load it.
"""

from __future__ import annotations

import functools
import heapq

from .debruijn import build_graph
from .quantum import (
    SpectralInstance,
    _char_polys,
    _check_dimension,
    _check_index,
    _check_phase,
    _dft_table,
    _edge_groups,
    _random,
    assemble_sigma,
    build_instance,
)
from .words import (
    DEFAULT_ENUMERATION_BUDGET,
    BudgetExceededError,
    _strictly_decreasing_exceeds,
    count_strictly_decreasing,
)


def diagonal_variance(q: int, n: int) -> float:
    """Closed-form diagonal approximation: Str * q^(-n), i.e. (q-1)/q for n >= 2."""
    return count_strictly_decreasing(q, n) / q**n


def exact_grouped_variance(inst: SpectralInstance, n: int) -> float:
    """The k-averaged variance of a_n, exact under rationally independent
    lengths, by the routes of the module docstring.  It reads q and m from the
    instance, and nothing else: the DFT gives Sigma's entries."""
    return _exact_variance(inst.graph.q, inst.graph.m, n)


def _exact_variance(q: int, m: int, n: int) -> float:
    """`exact_grouped_variance` of the order-m q-nary graph: every route
    needs only q, m and n."""
    E = q ** (m + 1)
    n = _check_index(n, E)
    d = min(n, E - n)
    if d <= m + 1:
        # an orbit of length <= m+1 has a whole period in each of its edges, so distinct
        # orbits share no edge: each group is one pseudo orbit, with |A|^2 = q^(-d)
        return diagonal_variance(q, d)
    budget = DEFAULT_ENUMERATION_BUDGET
    # where the grouping fits at E // 2 it fits at every d <= E // 2, and one DP answers all
    depth = d if _strictly_decreasing_exceeds(q, E // 2, budget // (E // 2)) else E // 2
    variances = _dp_variances(q, m, depth)
    if variances is not None:
        return variances[d]
    if over := _strictly_decreasing_exceeds(q, d, budget // d):  # the grouping's d edges each
        raise BudgetExceededError(f"balanced-set DP exceeds {budget // (E * (d + 1))} live "
                                  f"states, and {over} pseudo orbits of length {d}, {d} edges "
                                  f"each, exceed budget {budget}")
    return _grouped_variance(q, m, d)


@functools.lru_cache(maxsize=1)
def _dp_variances(q: int, m: int, depth: int) -> tuple[float, ...] | None:
    """Var(a_0..a_depth) of the order-m graph from one balanced-set DP, or
    None where it gives up: past budget / (E (depth+1)) live states, or past
    the Str(q, depth) pseudo orbits of length depth in work while the
    grouping of them fits the budget.  One call's values are kept."""
    E = q ** (m + 1)
    budget = DEFAULT_ENUMERATION_BUDGET
    over = _strictly_decreasing_exceeds(q, depth, budget // depth)
    # the DP's work is at most E * max_states < budget / depth: past it only the state cap binds
    max_work = budget if over else count_strictly_decreasing(q, depth)
    variances = _balanced_subset_variances(q, m, depth, max_work, budget // (E * (depth + 1)))
    return None if variances is None else tuple(variances.tolist())


def _grouped_variance(q: int, m: int, n: int) -> float:
    """Sum over the groups of `quantum._edge_groups`, the pseudo orbits of
    length n grouped by their edge multiset, of |group amplitude|^2."""
    return float(sum(abs(v) ** 2 for v in _edge_groups(q, m, n).values()))


def _group_order(q: int, m: int) -> list[int]:
    """Edge groups, the middle words a_2..a_m of the edges, in greedy order.

    Vertex a_1..a_m gets its in-edges from group a_1..a_(m-1) and its
    out-edges from group a_2..a_m; it is open while one of the two is done.
    Start at group 0, then repeatedly take the group that closes the most
    open vertices, the lowest index on ties: the top of a heap of (-closes,
    group) once entries of done groups and outdated counts are popped.  The
    groups are connected, so some group left always closes a vertex.
    """
    G = q ** (m - 1)
    closes = [0] * G
    done = [False] * G
    heap: list[tuple[int, int]] = []
    order = [0]
    while True:
        g = order[-1]
        done[g] = True
        if len(order) == G:
            return order
        # each vertex b.g and g.c now waits for its other group
        for h in [(b * G + g) // q for b in range(q)] + [(g * q + c) % G for c in range(q)]:
            if h != g:
                closes[h] += 1
                heapq.heappush(heap, (-closes[h], h))
        while done[heap[0][1]] or -heap[0][0] != closes[heap[0][1]]:
            heapq.heappop(heap)
        order.append(heapq.heappop(heap)[1])


def _edge_schedule(q: int, m: int) -> tuple[list, int]:
    """The DP's steps, one per edge b.mu.c, in group order and by (b, c)
    within a group, and the number of vertex slots they use.

    A vertex holds a slot from its first edge to its last.  Each step is
    (origin slot, c, terminus slot, b, bounds, completed, closed): bounds
    gives, for the origin and then the terminus, the range (low, high) of
    |B| - |C| that its unprocessed edges can still balance; completed lists
    (slot, offset) for an open vertex whose in-edges (offset 0) or out-edges
    (offset q) are now all processed; closed lists the slots of vertices
    with no edge left.
    """
    G, V = q ** (m - 1), q**m
    left_in, left_out = [q] * V, [q] * V
    slot: dict[int, int] = {}
    free: list[int] = []
    width = 0
    steps = []
    for mu in _group_order(q, m):
        for b in range(q):
            for c in range(q):
                o, t = b * G + mu, mu * q + c
                for v in (o, t):
                    if v not in slot:
                        slot[v] = heapq.heappop(free) if free else width
                        width = max(width, slot[v] + 1)
                so, st = slot[o], slot[t]
                left_out[o] -= 1
                left_in[t] -= 1
                bounds = ((-left_in[o], left_out[o]), (-left_in[t], left_out[t]))
                completed = []
                if left_out[o] == 0 < left_in[o]:
                    completed.append((so, q))
                if left_in[t] == 0 < left_out[t]:
                    completed.append((st, 0))
                closed = [slot.pop(v) for v in dict.fromkeys((o, t))
                          if left_in[v] == left_out[v] == 0]
                for s in closed:
                    heapq.heappush(free, s)
                steps.append((so, c, st, b, bounds, completed, closed))
    return steps, width


def _minor_weight(dft: list, rows: list[int], cols: list[int]) -> float:
    """|det F[rows, cols]|^2 of the DFT rows `dft`, by elimination with
    partial pivoting on |re| + |im| (LAPACK's choice) in Python complex."""
    a = [[dft[r][c] for c in cols] for r in rows]
    det = 1.0
    for k in range(len(a)):
        p = max(range(k, len(a)), key=lambda i: abs(a[i][k].real) + abs(a[i][k].imag))
        a[k], a[p] = a[p], a[k]
        pivot = a[k][k]
        if pivot == 0:
            return 0.0
        det *= pivot
        for row in a[k + 1 :]:
            f = row[k] / pivot
            for j in range(k + 1, len(a)):
                row[j] -= f * a[k][j]
    return abs(det) ** 2


def _balanced_subset_variances(
    q: int, m: int, d: int, max_work: int, max_states: int
) -> np.ndarray | None:
    """Var(a_0..a_d) of the order-m q-nary graph, from balanced edge sets.

    Var(a_n) is the sum over n-edge sets S of |det Sigma[S,S]|^2.  The minor
    vanishes unless S is balanced, every vertex v having as many in-edges as
    out-edges in S; it is then the product over v of |det F[C_v,B_v]|^2, F
    the q x q DFT, B_v the first letters of v's in-edges in S and C_v the
    last letters of its out-edges.  The edges are taken one at a time
    (`_edge_schedule`).  A state packs the open vertices' (B, C) masks into
    one integer code and carries a polynomial in |S| truncated at degree d.
    A vertex's weight is applied when it closes, after which states that
    differ only in its slot merge.  Each weight comes from `_minor_weight`
    on the <= q x q minor, once per mask and call (a dict of the masks met,
    read once per state), so no value depends on LAPACK.

    A state's int64 row in `aux` holds `need`, then |B_v| - |C_v| per slot.
    need is its lowest non-zero degree plus sum_v |B_v - C_v| / 2 over the
    open vertices, the fewest edges that could balance every vertex (the sum
    is even: every edge adds to one B and one C, and closed vertices are
    balanced).  Taking edge o -> t adds (|B_o| <= |C_o|) + (|B_t| >= |C_t|)
    to it, a loop 1, and a merge keeps the minimum.  A state is dropped when
    its need exceeds d or a vertex can no longer balance, tested on the
    edge's two end columns wherever the bound can fail.

    Returns None once the live states exceed max_states or their running
    sum over the steps exceeds max_work.
    """
    if max_states < 1:
        return None  # the empty set alone is one live state
    import numpy as np

    steps, width = _edge_schedule(q, m)
    bits, letters = 2 * q, (1 << q) - 1
    vertex = (1 << bits) - 1
    dft = _dft_table(q)
    # object codes hold Python ints when the slots outgrow 63 bits
    codes = np.zeros(1, dtype=np.int64 if width * bits < 63 else object)
    aux = np.zeros((1, width + 1), dtype=np.int64)
    polys = np.eye(1, d + 1)
    weight: dict[int, float] = {}  # of each mask met so far

    def passes(tests: list, *ranges: tuple) -> np.ndarray:
        # the tests, and each bound of low <= x <= high that x, known in lo..hi, can fail
        for x, low, high, lo, hi in ranges:
            tests += [low <= x] if low > lo else []
            tests += [x <= high] if high < hi else []
        out = tests[0] if tests else np.ones(len(codes), dtype=bool)
        for test in tests[1:]:
            out &= test
        return out

    def pick(rows: np.ndarray) -> tuple:
        return codes[rows], aux.take(rows, axis=0), polys.take(rows, axis=0)

    work = 0
    for so, c, st, b, ((o_low, o_high), (t_low, t_high)), completed, closed in steps:
        work += len(codes)
        if len(codes) > max_states or work > max_work:
            return None
        loop = so == st
        need, io, it = aux[:, 0], aux[:, 1 + so], aux[:, 1 + st]
        # before the edge a slot's |B| - |C| lies in -(out-edges) .. in-edges processed
        o_reach, t_reach = (o_high + 1 - q, q + o_low - loop), (t_high + loop - q, q + t_low - 1)
        stay = passes([], (io, o_low, o_high, *o_reach), (it, t_low, t_high, *t_reach))
        # taking it moves the origin's |B| - |C| by -u and the terminus's by u, 0 on a loop
        u, grow = (0, need + 1) if loop else (1, need + (io <= 0) + (it >= 0))
        take = passes([grow <= d], (io, o_low + u, o_high + u, *o_reach),
                      (it, t_low - u, t_high - u, *t_reach))
        kept, taken = stay.nonzero()[0], take.nonzero()[0]
        split = len(kept)
        codes, aux, polys = pick(np.concatenate([kept, taken]))
        # taking the edge adds c to its origin's C and b to its terminus's B
        codes[split:] |= (1 << (so * bits + q + c)) | (1 << (st * bits + b))
        aux[split:, 0] = grow[taken]
        aux[split:, 1 + so] -= 1
        aux[split:, 1 + st] += 1
        polys[split:, 1:] = polys[split:, :-1]
        polys[split:, 0] = 0.0
        if not completed and not closed:
            continue
        for s, offset in completed:
            # |det F[C,B]|^2 is unchanged when B or C shifts by a letter mod q
            shift = s * bits + offset
            mask = (codes >> shift) & letters
            least = mask
            for r in range(1, q):
                least = np.minimum(least, ((mask << r) | (mask >> (q - r))) & letters)
            codes = codes ^ ((mask ^ least) << shift)
        for s in closed:
            masks = ((codes >> (s * bits)) & vertex).tolist()
            for x in set(masks).difference(weight):
                B = [j for j in range(q) if x >> j & 1]
                C = [j for j in range(q) if x >> (q + j) & 1]
                weight[x] = _minor_weight(dft, C, B)
            w = np.array([weight[x] for x in masks])
            live = (w > 0).nonzero()[0]
            if len(live) < len(w):
                (codes, aux, polys), w = pick(live), w[live]
            codes &= ~(vertex << (s * bits))
            polys *= w[:, None]
        codes, aux, polys = pick(codes.argsort(kind="stable"))
        head = np.ones(len(codes), dtype=bool)
        np.not_equal(codes[1:], codes[:-1], out=head[1:])
        first = head.nonzero()[0]
        if len(first) < len(codes):
            # merged states share their |B| - |C| columns, and keep the least need
            codes, aux = codes[first], np.minimum.reduceat(aux, first, axis=0)
            polys = np.add.reduceat(polys, first, axis=0)
    return polys[0]


# U(k) for a chunk of wavenumbers at a time: 64 draws at E = 16, 4 at E = 64
_SAMPLE_CHUNK_BYTES = 2**18


def _check_sampling(samples: int, k_max: float) -> None:
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    if not 0 < k_max < float("inf"):
        raise ValueError(f"k_max must be finite and positive, got {k_max}")
    _check_phase(k_max, 1, "k_max")


def _check_sample_size(samples: int, E: int) -> None:
    """Refuse, before numpy allocates, a sample the sampler could not hold:
    past the dimension cap, or more coefficients than the budget."""
    _check_dimension(E)
    if samples * (E + 1) > DEFAULT_ENUMERATION_BUDGET:
        raise BudgetExceededError(f"{samples} samples of {E + 1} coefficients exceed "
                                  f"budget {DEFAULT_ENUMERATION_BUDGET}")


def _sampled_coefficients(
    inst: SpectralInstance, ns, samples: int, k_max: float, seed: int
) -> np.ndarray:
    """The coefficients a_n, n in ns, at `samples` uniform k draws on
    [0, k_max]: row i holds a_(ns[i]) at every draw.  Deterministic for a
    given seed.

    The draws are k_max times the seed's stream (`_random`) past the E
    numbers `build_instance` takes as edge lengths.  Each chunk's U(k) is
    one broadcast and its polynomials one `_char_polys` call; rows are
    reproducible for this chunk rule, not bit-identical across chunk sizes.
    U(k), the products and the polynomials live in three buffers allocated
    once per call, not once per chunk.
    """
    import numpy as np

    E = inst.graph.num_edges
    _check_sampling(samples, k_max)
    _check_sample_size(samples, E)
    ks = k_max * _random(seed, E + samples)[E:]
    chunk = min(samples, max(1, _SAMPLE_CHUNK_BYTES // (16 * E * E)))
    sigma = assemble_sigma(inst.graph)[:, :, None]
    U, work = np.empty(E * E * chunk, dtype=complex), np.empty(E * E * chunk, dtype=complex)
    p = np.empty((E + 1) ** 2 * chunk, dtype=complex)
    out = np.empty((len(ns), samples), dtype=complex)
    for lo in range(0, samples, chunk):
        c = min(chunk, samples - lo)
        phases = np.exp(1j * np.multiply.outer(inst.lengths, ks[lo : lo + c]))
        H = np.multiply(phases[:, None, :], sigma, out=U[: E * E * c].reshape(E, E, c))
        polys = _char_polys(H, work, p[: (E + 1) ** 2 * c].reshape(E + 1, E + 1, c))
        out[:, lo : lo + c] = polys[:, ns].T
    return out


def _sampled_variances(
    inst: SpectralInstance, ns, samples: int, k_max: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample means of |a_n|^2, n in ns, and their standard errors, all from
    one pass of the sampler; each n's values reduce on their own, so its
    numbers do not depend on the other n."""
    import numpy as np

    values = np.abs(_sampled_coefficients(inst, ns, samples, k_max, seed)) ** 2
    return values.mean(axis=1), values.std(axis=1, ddof=1) / np.sqrt(samples)


def monte_carlo_variance(
    inst: SpectralInstance, n: int, samples: int, k_max: float, seed: int
) -> tuple[float, float]:
    """Estimate the k-average of |a_n|^2 from uniform k draws on [0, k_max].

    Returns (sample mean, standard error); deterministic for a given seed.
    """
    n = _check_index(n, inst.graph.num_edges)
    mean, error = _sampled_variances(inst, [n], samples, k_max, seed)
    return float(mean[0]), float(error[0])


def monte_carlo_coefficient_means(
    inst: SpectralInstance, samples: int, k_max: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample means of the complex coefficients a_0..a_E over uniform k.

    Returns (means, standard errors); the standard error combines real and
    imaginary scatter.  Averaged over k, every a_n with n >= 1 has mean zero.
    """
    import numpy as np

    coeffs = _sampled_coefficients(inst, range(inst.graph.num_edges + 1), samples, k_max, seed)
    means = coeffs.mean(axis=1)
    spread = np.sqrt(np.mean(np.abs(coeffs - means[:, None]) ** 2, axis=1))
    return means, spread / np.sqrt(samples)


def rmt_reference(ensemble: str, n: int, dim: int) -> float:
    """Circular-ensemble coefficient variance: CUE -> 1, COE -> 1 + n(E-n)/(E+1)."""
    n = _check_index(n, dim)
    name = ensemble.upper()
    if name == "CUE":
        return 1.0
    if name == "COE":
        return 1.0 + n * (dim - n) / (dim + 1)
    raise ValueError(f"unknown ensemble {ensemble!r}, expected CUE or COE")


def variance_report(
    q: int,
    m: int,
    n: int,
    seed: int,
    samples: int = 0,
    k_max: float = 1e4,
) -> dict:
    """One (q, m, n) record as a JSON-serializable dict, keys in output
    order: the configuration, the pseudo-orbit count, the diagonal,
    exact-grouped and reference values, then, only when samples > 0, the
    Monte-Carlo keys mc_estimate, mc_std_error and k_max.  samples must be
    0 or at least 2.  Every refusal, the dimension cap and the sample budget
    first when sampling, comes before Sigma is built."""
    if samples != 0:
        _check_sampling(samples, k_max)
    E = build_graph(q, m).num_edges
    if samples > 0:
        _check_sample_size(samples, E)
    n = _check_index(n, E)
    exact = _exact_variance(q, m, n)
    record = {
        "q": q, "m": m, "n": n, "seed": seed, "samples": samples,
        "pseudo_orbit_count": count_strictly_decreasing(q, n),
        "diag": diagonal_variance(q, n), "exact_grouped": exact,
        "cue_ref": rmt_reference("CUE", n, E), "coe_ref": rmt_reference("COE", n, E),
    }
    if samples > 0:
        inst = build_instance(q, m, seed)
        record["mc_estimate"], record["mc_std_error"] = monte_carlo_variance(
            inst, n, samples, k_max, seed
        )
        record["k_max"] = k_max
    return record
