"""The package's array kernels and its one import of numpy: the stacked
characteristic polynomials, the balanced-set DP's steps in arrays and the
Monte-Carlo sampler.  `quantum` and `spectral_stats` import this module
inside the functions that need arrays, so `import qnary` compiles none of
it, and it is compiled before numpy loads."""

from __future__ import annotations

import math

import numpy as np

from .quantum import SpectralInstance, _random, assemble_sigma
from .spectral_stats import _check_sample_size, _check_sampling

# U(k) for a chunk of wavenumbers at a time: 64 draws at E = 16, 4 at E = 64
_SAMPLE_CHUNK_BYTES = 2**18


def _char_polys(H: np.ndarray, work: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Characteristic polynomials of a stack of N x N matrices, the sample
    axis last: H has shape (N, N, c), and row s of the (c, N+1) result holds
    the coefficients of det(xi I - H[:, :, s]), a[n] multiplying xi^(N-n).

    Householder reflections P = I - v v^H, |v|^2 = 2, reduce each matrix A
    to upper Hessenberg form P...A...P by unitary similarity.  La Budde's
    recurrence then gives the polynomial p_i of H's leading i x i block,

        p_i = (xi - H[i-1,i-1]) p_(i-1)
              - sum_(r < i-1) H[r,i-1] H[r+1,r] ... H[i-1,i-2] p_r,

    O(N^3) in all (Rehman & Ipsen, "La Budde's method for computing
    characteristic polynomials", 2011).  Every step is one broadcast over
    the sample axis; the leading coefficient comes out exactly 1.

    The caller owns the memory: H is reduced in place, every large product
    goes to the flat buffer `work` (at least N*N*c entries), and p, of shape
    (N+1, N+1, c), takes the polynomials.  So a caller that reuses them
    allocates nothing of size N*N*c per stack.
    """
    N, c = H.shape[0], H.shape[2]

    def product(*shape):
        # a C-contiguous view at the front of work: a fresh temporary's layout
        return work[: math.prod(shape)].reshape(shape)

    for j in range(N - 2):
        # v = x + e^(i arg x_0) |x| e_1 maps column j below the diagonal onto e_1
        x = H[j + 1 :, j]
        size = np.abs(x[0])
        phase = np.divide(x[0], size, out=np.ones(c, dtype=complex), where=size > 0)
        v = x.copy()
        v[0] += phase * np.sqrt((x.real**2 + x.imag**2).sum(axis=0))
        norm2 = (v.real**2 + v.imag**2).sum(axis=0)
        # a zero column needs no reflection: v = 0 is P = I
        v *= np.sqrt(np.divide(2.0, norm2, out=np.zeros(c), where=norm2 > 0))
        vc = v.conj()
        # H[j+1:, j:] -= v (v^H H[j+1:, j:]), then H[:, j+1:] -= (H[:, j+1:] v) v^H
        rows = H[j + 1 :, j:]
        t = np.multiply(vc[:, None], rows, out=product(*rows.shape))
        rows -= np.multiply(v[:, None], t.sum(axis=0), out=t)
        cols = H[:, j + 1 :]
        t = np.multiply(cols, v, out=product(*cols.shape))
        cols -= np.multiply(t.sum(axis=1)[:, None], vc, out=t)
    # p[i, t] is the xi^t coefficient of p_i
    p.fill(0)
    p[0, 0] = 1.0
    chain = np.zeros((0, c), dtype=complex)  # chain[r] = H[r+1,r] ... H[i-1,i-2]
    for i in range(1, N + 1):
        p[i, 1 : i + 1] = p[i - 1, :i]
        p[i, :i] -= H[i - 1, i - 1] * p[i - 1, :i]
        if i >= 2:
            chain = np.concatenate([chain, np.ones((1, c))]) * H[i - 1, i - 2]
            weights = H[: i - 1, i - 1] * chain
            t = np.multiply(weights[:, None], p[: i - 1, : i - 1], out=product(i - 1, i - 1, c))
            p[i, : i - 1] -= t.sum(axis=0)
    return np.ascontiguousarray(p[N, ::-1].T)


def _balanced_steps(q: int, d: int, width: int, max_work: int, max_states: int, weigh,
                    weight: dict, steps: list, states: list, work: int) -> list[float] | None:
    """The balanced-set DP of `spectral_stats._balanced_subset_variances`
    from its state tuples `states`, in order, through the rest of its
    `steps` in numpy arrays; `work` is the running sum so far, `weigh` fills
    the shared `weight` table of the masks met.  Returns Var(a_0..a_d), or
    None past either cap."""
    bits, letters = 2 * q, (1 << q) - 1
    vertex = (1 << bits) - 1
    # object codes hold Python ints when the slots outgrow 63 bits
    codes = np.array([state[0] for state in states],
                     dtype=np.int64 if width * bits < 63 else object)
    aux = np.array([(need, *balance) for _, need, balance, _ in states], dtype=np.int64)
    polys = np.array([state[3] for state in states])

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

    for so, c, st, b, ((o_low, o_high), (t_low, t_high)), completed, closed in steps:
        work += len(codes)
        if len(codes) > max_states or work > max_work:
            return None
        loop = so == st
        need, io, it = aux[:, 0], aux[:, 1 + so], aux[:, 1 + st]
        # before the edge a slot's |B| - |C| lies in -(out-edges) .. in-edges processed
        o_reach = (o_high + 1 - q, q + o_low - loop)
        t_reach = (t_high + loop - q, q + t_low - 1)
        stay = passes([], (io, o_low, o_high, *o_reach), (it, t_low, t_high, *t_reach))
        u, grow = (0, need + 1) if loop else (1, need + (io <= 0) + (it >= 0))
        take = passes([grow <= d], (io, o_low + u, o_high + u, *o_reach),
                      (it, t_low - u, t_high - u, *t_reach))
        kept, taken = stay.nonzero()[0], take.nonzero()[0]
        split = len(kept)
        codes, aux, polys = pick(np.concatenate([kept, taken]))
        codes[split:] |= (1 << (so * bits + q + c)) | (1 << (st * bits + b))
        aux[split:, 0] = grow[taken]
        aux[split:, 1 + so] -= 1
        aux[split:, 1 + st] += 1
        polys[split:, 1:] = polys[split:, :-1]
        polys[split:, 0] = 0.0
        if not completed and not closed:
            continue
        for s, offset in completed:
            shift = s * bits + offset
            mask = (codes >> shift) & letters
            low = mask
            for r in range(1, q):
                low = np.minimum(low, ((mask << r) | (mask >> (q - r))) & letters)
            codes = codes ^ ((mask ^ low) << shift)
        for s in closed:
            masks = ((codes >> (s * bits)) & vertex).tolist()
            weigh(masks)
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
            codes, aux = codes[first], np.minimum.reduceat(aux, first, axis=0)
            polys = np.add.reduceat(polys, first, axis=0)
    return polys[0].tolist()


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
    E = inst.graph.num_edges
    _check_sampling(samples, k_max)
    _check_sample_size(samples, E)
    ks = k_max * np.asarray(_random(seed, E + samples))[E:]
    chunk = min(samples, max(1, _SAMPLE_CHUNK_BYTES // (16 * E * E)))
    sigma, lengths = assemble_sigma(inst.graph)[:, :, None], np.asarray(inst.lengths)
    U, work = np.empty(E * E * chunk, dtype=complex), np.empty(E * E * chunk, dtype=complex)
    p = np.empty((E + 1) ** 2 * chunk, dtype=complex)
    out = np.empty((len(ns), samples), dtype=complex)
    for lo in range(0, samples, chunk):
        c = min(chunk, samples - lo)
        phases = np.exp(1j * np.multiply.outer(lengths, ks[lo : lo + c]))
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
    values = np.abs(_sampled_coefficients(inst, ns, samples, k_max, seed)) ** 2
    return values.mean(axis=1), values.std(axis=1, ddof=1) / np.sqrt(samples)
