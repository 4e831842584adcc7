"""One benchmark iteration in a fresh process.

    python3 perfbench/worker.py '<job as JSON>'

`run.py` starts one worker per iteration, so the package's process-lifetime
caches start empty, as they do for every script or CLI user.  The worker
times its set-up (`import qnary` plus `build_instance`) and the workload
separately, and prints one JSON line with the raw outputs; `run.py` checks
them.  Job kinds:

* `exact`: `exact_grouped_variance` for n = 0..min(E, n_max) on each graph;
* `det`: determinant coefficients, Monte-Carlo variances and coefficient
  means;
* `cli`: one `qnary.cli.main(argv)` call, traced (the untraced CLI runs as
  `python3 -m qnary`);
* `exact` or `det` with `"setup_only": true`: the set-up alone, the
  runner's warm-up probe;
* `machine`: library versions and BLAS threads for the machine note.

With `"trace": true` the public entry points are wrapped by `tracer.Tracer`
before any package function runs; without it the package runs unmodified.
"""

import json
import resource
import sys
import time

from tracer import Tracer, residual


def _graphs(job):
    """The (q, m, edge-length seed) graphs a job's work runs on."""
    if job["kind"] == "exact":
        return [(q, m, seed) for q, m, _, seed in job["graphs"]]
    parts = job["charpoly"] + job["mc_variance"] + job["mc_means"]
    return sorted({tuple(part[:3]) for part in parts})


def _run_exact(Q, job, insts):
    variances = []
    for q, m, n_max, seed in job["graphs"]:
        inst = insts[(q, m, seed)]
        top = min(inst.graph.num_edges, n_max)
        variances.append([q, m, [Q.exact_grouped_variance(inst, n) for n in range(top + 1)]])
    return {"variances": variances}


def _counts(Q, variances):
    """Pseudo orbits enumerated against the closed-form count, per (q, n)."""
    pairs = sorted({(q, n) for q, _, values in variances for n in range(len(values))})
    return [
        [q, n, len(Q.primitive_pseudo_orbits(q, n)), Q.count_strictly_decreasing(q, n)]
        for q, n in pairs
    ]


def _run_det(Q, job, insts):
    k_max = job["k_max"]
    coeffs = []
    for q, m, seed, ks in job["charpoly"]:
        inst = insts[(q, m, seed)]
        coeffs.extend(Q.char_poly_direct(Q.evolution_operator(inst, k)).a for k in ks)
    mc_variance = []
    for q, m, seed, n, samples, mc_seed in job["mc_variance"]:
        est, se = Q.monte_carlo_variance(insts[(q, m, seed)], n, samples, k_max, mc_seed)
        mc_variance.append([q, m, n, est, se])
    mc_means = []
    for q, m, seed, samples, mc_seed in job["mc_means"]:
        inst = insts[(q, m, seed)]
        means, errors = Q.monte_carlo_coefficient_means(inst, samples, k_max, mc_seed)
        mc_means.append([q, m, means.real.tolist(), means.imag.tolist(), errors.tolist()])
    return {"coeffs": coeffs, "mc_variance": mc_variance, "mc_means": mc_means}


def _run_cli(job, tracer, start):
    import contextlib
    import io

    import numpy  # noqa: F401  (timed on its own: the CLI pays it on every call)

    numpy_done = time.perf_counter()
    import qnary.cli

    imported = time.perf_counter()
    tracer.install()
    out, err = io.StringIO(), io.StringIO()
    ready = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with tracer.span("cli.main"):
            code = qnary.cli.main(job["argv"])
    end = time.perf_counter()
    result = {
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "numpy_import_s": numpy_done - start,
        "import_s": imported - start,
    }
    return ready, end, result


def _machine():
    import ctypes
    import glob
    import os

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
    return {
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def main():
    job = json.loads(sys.argv[1])
    if job["kind"] == "machine":
        print(json.dumps(_machine()))
        return
    tracer = Tracer() if job.get("trace") else None
    start = time.perf_counter()
    if job["kind"] == "cli":
        ready, end, result = _run_cli(job, tracer, start)
    else:
        import qnary as Q

        if tracer:
            tracer.install()
        insts = {graph: Q.build_instance(*graph) for graph in _graphs(job)}
        ready = time.perf_counter()
        if job.get("setup_only"):
            print(json.dumps({"setup_s": ready - start}))
            return
        result = (_run_exact if job["kind"] == "exact" else _run_det)(Q, job, insts)
        end = time.perf_counter()
    # peak RSS and spans of the timed work, before the checks below run
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "setup_s": ready - start,
        "wall_s": end - ready,
        "peak_rss_mb": peak_rss_mb,
        "result": result,
        "trace": tracer.summary(since=ready) if tracer else None,
    }
    if tracer and job.get("spans_path"):
        tracer.write(job["spans_path"])
    if job["kind"] == "exact":
        result["counts"] = _counts(Q, result["variances"])
    if job["kind"] == "det":
        result["residuals"] = [float(residual(a)) for a in result.pop("coeffs")]
    print(json.dumps(record))


if __name__ == "__main__":
    main()
