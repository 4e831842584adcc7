#!/usr/bin/env python3
"""Record the reference outputs that `run.py` checks against.

    python3 perfbench/record.py

Writes `reference.json`: the exact grouped variance for every (q, m, n) a
workload reaches, and the exit code and stdout digest of every unseeded CLI
command.  Exact variances do not depend on the edge lengths (they are drawn
rationally independent), so one edge-length seed serves every workload seed.
Re-record only when a change is meant to alter these outputs.
"""

import hashlib
import json
import sys

import run

sys.path.insert(0, str(run.SRC))

from qnary import build_instance, exact_grouped_variance  # noqa: E402


def _flag(argv, name):
    return int(argv[argv.index(name) + 1])


def exact_needs() -> dict:
    """Largest n needed per graph (q, m) over every workload config."""
    needs = {}

    def need(q, m, n):
        needs[(q, m)] = max(needs.get((q, m), 0), n)

    for variants in run.WORKLOADS.values():
        for spec in variants.values():
            for q, m, n_max in spec.get("graphs", ()):
                need(q, m, n_max)
            for q, m, n, _ in spec.get("mc_variance", ()):
                need(q, m, n)
            for cmd in spec.get("commands", ()):
                if cmd["check"] == "variance":
                    argv = cmd["argv"]
                    need(_flag(argv, "--q"), _flag(argv, "--m"), _flag(argv, "--n"))
    return needs


def main():
    exact = {}
    for (q, m), n_max in sorted(exact_needs().items()):
        inst = build_instance(q, m, seed=0)
        top = min(inst.graph.num_edges, n_max)
        exact[f"{q},{m}"] = [exact_grouped_variance(inst, n) for n in range(top + 1)]

    recorded = {run.CLI_SETUP["label"]: run.CLI_SETUP["argv"]}
    for variants in run.WORKLOADS.values():
        for spec in variants.values():
            for cmd in spec.get("commands", ()):
                if cmd["check"] == "recorded":
                    recorded[cmd["label"]] = cmd["argv"]
    cli = {}
    for label, argv in sorted(recorded.items()):
        child = run.run_child(run.qnary_argv(argv))
        cli[label] = {
            "argv": argv,
            "exit": child.code,
            "sha256": hashlib.sha256(child.stdout).hexdigest(),
            "bytes": len(child.stdout),
        }

    run.REFERENCE.write_text(
        json.dumps({"exact_variance": exact, "cli": cli}, indent=1) + "\n"
    )
    print(f"wrote {run.REFERENCE.name}: {len(exact)} graphs, {len(cli)} CLI commands")


if __name__ == "__main__":
    main()
