#!/usr/bin/env python3
"""Record the sha256 of every data file each workload writes, per seed.

    python3 perfbench/record_digests.py

Runs every workload once for CLI seeds 0..SEEDS-1 and writes
perfbench/reference_digests.json, against which the traced run of
perfbench/run.py reports io.outputs_match_seed.  manifest.json is left
out because it holds the wall time.  Record it at the commit whose bytes
later commits should reproduce; an invocation that fails its output check
aborts the recording.
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = 32


def main() -> int:
    problem = run.preflight()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    env = run.child_env()
    info = run.provenance(0, env)
    table = {"seeds": SEEDS, "git_commit": info["git_commit"],
             "src_sha256": info["src_sha256"], "workloads": {}}
    for name, w in run.WORKLOADS.items():
        per_seed = table["workloads"][name] = {}
        for seed in range(SEEDS):
            inv = run.invoke(w, seed, env, digest=True)
            if inv.error:
                print(f"error: {name} seed {seed}: {inv.error}", file=sys.stderr)
                return 1
            per_seed[str(seed)] = inv.digests
            print(f"{name} seed {seed}: {len(inv.digests)} files", flush=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
