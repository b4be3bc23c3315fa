"""Record the reference CSV digests of the benchmark's correctness gate.

From the root of a checkout whose results are trusted:

    python3 bench/record_refs.py

Runs every workload once per seed in ``SEEDS`` and writes bench/refs.json:
for each workload and seed, the sha256 of each invocation's CSV.  It stops
without writing if any invocation fails its own checks.
"""

import json
import sys

import run

#: 11 is the documented default seed and 12345 the held-out one; 0-20 cover
#: the small seeds a sweep of runs is likely to use
SEEDS = tuple(range(21)) + (12345,)


def main():
    code = run.bootstrap()
    if code:
        return code
    import harness
    from workloads import WORKLOADS

    refs = {}
    for name, workload in WORKLOADS.items():
        refs[name] = {}
        for seed in SEEDS:
            p = harness.run_pass(workload, seed, f".bench_out/refs/{name}")
            failed = [o.label for o in p.outcomes if not o.ok]
            if failed:
                print(f"{name} seed {seed}: {failed} failed; nothing written",
                      file=sys.stderr)
                return 1
            refs[name][str(seed)] = {o.label: o.digest for o in p.outcomes}
            print(f"{name} seed {seed}: recorded", file=sys.stderr)
    harness.REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
