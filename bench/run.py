"""Benchmark shadowkit's CLI on one workload.

From the root of a checkout:

    python3 bench/run.py --workload conjugacy --seed 11 --seconds 36 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``.  Details of the run
(machine, every pass and invocation, and with ``--trace 1`` the spans) go
to ``.bench_out/<workload>/``.  See README.md in this directory.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bootstrap():
    """Pin threads, put the checkout's sources first on the path, cd to root.

    Returns an exit status when the checkout holds no shadowkit sources.
    """
    # BLAS threads are pinned before numpy loads, and the sweep pool takes
    # its default size (os.cpu_count()); README.md says why
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ.pop("SHADOWKIT_THREADS", None)

    package = ROOT / "src" / "shadowkit"
    if not (package / "__init__.py").is_file():
        print(f"bench: no shadowkit sources at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import shadowkit
    if Path(shadowkit.__file__).resolve().parent != package.resolve():
        print(f"bench: imported shadowkit from {shadowkit.__file__}, "
              f"not from {package}", file=sys.stderr)
        return 2
    os.chdir(ROOT)      # artifact paths, echoed in manifests, stay relative
    return None


def main():
    code = bootstrap()
    if code:
        return code
    import harness
    return harness.main()


if __name__ == "__main__":
    raise SystemExit(main())
