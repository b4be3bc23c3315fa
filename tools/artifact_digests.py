"""Print one digest line per benchmark invocation and seed.

Runs every invocation and probe of every workload in ``bench/workloads.py``
through ``shadowkit.cli.main`` in this process, each in a fresh output
directory, with OpenBLAS pinned to one thread as the benchmark pins it, and
prints one line per (seed, label):

    <seed> <workload> <label> exit=<code> sha256=<hex>

The digest covers the CSV, ``report.json``, ``manifest.json`` without its
``versions`` and its config's ``out`` (the two entries that name the
machine and the directory), and the run's standard output.  Two checkouts
whose lines are equal wrote the same artifacts.  Run it from anywhere as

    python3 tools/artifact_digests.py 0-20,12345

(the seeds are a comma-separated list of integers and inclusive ranges).
It imports the checkout's own ``src/shadowkit`` and only reads ``bench/``.
"""

import os
import sys

# pinned before numpy loads, as in bench/run.py
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import tempfile  # noqa: E402
import types  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent


def bench_workloads():
    """``WORKLOADS`` of ``bench/workloads.py``, executed from its source so
    that no byte-code lands under ``bench/``."""
    path = ROOT / "bench" / "workloads.py"
    module = types.ModuleType("bench_workloads")
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[module.__name__] = module
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module.WORKLOADS


def parse_seeds(text):
    """``"0-20,12345"`` as ``[0, 1, ..., 20, 12345]``."""
    seeds = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        seeds += range(int(lo), int(hi if dash else lo) + 1)
    return seeds


def digest(inv, out, stdout):
    """sha256 over the run's artifacts and stdout, each part named and
    sized, a missing file sized -1."""
    outdir = pathlib.Path(out)
    parts = []
    for name in (inv.experiment.replace("-", "_") + ".csv", "report.json"):
        path = outdir / name
        parts.append((name, path.read_bytes() if path.is_file() else None))
    manifest = outdir / "manifest.json"
    data = None
    if manifest.is_file():
        doc = json.loads(manifest.read_text())
        doc.pop("versions", None)
        doc.get("config", {}).pop("out", None)
        data = json.dumps(doc, sort_keys=True).encode()
    parts += [("manifest.json", data), ("stdout", stdout.encode())]
    h = hashlib.sha256()
    for name, data in parts:
        h.update(f"{name} {-1 if data is None else len(data)}\n".encode())
        h.update(data or b"")
    return h.hexdigest()


def run(inv, seed, out):
    from shadowkit import cli

    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(io.StringIO()):
        code = cli.main(inv.argv(seed, out))
    return code, digest(inv, out, sink.getvalue())


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    seeds = parse_seeds(argv[0])
    sys.path.insert(0, str(ROOT / "src"))
    workloads = bench_workloads()
    with tempfile.TemporaryDirectory() as scratch:
        count = 0
        for seed in seeds:
            for name, workload in workloads.items():
                for inv in workload.invocations + workload.probes:
                    count += 1
                    code, hexdigest = run(inv, seed,
                                          os.path.join(scratch, str(count)))
                    print(f"{seed} {name} {inv.label} exit={code} "
                          f"sha256={hexdigest}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
