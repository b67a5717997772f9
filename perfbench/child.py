"""Run one hcmgnn CLI command in this fresh process, with probes installed.

    python3 perfbench/child.py COMMAND CONFIG RESULT [--trace SPANS]

The package is imported from `src/` of the checkout this file sits in.
The result JSON holds the command's exit code, its peak RSS, the probe
summaries and the environment record; `run.py` checks the command's
output files and turns the result into metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
        "HCMGNN_THREADS": os.environ.get("HCMGNN_THREADS"),
    }


def out_bytes(out: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(out) for f in files)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("command", choices=["test", "cv"])
    parser.add_argument("config")
    parser.add_argument("result")
    parser.add_argument("--trace", metavar="SPANS", default=None,
                        help="record spans and write them to SPANS")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import hcmgnn
    from hcmgnn import cli
    if Path(hcmgnn.__file__).resolve().parent != SRC / "hcmgnn":
        raise SystemExit(f"hcmgnn imported from {hcmgnn.__file__}, not from {SRC}")

    import probes
    probe = probes.Probes()
    probe.install()
    tracer = None
    main_fn = cli.main
    if args.trace:
        tracer = probes.Tracer()
        tracer.install()
        main_fn = tracer.wrap("cli.main", cli.main)

    t_entry = time.perf_counter()
    rc = main_fn([args.command, "--config", args.config])
    t_exit = time.perf_counter()
    exit_clock = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "rc": rc,
        "main_s": t_exit - t_entry,
        "exit_clock": exit_clock,
        "peak_rss_mb": peak_rss_mb,
        "env": environment(),
        "probes": probe.summary(t_entry),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(args.trace)

    cfg = cli.load_config(args.config)
    result["out_bytes"] = out_bytes(cfg.out)
    if rc == 0 and args.command == "test":
        # the test ids, rebuilt after timing, that the ranks must cover one to one
        result["test_ids"] = cli.build_split(cfg, cli.build_graph(cfg)).test
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
