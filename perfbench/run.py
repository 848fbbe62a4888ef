#!/usr/bin/env python3
"""The htsp benchmark: one workload, one seed, one JSON result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc-zoo --seed 1 --seconds 5 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced round.  The last line of standard output is the
result object; the full record (instance digests, versions, per-operation
times and output digests) goes to ``.perfbench_out/`` in the checkout.
The program is imported from ``src/`` of the checkout, never from an
installed copy; without it the benchmark exits with code 2.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# one thread for BLAS as well as for Python; set before numpy is imported
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "htsp" / "__init__.py").is_file():
        print(f"perfbench: no htsp sources under {src}", file=sys.stderr)
        return 2
    for var in THREAD_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import htsp

    if Path(htsp.__file__).resolve().parent != (src / "htsp").resolve():
        print(f"perfbench: imported htsp from {htsp.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import bench

    wl = bench.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    result = bench.run_workload(wl, args.seed, args.seconds, bool(args.trace),
                                ROOT / ".perfbench_out", ROOT)
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
