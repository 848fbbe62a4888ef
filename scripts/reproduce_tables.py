#!/usr/bin/env python3
"""Regenerate the guarantee tables: correlation rows, the even-at-last
table, and the reduction-parameter optimization.

Usage:
    python scripts/reproduce_tables.py [--trials 100000] [--seed 2024]
"""

import argparse
import sys

import numpy as np

sys.path.insert(0, "src")

from htsp.generators import generate_k5_gadget, generate_zoo, standalone_piece
from htsp.join import ReductionParams
from htsp.params import optimize
from htsp.pipeline import SamplerParams
from htsp.engine import BatchEngine
from htsp.stats import suite_correlations, suite_eal


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()

    print("== parameter optimization ==")
    res = optimize()
    for key, val in res.as_floats().items():
        print(f"  {key:8s} = {val:.7f}")
    print(f"  binding: {', '.join(res.binding)}")

    print("\n== correlation rows (worst tuple per row) ==")
    for piece_name in ("c8_12", "c7bar"):
        piece = standalone_piece(piece_name)
        for sampler in ("mi", "maxent"):
            rep = suite_correlations(piece, sampler, args.trials, args.seed,
                                     piece_label=piece_name)
            rows = [r for r in rep if not r.name.endswith("/exact")]
            by_name: dict = {}
            for r in rows:
                cur = by_name.get(r.name)
                if cur is None or r.estimate < cur.estimate:
                    by_name[r.name] = r
            for name, r in sorted(by_name.items()):
                mark = "ok " if r.passed else "LOW"
                print(f"  {piece_name:7s} {sampler:6s} {name:32s} "
                      f">= {r.bound:.5f}  got {r.estimate:.5f}  [{mark}]")

    print("\n== even-at-last table (worst edge per class) ==")
    rng = np.random.default_rng(args.seed)
    instances = {"zoo": generate_zoo(rng), "k5-gadget": generate_k5_gadget(6, rng)}
    for label, inst in instances.items():
        for sampler in ("mi", "maxent", "mix"):
            sp = SamplerParams(sampler=sampler, mix_lambda=res.lam)
            rp = ReductionParams(res.tau, res.gamma, res.beta)
            eng = BatchEngine(inst, sp, rp)
            for r in suite_eal(eng, eng.run(args.trials, seed=args.seed, join=True)):
                kind = r.name.split("/", 1)[1]
                print(f"  {label:10s} {sampler:6s} {kind:13s} "
                      f">= {r.bound:.5f}  got {r.estimate:.5f}  "
                      f"[{'ok ' if r.passed else 'LOW'}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
