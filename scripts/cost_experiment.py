#!/usr/bin/env python3
"""Long-horizon cost-bound measurement across the generator families.

For each family: run joined trials at the optimized parameters, verify
every join, and report the fractional-join and tree-plus-join cost means
against their bounds, with slack in units of the LP cost.

Usage:
    python scripts/cost_experiment.py [--trials 1000000] [--seed 42] [--out costs.csv]
"""

import argparse
import sys
import time

import numpy as np

sys.path.insert(0, "src")

from htsp.generators import generate
from htsp.join import ReductionParams
from htsp.params import optimize
from htsp.pipeline import SamplerParams
from htsp.engine import BatchEngine, check_seed
from htsp.stats import suite_cost

FAMILIES = ("double-cycle", "k5-gadget", "nested", "random-4reg", "zoo")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--gen-seed", type=int, default=3)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    check_seed(seed=args.seed, gen_seed=args.gen_seed)

    res = optimize()
    sp = SamplerParams(sampler="mix", mix_lambda=res.lam)
    rp = ReductionParams(res.tau, res.gamma, res.beta)
    lines = ["family,trials,lp_cost,frac_join_mean,frac_bound,frac_slack,"
             "total_mean,total_bound,total_slack,infeasible"]
    for family in FAMILIES:
        rng = np.random.default_rng(args.gen_seed)
        inst = generate(family, rng)
        t0 = time.time()
        eng = BatchEngine(inst, sp, rp)
        st = eng.run(args.trials, seed=args.seed, join=True, verify=True,
                     integral=True)
        cx = float(eng.lp_cost)
        rows = {r.name: r for r in suite_cost(eng, st)}
        frac, total = rows["fractional-join-cost"], rows["tree-plus-join-cost"]
        lines.append(
            f"{family},{st.trials},{cx:.10g},{frac.estimate:.10g},{frac.bound:.10g},"
            f"{frac.slack / cx:.6g},{total.estimate:.10g},"
            f"{total.bound:.10g},{total.slack / cx:.6g},"
            f"{st.feasibility_failures}"
        )
        print(f"{family:12s} ratio {total.estimate / cx:.4f}  "
              f"frac slack {frac.slack / cx:+.2e}  "
              f"infeasible {st.feasibility_failures}  "
              f"[{time.time() - t0:.0f}s]")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
