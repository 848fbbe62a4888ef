"""Command-line surface.

Subcommands: generate, validate, normalize, hierarchy, cactus, sample,
join, tour, stats, optimize-params, oracle.  Everything is seeded and
deterministic: the same instance, seed, and flags produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from . import generators
from .engine import BatchEngine, CompiledInstance, check_positive, check_seed
from .errors import HtspError
from .graph import parse_instance, normalize_to_special_triple, serialize_instance
from .hierarchy import build_cactus, build_hierarchy, min_cuts_via_hierarchy
from .params import DEFAULT_MIX_LAMBDA
from .pipeline import SamplerParams, ShiftLedger
from .stats import ExperimentConfig, load_instance, oracle_check, run_suite


def _read_instance(path: str, strict: bool = True):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read(), strict=strict)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _sampler_params(args) -> SamplerParams:
    return SamplerParams.from_float(args.sampler, args.mix_lambda)


def _add_common(p: argparse.ArgumentParser, trials_default: Optional[int] = 1,
                report: bool = False) -> None:
    """The sampler and output flags; seed and trials unless the command is
    exact (``trials_default=None``); a format where it prints a report."""
    if trials_default is not None:
        p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
        p.add_argument("--trials", type=int, default=trials_default)
    p.add_argument("--sampler", choices=("mi", "maxent", "mix"), default="mix")
    p.add_argument("--mix-lambda", type=float, default=float(DEFAULT_MIX_LAMBDA))
    p.add_argument("--out", default=None, help="output path (default stdout)")
    if report:
        p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_generator_flags(p: argparse.ArgumentParser) -> None:
    """A family's settings; unset ones take ``generators.generate``'s defaults."""
    p.add_argument("--k", type=int, default=None, help="host cycle positions")
    p.add_argument("--n", type=int, default=None, help="vertex count (random family)")
    p.add_argument("--depth", type=int, default=None, help="nesting depth")
    p.add_argument("--unit-costs", action="store_true")


def _compile(args, cls=CompiledInstance):
    return cls(_read_instance(args.instance), _sampler_params(args))


def cmd_generate(args) -> int:
    inst = load_instance(ExperimentConfig(family=args.family, k=args.k, n=args.n,
                                          depth=args.depth, unit_costs=args.unit_costs,
                                          gen_seed=args.seed))
    _write(serialize_instance(inst), args.out)
    return 0


def cmd_validate(args) -> int:
    inst = _read_instance(args.instance, strict=not args.lenient)
    g = inst.graph
    print(f"valid: {g.n} vertices, {g.m} edges, lp cost {inst.lp_cost()}")
    return 0


def cmd_normalize(args) -> int:
    inst = _read_instance(args.instance, strict=False)
    out = normalize_to_special_triple(inst)
    _write(serialize_instance(out), args.out)
    return 0


def _hierarchy_json(h) -> dict:
    nodes = []
    for nd in h.nodes:
        entry = {
            "id": nd.node_id,
            "kind": ("root-cycle" if nd.is_root else nd.kind),
            "label": sorted(nd.label),
            "children": list(nd.children),
        }
        if nd.piece is not None:
            g = nd.piece.graph
            entry["piece"] = {
                "external_vertex": nd.piece.external_vertex,
                "vertices": [sorted(s) for s in g.vertex_sets],
                "edges": [
                    [eid, u, v] for eid, (u, v) in zip(g.edge_ids, g.endpoints)
                ],
                "chain": list(nd.piece.chain) if nd.piece.chain else None,
            }
        nodes.append(entry)
    return {"root": h.root_id, "nodes": nodes}


def cmd_hierarchy(args) -> int:
    inst = _read_instance(args.instance)
    h = build_hierarchy(inst)
    payload = _hierarchy_json(h)
    payload["min_cuts"] = [sorted(c.shore) for c in min_cuts_via_hierarchy(h)]
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_cactus(args) -> int:
    inst = _read_instance(args.instance)
    h = build_hierarchy(inst)
    cac = build_cactus(h)
    payload = {
        "edges": [
            [eid, u, v]
            for eid, (u, v) in zip(cac.graph.edge_ids, cac.graph.endpoints)
        ],
        "phi": {str(v): cac.phi[v] for v in sorted(cac.phi)},
        "cycles": [list(c) for c in cac.cycles],
    }
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_sample(args) -> int:
    ci = _compile(args)
    ledger = ShiftLedger(ci.h, ci.sp, args.seed) if args.dump_shift else None
    lines = []
    for first, T, _ in ci.tree_chunks(args.trials, args.seed):
        for trial, edges in enumerate(ci.tree_edges(T, first), first):
            entry = {"trial": trial, "edges": edges}
            if ledger is not None:
                entry["provenance"] = {
                    str(nid): _json_safe(p)
                    for nid, p in ledger.draw(trial, frozenset(edges)).items()
                }
            lines.append(json.dumps(entry))
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(x) for x in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, frozenset):
        return sorted(obj)
    return obj


def cmd_join(args) -> int:
    engine = _compile(args, BatchEngine)
    denom = engine.cost_denom
    rows = ["trial,seed,tree_cost,fractional_join_cost,integral_join_cost,tour_cost,ratio_to_cx"]
    for first, T, rng in engine.tree_chunks(args.trials, args.seed):
        z = engine.checked_joins(T, rng, first)
        costs = (engine.cost_int @ z).tolist()
        tours = engine.tours(T, first, shortcut=not args.no_shortcut)
        for trial, (zc, (tree, join, _, tour)) in enumerate(zip(costs, tours), first):
            frac_cost = Fraction(zc, denom * engine.z_denom)
            ratio = float(Fraction(tree + join, denom) / engine.lp_cost)
            rows.append(
                f"{trial},{args.seed},{tree / denom:.10g},"
                f"{float(frac_cost):.10g},{join / denom:.10g},"
                f"{tour / denom:.10g},{ratio:.10g}"
            )
    _write("\n".join(rows) + "\n", args.out)
    return 0


def cmd_tour(args) -> int:
    ci = _compile(args)
    # the first of the cheapest tours, in trial order
    tree, join, tour, tour_cost = min(
        (res for first, T, _ in ci.tree_chunks(args.trials, args.seed)
         for res in ci.tours(T, first, shortcut=not args.no_shortcut)),
        key=lambda res: res[3],
    )
    denom = ci.cost_denom
    payload = {
        "tour": tour,
        "tour_cost": tour_cost / denom,
        "tree_cost": tree / denom,
        "join_cost": join / denom,
        "ratio_to_cx": float(Fraction(tree + join, denom) / ci.lp_cost),
        "trials": args.trials,
    }
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_stats(args) -> int:
    cfg = ExperimentConfig(
        instance=args.instance,
        family=args.family,
        k=args.k,
        n=args.n,
        depth=args.depth,
        unit_costs=args.unit_costs,
        gen_seed=args.gen_seed,
        piece=args.piece,
        sampler=args.sampler,
        mix_lambda=args.mix_lambda,
        trials=args.trials,
        seed=args.seed,
        suite=args.suite,
        delta_floor=args.delta_floor,
    )
    report = run_suite(cfg)
    text = report.to_json() if args.format == "json" else report.to_csv()
    _write(text, args.out)
    return 0 if report.all_passed() else 1


def cmd_optimize_params(args) -> int:
    from .params import optimize

    res = optimize()
    payload = dict(res.as_floats())
    payload["binding"] = list(res.binding)
    payload["exact"] = {name: str(getattr(res, name))
                        for name in ("tau", "gamma", "beta", "delta")}
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_oracle(args) -> int:
    inst = _read_instance(args.instance)
    report = oracle_check(inst, _sampler_params(args))
    text = report.to_json() if args.format == "json" else report.to_csv()
    _write(text, args.out)
    return 0 if report.all_passed() else 1


class _OneLineParser(argparse.ArgumentParser):
    """Reports a usage error as one line, ``htsp <cmd>: <message>``, with
    exit code 2, like every other bad input."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _OneLineParser(
        prog="htsp",
        description="Round half-integral subtour-elimination solutions to tours "
        "and verify the pipeline's probabilistic guarantees.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("generate", help="emit a generated instance")
    p.add_argument("--family", choices=generators.FAMILIES, required=True)
    _add_generator_flags(p)
    p.add_argument("--seed", type=int, default=None,
                   help="generator seed (default: the one stats --family uses)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", help="parse and validate an instance")
    p.add_argument("instance")
    p.add_argument("--lenient", action="store_true",
                   help="skip the root-triple requirement")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("normalize", help="relabel an instance into root-triple form")
    p.add_argument("instance")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("hierarchy", help="emit the cut hierarchy as JSON")
    p.add_argument("instance")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_hierarchy)

    p = sub.add_parser("cactus", help="emit the min-cut cactus as JSON")
    p.add_argument("instance")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_cactus)

    p = sub.add_parser("sample", help="sample rooted trees")
    p.add_argument("instance")
    _add_common(p)
    p.add_argument("--dump-shift", action="store_true",
                   help="add each piece's ledger: a degree piece's walk drawn "
                   "from its posterior given the tree")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("join", help="per-trial join and tour costs as CSV")
    p.add_argument("instance")
    _add_common(p)
    p.add_argument("--no-shortcut", action="store_true")
    p.set_defaults(func=cmd_join)

    p = sub.add_parser("tour", help="best tour over the sampled trials")
    p.add_argument("instance")
    _add_common(p, trials_default=10)
    p.add_argument("--no-shortcut", action="store_true")
    p.set_defaults(func=cmd_tour)

    p = sub.add_parser("stats", help="run a statistic suite")
    p.add_argument("--instance", default=None)
    p.add_argument("--family", choices=generators.FAMILIES, default=None)
    _add_generator_flags(p)
    p.add_argument("--gen-seed", type=int, default=None)
    p.add_argument("--piece", choices=sorted(generators.PIECE_CATALOG), default=None)
    p.add_argument(
        "--suite",
        choices=("marginals", "correlations", "eal", "reduction", "cost",
                 "symmetry", "all"),
        default="all",
    )
    p.add_argument("--delta-floor", type=float, default=None)
    _add_common(p, trials_default=100_000, report=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("optimize-params", help="reproduce the parameter optimization")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_optimize_params)

    p = sub.add_parser("oracle", help="exact no-sampling verification report")
    p.add_argument("instance")
    _add_common(p, trials_default=None, report=True)
    p.set_defaults(func=cmd_oracle)

    return ap


def main(argv=None) -> int:
    """Run one subcommand.  Exit code 0 is success, 1 a failed bound in
    ``stats`` or ``oracle``, and 2 bad input, reported on one line."""
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        print(f"htsp {args.cmd}: unrecognized arguments: {' '.join(extra)}",
              file=sys.stderr)
        return 2
    try:
        if hasattr(args, "trials"):
            check_positive(trials=args.trials)
        check_seed(**{f"--{name.replace('_', '-')}": getattr(args, name, None)
                      for name in ("seed", "gen_seed")})
        return args.func(args)
    except (HtspError, OSError) as exc:
        msg = " ".join(str(exc).split())
        print(f"htsp {args.cmd}: {type(exc).__name__}: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
