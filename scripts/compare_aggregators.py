#!/usr/bin/env python3
"""Paired comparison of exact concat aggregation vs. factor averaging.

Runs the same desk-scale task twice per seed — once with the lossless
concatenation aggregator ("naa") and once with the biased factor-averaging
baseline ("haa", ranks forced homogeneous so it applies) — and reports the
final mean perplexity of each arm.

Usage:
    python scripts/compare_aggregators.py --seeds 10 --rounds 100
"""

import argparse
from dataclasses import replace

from splitft.config import ExperimentConfig
from splitft.orchestrator import run_experiment

from run_desk_experiment import desk_config


def make_config(seed: int, rounds: int, rank: int, lr: float, aggregator: str) -> ExperimentConfig:
    """``run_desk_experiment``'s config with ``aggregator``, each client's
    budget fixed at the server's."""
    cfg = desk_config(seed, rounds, rank, lr)
    return replace(cfg, aggregator=aggregator, client_budget=cfg.server_budget).validate()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--rounds", type=int, default=100)
    ap.add_argument("--rank", type=int, default=8)
    ap.add_argument("--lr", type=float, default=1.5)
    args = ap.parse_args()

    print(f"{'seed':>4}  {'concat (naa)':>14}  {'average (haa)':>14}  winner")
    wins = 0
    for seed in range(args.seeds):
        finals = {}
        for agg in ("naa", "haa"):
            cfg = make_config(seed, args.rounds, args.rank, args.lr, agg)
            _, summary = run_experiment(cfg)
            finals[agg] = summary["final_mean_ppl"]
        winner = "naa" if finals["naa"] <= finals["haa"] else "haa"
        wins += winner == "naa"
        print(f"{seed:>4}  {finals['naa']:>14.6f}  {finals['haa']:>14.6f}  {winner}")
    print(f"\nexact aggregation won {wins}/{args.seeds} paired seeds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
