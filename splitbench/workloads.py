"""Workload definitions: each builds an ExperimentConfig from the workload seed.

The program receives only the generated config; nothing here depends on
anything but the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from splitft.config import BudgetSpec, ExperimentConfig
from splitft.model import ModelConfig


@dataclass(frozen=True)
class Workload:
    name: str
    transport: str  # "inproc" | "tcp"
    loss_rounds: tuple[int, ...]  # rounds whose loss is checked against the oracle
    config: ExperimentConfig


def _mid(seed: int) -> Workload:
    mc = ModelConfig(n_blocks=8, d_model=128, n_heads=8, vocab_size=64, seq_len=64)
    batch = 4
    base = batch * mc.seq_len * mc.d_model  # activation cost of one block
    unit = 3 * 2 * mc.d_model  # cost of one rank unit of a d x d adapter
    cfg = replace(
        ExperimentConfig(),
        model=mc, n_clients=16, total_rounds=4, agg_period=3, batch=batch, shard_size=8,
        seed=seed,
        client_budget=BudgetSpec("uniform", lo=base + 40 * unit, hi=base + 128 * unit),
        server_budget=BudgetSpec("fixed", value=7 * base + 28 * 32 * unit),
    )
    return Workload("mid", "inproc", (1, 4), cfg.validate())


def _deep_hetero(seed: int) -> Workload:
    mc = ModelConfig(n_blocks=16, d_model=16, n_heads=2, vocab_size=16, seq_len=8)
    batch = 1
    base = batch * mc.seq_len * mc.d_model
    unit = 3 * 2 * mc.d_model
    rounds = 20
    dip = range(12, 16)
    high = 15 * base + 60 * 8 * unit
    low = 14 * base + 1 * unit + 12  # below the base cost of split j=1
    server = {t: (low if t in dip else high) for t in range(1, rounds + 1)}
    cfg = replace(
        ExperimentConfig(),
        model=mc, n_clients=32, total_rounds=rounds, agg_period=10, batch=batch, shard_size=8,
        rank_set=(1, 2, 4, 8, 16), seed=seed,
        client_budget=BudgetSpec("uniform", lo=8 * base + 16 * unit, hi=8 * base + 64 * unit),
        server_budget=BudgetSpec("scripted", table=server),
    )
    return Workload("deep-hetero", "inproc", (1, 11, 12, 16, rounds), cfg.validate())


def _net_desk(seed: int) -> Workload:
    mc = ModelConfig(n_blocks=2, d_model=32, n_heads=4, vocab_size=16, seq_len=16)
    batch, rank = 2, 32
    base = batch * mc.seq_len * mc.d_model
    ac = 3 * rank * 2 * mc.d_model
    rounds = 150
    cfg = replace(
        ExperimentConfig(),
        model=mc, n_clients=2, total_rounds=rounds, agg_period=10, batch=batch, shard_size=8,
        rank_set=(rank,), learning_rate=1.0, seed=seed,
        client_budget=BudgetSpec("uniform", lo=base + 4 * ac + 1, hi=base + 5 * ac),
        server_budget=BudgetSpec("fixed", value=base + 4 * ac + 1),
    )
    return Workload("net-desk", "tcp", (), cfg.validate())


BUILDERS = {"mid": _mid, "deep-hetero": _deep_hetero, "net-desk": _net_desk}


def make(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
