"""Experiment configuration: dataclasses plus a flat key = value file format.

The keys are the fields of ``ModelConfig`` and ``ExperimentConfig``, each
parsed by its declared type. Every key has a default, so an empty file is a
valid minimal config.
Unknown keys and invalid values are all collected and reported together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import get_type_hints

from .aggregation import AGG_MODES
from .model import ModelConfig
from .planner import DEFAULT_EPSILON, DEFAULT_RANK_SET, DEFAULT_TAU0, CostModel, RankSet


class ConfigError(ValueError):
    def __init__(self, errors: list[str]):
        super().__init__("invalid config:\n  " + "\n  ".join(errors))
        self.errors = errors


@dataclass(frozen=True)
class BudgetSpec:
    kind: str  # fixed | uniform | scripted
    value: float = 0.0  # fixed
    lo: float = 0.0  # uniform
    hi: float = 0.0
    table: dict[int, float] = field(default_factory=dict)  # scripted, round -> budget, for every round

    def validate(self) -> "BudgetSpec":
        if self.kind == "fixed":
            if self.value <= 0:
                raise ValueError(f"fixed budget must be positive, got {self.value}")
        elif self.kind == "uniform":
            if not 0 < self.lo <= self.hi:
                raise ValueError(f"uniform budget needs 0 < lo <= hi, got [{self.lo}, {self.hi}]")
        elif self.kind == "scripted":
            if not self.table or any(v <= 0 for v in self.table.values()):
                raise ValueError("scripted budget table must be nonempty with positive values")
        else:
            raise ValueError(f"unknown budget kind {self.kind!r}")
        if not all(map(math.isfinite, (self.value, self.lo, self.hi, *self.table.values()))):
            raise ValueError(f"{self.kind} budget values must be finite")
        return self


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig = ModelConfig(n_blocks=2, d_model=32, n_heads=4, vocab_size=16, seq_len=16)
    n_clients: int = 3
    total_rounds: int = 50
    agg_period: int = 10
    batch: int = 2
    shard_size: int = 8
    rank_set: tuple[int, ...] = DEFAULT_RANK_SET
    kappa_opt: float = 3.0
    beta_act: float = 1.0
    learning_rate: float = 1.0
    seed: int = 0
    agg_mode: str = "weighted"  # naa flavor: sum | weighted
    aggregator: str = "naa"  # naa | haa
    client_budget: BudgetSpec = BudgetSpec("uniform", lo=1200.0, hi=6000.0)
    server_budget: BudgetSpec = BudgetSpec("fixed", value=8000.0)
    tau0: float = DEFAULT_TAU0
    epsilon: float = DEFAULT_EPSILON

    def validate(self) -> "ExperimentConfig":
        errs = []
        try:
            self.model.validate()
        except ValueError as e:
            errs.append(str(e))
        for name, val in (("n_clients", self.n_clients), ("total_rounds", self.total_rounds),
                          ("agg_period", self.agg_period), ("batch", self.batch),
                          ("shard_size", self.shard_size)):
            if val < 1:
                errs.append(f"{name} must be >= 1, got {val}")
        for name, val in (("learning_rate", self.learning_rate), ("kappa_opt", self.kappa_opt),
                          ("beta_act", self.beta_act), ("tau0", self.tau0), ("epsilon", self.epsilon)):
            if not math.isfinite(val):
                errs.append(f"{name} must be finite, got {val}")
            elif val <= 0:
                errs.append(f"{name} must be positive, got {val}")
        if self.agg_mode not in AGG_MODES:
            errs.append(f"agg_mode must be sum|weighted, got {self.agg_mode!r}")
        if self.aggregator not in ("naa", "haa"):
            errs.append(f"aggregator must be naa|haa, got {self.aggregator!r}")
        budget = self.client_budget
        if (self.aggregator == "haa" and len(self.rank_set) > 1 and self.n_clients > 1
                and budget.kind == "uniform" and budget.lo < budget.hi):
            # Clients of unequal budgets get unequal ranks, which haa cannot average at the first merge.
            errs.append(f"aggregator: haa averages one rank per weight, but rank_set {self.rank_set} with "
                        f"client_budget uniform:{budget.lo:g},{budget.hi:g} can give clients different "
                        "ranks; use one rank or equal client budgets")
        try:
            if RankSet(self.rank_set).ranks[-1] > self.model.d_model:
                raise ValueError(f"ranks must not exceed d_model={self.model.d_model}, got {self.rank_set}")
        except ValueError as e:
            errs.append(f"rank_set: {e}")
        for name, spec in (("client_budget", self.client_budget), ("server_budget", self.server_budget)):
            try:
                spec.validate()
            except ValueError as e:
                errs.append(f"{name}: {e}")
            if spec.kind == "scripted":
                missing = [t for t in range(1, self.total_rounds + 1) if t not in spec.table]
                if missing:
                    errs.append(f"{name}: scripted budget table has no entry for rounds {missing}")
        if errs:
            raise ConfigError(errs)
        return self

    def aggregates(self, t: int) -> bool:
        """Whether round t ends with the fed server's merge: every
        ``agg_period``-th round. Every copy of the base merges on exactly
        these rounds, so every side asks this."""
        return t % self.agg_period == 0

    def cost_model(self) -> CostModel:
        return CostModel(
            d_model=self.model.d_model,
            n_blocks=self.model.n_blocks,
            batch=self.batch,
            seq_len=self.model.seq_len,
            kappa_opt=self.kappa_opt,
            beta_act=self.beta_act,
        )


_BUDGET_FORMS = {"fixed": "fixed:<value>", "uniform": "uniform:<lo>,<hi>", "scripted": "scripted:<round>=<budget>,..."}


def _parse_budget(text: str) -> BudgetSpec:
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind not in _BUDGET_FORMS:
        raise ValueError(f"unknown budget kind {kind!r} (expected {'|'.join(_BUDGET_FORMS)})")
    try:
        if kind == "fixed":
            return BudgetSpec("fixed", value=float(rest))
        if kind == "uniform":
            lo, hi = map(float, rest.split(","))
            return BudgetSpec("uniform", lo=lo, hi=hi)
        entries = [(int(rnd), float(val)) for rnd, val in (entry.split("=") for entry in rest.split(","))]
    except ValueError:
        raise ValueError(f"expected {_BUDGET_FORMS[kind]}, got {text.strip()!r}") from None
    table = {}
    for rnd, val in entries:
        if rnd in table:
            raise ValueError(f"scripted budget names round {rnd} twice")
        table[rnd] = val
    return BudgetSpec("scripted", table=table)


def _parse_ranks(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(r) for r in text.split(","))
    except ValueError:
        raise ValueError(f"expected <rank>,<rank>,..., got {text!r}") from None


# One parser per type a ModelConfig or ExperimentConfig field declares.
_PARSERS = {int: int, float: float, str: str, tuple[int, ...]: _parse_ranks, BudgetSpec: _parse_budget}


def parse_config_text(text: str) -> ExperimentConfig:
    """Every ``key = value`` line sets the ModelConfig or ExperimentConfig
    field of that name, parsed by the type the field declares."""
    errors: list[str] = []
    model_types = get_type_hints(ModelConfig)
    key_types = {**model_types, **get_type_hints(ExperimentConfig)}
    del key_types["model"]
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not eq:
            errors.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        if key not in key_types:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in values:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        try:
            values[key] = _PARSERS[key_types[key]](val)
        except ValueError as e:
            errors.append(f"{key}: {e}")
    cfg = ExperimentConfig()
    model_kw = {key: values.pop(key) for key in model_types if key in values}
    cfg = replace(cfg, model=replace(cfg.model, **model_kw), **values)  # type: ignore[arg-type]
    try:
        cfg.validate()
    except ConfigError as e:
        errors.extend(e.errors)
    if errors:
        raise ConfigError(errors)
    return cfg


def parse_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config_text(f.read())
