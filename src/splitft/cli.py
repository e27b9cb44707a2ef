"""Command-line entry point.

Subcommands:
  run        full experiment emitting a metrics CSV: in process, or over TCP,
             where ``--listen`` serves the session and ``--connect`` joins it
  plan       one-shot budget/importance -> split + rank assignment inspection
  agg-check  aggregation property suites (exact concat vs. noisy averaging)
  grad-check finite-difference validation of all hand-derived gradients

Every subcommand is non-interactive and returns a nonzero exit status when
any check fails. Bad input (an unreadable or invalid config file, a bad flag
value, ``--listen`` with ``--connect``, ``--connect`` without ``--client-id``
or ``--client-id`` without ``--connect``, a client id outside the config, an
``--out`` path that cannot be written) ends the command with one
``<command>: <message>`` on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import aggregation, lora, model, net, orchestrator
from .aggregation import AdapterUpload, RankMismatchError
from .config import BudgetSpec, ConfigError, ExperimentConfig, parse_config
from .importance import ImportanceTable
from .linalg import derive_seed
from .metrics import emit_csv, ranks_string
from .weights import SplitPoint, WeightId, all_weight_ids


class UsageError(ValueError):
    """Bad command-line input; ``main`` prints it and exits 2."""


def _parse_address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected host:port, got {text!r}")
    return host, int(port)


def _load_config(args) -> ExperimentConfig:
    try:
        config = parse_config(args.config) if args.config else ExperimentConfig().validate()
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"--config: {e}") from None
    return config if args.seed is None else replace(config, seed=args.seed)


def cmd_run(args) -> int:
    config = _load_config(args)
    if (args.connect is None) != (args.client_id is None):
        raise UsageError("--connect host:port and --client-id are given together or not at all")
    if args.connect is not None:
        if not 0 <= args.client_id < config.n_clients:
            raise UsageError(f"--client-id must be in [0, {config.n_clients - 1}] for n_clients = "
                             f"{config.n_clients}, got {args.client_id}")
        rounds = net.run_client(config, args.client_id, *args.connect)
        print(f"client {args.client_id} finished after {rounds} rounds")
        return 0
    try:
        open(args.out, "a").close()  # a path that cannot be written fails now, not after the last round
    except OSError as e:
        raise UsageError(f"--out: {e}") from None
    reports, summary = (orchestrator.run_experiment(config) if args.listen is None
                        else net.serve(config, *args.listen))
    emit_csv(reports, args.out)
    print(json.dumps(summary, indent=2, sort_keys=True))
    print(f"wrote {args.out}")
    return 0


def _parse_budget(flag: str, text: str) -> float:
    try:
        return BudgetSpec("fixed", value=float(text)).validate().value
    except ValueError:
        raise UsageError(f"{flag}: expected a finite budget above 0, got {text!r}") from None


def _parse_importance(text: str, n_blocks: int) -> dict[WeightId, float]:
    """``b<block>.<kind>=<value>`` entries separated by ";", each naming a
    weight of an ``n_blocks``-block model and a finite value >= 0."""
    weights = {str(wid): wid for wid in all_weight_ids(n_blocks)}
    out: dict[WeightId, float] = {}
    for entry in filter(None, (e.strip() for e in text.split(";"))):
        name, _, val = entry.partition("=")
        try:
            out[weights[name.strip()]] = value = float(val)
        except (KeyError, ValueError):
            value = math.nan
        if not 0 <= value < math.inf:
            raise UsageError(f"--importance: expected b<block>.<kind>=<value >= 0> for a weight of the "
                             f"{n_blocks}-block model, got {entry!r}")
    return out


def cmd_plan(args) -> int:
    config = _load_config(args)
    budgets, server_budget = orchestrator.round_budgets(config, 1)
    if args.client_budgets:
        budgets = {i: _parse_budget("--client-budgets", b) for i, b in enumerate(args.client_budgets.split(","))}
    if args.server_budget is not None:
        server_budget = _parse_budget("--server-budget", args.server_budget)
    table = ImportanceTable.for_model(config.model.n_blocks, config.total_rounds)
    if args.importance:
        table.update_round(_parse_importance(args.importance, config.model.n_blocks), 1)

    plan = orchestrator.plan_round(config, table, None, (budgets, server_budget))[0]
    print(f"split_j = {plan.split.j}")
    print(f"I_g = {plan.global_importance:.17g}")
    for cid in sorted(plan.client_assignments):
        feas = "" if plan.client_feasible[cid] else "  (base blocks exceed budget)"
        print(f"client {cid} (budget {budgets[cid]:g}): {ranks_string(plan.client_assignments[cid])}{feas}")
    feas = "" if plan.server_feasible else "  (base blocks exceed budget)"
    print(f"server (budget {server_budget:g}): {ranks_string(plan.server_assignment)}{feas}")
    return 0


def cmd_agg_check(args) -> int:
    rng = np.random.Generator(np.random.PCG64(args.seed))
    ranks_pool = (1, 2, 4, 8, 16, 32)

    max_err = 0.0
    for _ in range(args.trials):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(8, 65))
        wid = WeightId(0, "Q")
        uploads = []
        for cid in range(n):
            r = int(ranks_pool[rng.integers(0, len(ranks_pool))])
            r = min(r, d)
            B = rng.standard_normal((d, r))
            A = rng.standard_normal((r, d))
            uploads.append(AdapterUpload(cid, wid, B, A, int(rng.integers(1, 100))))
        got = aggregation.naa_delta(uploads, "sum")
        want = sum(u.B @ u.A for u in uploads)
        max_err = max(max_err, float(np.abs(got - want).max()))
    naa_ok = max_err <= 1e-9
    print(f"concat aggregation: max abs error {max_err:.3e} over {args.trials} trials "
          f"-> {'PASS' if naa_ok else 'FAIL'} (<= 1e-9)")

    noisy = 0
    haa_trials = 100
    for _ in range(haa_trials):
        n, d, r = int(rng.integers(2, 6)), 16, 4
        uploads = [
            AdapterUpload(cid, WeightId(0, "Q"), rng.standard_normal((d, r)),
                          rng.standard_normal((r, d)), 1)
            for cid in range(n)
        ]
        got = aggregation.haa_delta(uploads)
        true_mean = sum(u.B @ u.A for u in uploads) / n
        rel = float(np.linalg.norm(got - true_mean) / np.linalg.norm(true_mean))
        noisy += rel > 0.01
    haa_ok = noisy >= 99
    print(f"factor averaging: deviated >1% from the true mean update in {noisy}/{haa_trials} trials "
          f"-> {'PASS' if haa_ok else 'FAIL'} (>= 99)")

    try:
        aggregation.haa_delta([
            AdapterUpload(0, WeightId(0, "Q"), np.zeros((8, 2)), np.zeros((2, 8)), 1),
            AdapterUpload(1, WeightId(0, "Q"), np.zeros((8, 4)), np.zeros((4, 8)), 1),
        ])
        het_ok = False
    except RankMismatchError:
        het_ok = True
    print(f"factor averaging rejects mixed ranks -> {'PASS' if het_ok else 'FAIL'}")

    return 0 if naa_ok and haa_ok and het_ok else 1


def _gradcheck_setup(seed: int):
    """Small 2-block model with inflated scales so every gradient is well
    above finite-difference roundoff noise."""
    cfg = model.ModelConfig(n_blocks=2, d_model=8, n_heads=2, vocab_size=11, seq_len=4)
    params = model.build_model(cfg, seed)
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "gradcheck")))
    for wid in list(params.attn):
        params.attn[wid] = 0.5 * rng.standard_normal((8, 8))
    params.tok_emb = 0.5 * rng.standard_normal(params.tok_emb.shape)
    params.pos_emb = 0.5 * rng.standard_normal(params.pos_emb.shape)
    params.out_proj = 0.5 * rng.standard_normal(params.out_proj.shape)

    split = SplitPoint(1)
    adapters = {}
    for i, wid in enumerate(sorted(params.attn, key=WeightId.position)):
        r = (1, 2, 4, 2)[i % 4]
        ad = lora.new_adapter(wid, r, 8, 8, derive_seed(seed, "ad", i))
        ad.B = 0.3 * rng.standard_normal(ad.B.shape)
        ad.A = 0.3 * rng.standard_normal(ad.A.shape)
        adapters[wid] = ad
    c_ads = {w: a for w, a in adapters.items() if split.client_side(w)}
    s_ads = {w: a for w, a in adapters.items() if not split.client_side(w)}
    tokens = rng.integers(0, cfg.vocab_size, size=(2, 4))
    return params, split, c_ads, s_ads, tokens


def _central_difference(mat: np.ndarray, i: int, j: int, h: float, loss) -> float:
    """d loss / d mat[i, j] by central difference; ``loss()`` reads ``mat``,
    which is left as it was."""
    orig = mat[i, j]
    mat[i, j] = orig + h
    up = loss()
    mat[i, j] = orig - h
    down = loss()
    mat[i, j] = orig
    return (up - down) / (2 * h)


def grad_check_seed(seed: int, h: float, tol: float) -> float:
    """Max relative error between analytic and central-difference gradients
    for one seeded instance."""
    params, split, c_ads, s_ads, tokens = _gradcheck_setup(seed)

    acts, ccache = model.forward_client(params, c_ads, tokens, split)
    logits, scache = model.forward_server(params, s_ads, acts, split)
    _, s_ad_grads, s_base_grads, cut_grad = model.loss_and_grad_server(logits, tokens, scache, s_ads)
    c_ad_grads, c_base_grads = model.backward_client(cut_grad, ccache, c_ads)

    def rel(analytic: float, fd: float) -> float:
        return abs(analytic - fd) / max(abs(fd), abs(analytic), 1e-8)

    def server_loss(a: np.ndarray) -> float:
        lg, sc = model.forward_server(params, s_ads, a, split)
        return model.loss_and_grad_server(lg, tokens, sc, s_ads)[0]

    def pipeline_loss() -> float:
        return server_loss(model.forward_client(params, c_ads, tokens, split)[0])

    worst = 0.0
    for ads, grads in ((c_ads, c_ad_grads), (s_ads, s_ad_grads)):
        for wid, (dB, dA) in grads.items():
            for mat, g in ((ads[wid].B, dB), (ads[wid].A, dA)):
                for i in range(mat.shape[0]):
                    for j in range(mat.shape[1]):
                        worst = max(worst, rel(g[i, j], _central_difference(mat, i, j, h, pipeline_loss)))

    for grads in (c_base_grads, s_base_grads):
        for wid, g in grads.items():
            mat = params.attn[wid]
            for i, j in ((0, 0), (3, 5), (7, 7), (2, 6)):
                worst = max(worst, rel(g[i, j], _central_difference(mat, i, j, h, pipeline_loss)))

    # Cut activations: loss as a function of the values crossing the split.
    rows = acts.reshape(-1, acts.shape[-1])  # a view: writing it perturbs acts
    for i in range(rows.shape[0]):
        for j in range(rows.shape[1]):
            worst = max(worst, rel(cut_grad[i, j], _central_difference(rows, i, j, h, lambda: server_loss(acts))))
    return worst


def cmd_grad_check(args) -> int:
    worst = 0.0
    for seed in range(args.seeds):
        worst = max(worst, grad_check_seed(seed, h=1e-5, tol=args.tol))
    ok = worst <= args.tol
    print(f"gradient check: max relative error {worst:.3e} over {args.seeds} seeds "
          f"-> {'PASS' if ok else 'FAIL'} (<= {args.tol:g})")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="splitft", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--config", help="path to a key = value config file")
    inputs.add_argument("--seed", type=int, help="override the config seed")

    run = sub.add_parser("run", parents=[inputs], help="run a full experiment and emit the metrics CSV")
    run.add_argument("--out", default="metrics.csv", help="metrics CSV path")
    address = run.add_mutually_exclusive_group()
    address.add_argument("--listen", type=_parse_address, metavar="HOST:PORT", help="serve the session on host:port")
    address.add_argument("--connect", type=_parse_address, metavar="HOST:PORT",
                         help="join the session at host:port as --client-id")
    run.add_argument("--client-id", type=int, help="this client's id (with --connect)")
    run.set_defaults(func=cmd_run)

    plan = sub.add_parser("plan", parents=[inputs], help="print the split/rank plan for given budgets")
    plan.add_argument("--client-budgets", help="comma-separated per-client budgets")
    plan.add_argument("--server-budget")
    plan.add_argument("--importance", help='importance numerators, e.g. "b0.Q=2.5;b1.V=1.0"')
    plan.set_defaults(func=cmd_plan)

    agg = sub.add_parser("agg-check", help="aggregation property suites")
    agg.add_argument("--trials", type=int, default=1000)
    agg.add_argument("--seed", type=int, default=0)
    agg.set_defaults(func=cmd_agg_check)

    grad = sub.add_parser("grad-check", help="finite-difference gradient validation")
    grad.add_argument("--seeds", type=int, default=20)
    grad.add_argument("--tol", type=float, default=1e-4)
    grad.set_defaults(func=cmd_grad_check)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ConfigError) as e:
        print(f"{args.command}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
