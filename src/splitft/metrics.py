"""Deterministic CSV output of per-round, per-client metrics."""

from __future__ import annotations

from typing import Iterable, TextIO

from .orchestrator import RoundReport
from .weights import WeightId

COLUMNS = (
    "round", "client_id", "loss", "ppl", "split_j",
    "assigned_ranks", "I_g", "delta_I", "tau", "aggregated",
)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def ranks_string(ranks: dict[WeightId, int]) -> str:
    parts = [f"{wid}={ranks[wid]}" for wid in sorted(ranks, key=WeightId.position)]
    return ";".join(parts) if parts else "-"


def write_csv(reports: Iterable[RoundReport], out: TextIO) -> None:
    out.write(",".join(COLUMNS) + "\n")
    for rep in reports:
        ppls = rep.ppls
        for cid in sorted(rep.losses):
            row = (
                str(rep.t),
                str(cid),
                _fmt(rep.losses[cid]),
                _fmt(ppls[cid]),
                str(rep.split_j),
                ranks_string(rep.client_ranks.get(cid, {})),
                _fmt(rep.global_importance),
                _fmt(rep.delta_I),
                _fmt(rep.tau),
                "1" if rep.aggregated else "0",
            )
            out.write(",".join(row) + "\n")


def emit_csv(reports: list[RoundReport], path: str) -> None:
    if not reports:
        raise ValueError("no reports to emit")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        write_csv(reports, f)

