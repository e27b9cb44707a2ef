#!/usr/bin/env python3
"""splitbench: the benchmark of splitft.

    python3 splitbench/run.py --workload mid --seed 1 --seconds 45 --trace 0

Runs one workload (see README.md), checks its outputs against computations
made apart from the program, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` wraps the program's public functions from
here and prints the per-layer metrics, including the tracing overhead.

A run is a sequence of whole episodes. An episode is one fresh experiment
of the workload's config (``init_state`` + every round, or one ``net.serve``
session with its clients), so every run repeats the same work whatever the
machine's speed. The first episode is untimed: it warms caches and records
what the output checks need. Timed episodes follow for ``--seconds`` (at
least two; one more starts only if it should end less than half an episode
late).
"""

from __future__ import annotations

import argparse
import gzip
import io
import json
import os
import resource
import socket
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field, replace

if __name__ == "__main__":
    # One BLAS thread, as splitft is meant to run on one core: a BLAS call
    # split over both vCPUs of a shared host runs at the pace of the busier
    # one, which made mid's round times swing with other tenants' load.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from splitft import metrics, net, orchestrator  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, patched  # noqa: E402

HOST = "127.0.0.1"
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 20  # set-ups measured on each side of the timed episodes
JOIN_TIMEOUT_S = 60.0  # one TCP session, all threads together


@dataclass
class Episode:
    setup_s: float
    reports: list = field(default_factory=list)
    round_s: list = field(default_factory=list)
    failed: int = 0
    errors: list = field(default_factory=list)

    def csv(self) -> str:
        buf = io.StringIO()
        metrics.write_csv(self.reports, buf)
        return buf.getvalue()


# ----------------------------------------------------------------- in-process

def inproc_episode(cfg, capture=None) -> Episode:
    clock = time.perf_counter
    t0 = clock()
    state = orchestrator.init_state(cfg)
    ep = Episode(clock() - t0)
    for t in range(1, cfg.total_rounds + 1):
        if capture:
            capture.before_round(state, t)
        try:
            t0 = clock()
            rep = orchestrator.run_round(state, t)
            ep.round_s.append(clock() - t0)
        except Exception:
            ep.errors.append(f"round {t}: {traceback.format_exc()}")
            ep.failed = cfg.total_rounds - t + 1
            break
        ep.reports.append(rep)
        if capture:
            capture.after_round(state, t, rep)
    return ep


# ----------------------------------------------------------------------- TCP

def _free_port() -> int:
    with socket.socket() as s:
        s.bind((HOST, 0))
        return s.getsockname()[1]


def tcp_episode(cfg) -> Episode:
    """One net.serve session with every client as a thread of this process.
    Round times are the server's RoundReport.duration_s; set-up is the rest
    of the session's wall time, from the server thread's start until the
    first round (listening, every client connected with its model built)."""
    port = _free_port()
    res: dict = {}
    errors: list = []

    def server():
        try:
            res["server"] = net.serve(cfg, HOST, port)
        except Exception:
            errors.append("server: " + traceback.format_exc())
        res["end"] = time.perf_counter()

    def client(cid):
        deadline = time.perf_counter() + 30.0
        while True:
            try:
                res[cid] = net.run_client(cfg, cid, HOST, port)
                return
            except ConnectionRefusedError:  # server not listening yet
                if time.perf_counter() > deadline:
                    errors.append(f"client {cid}: server never listened")
                    return
                time.sleep(0.0002)
            except Exception:
                errors.append(f"client {cid}: " + traceback.format_exc())
                return

    threads = [threading.Thread(target=server, name="server", daemon=True)]
    threads += [threading.Thread(target=client, args=(cid,), name=f"client-{cid}", daemon=True)
                for cid in range(cfg.n_clients)]
    start = time.perf_counter()
    for th in threads:
        th.start()
    deadline = start + JOIN_TIMEOUT_S
    for th in threads:
        th.join(max(0.0, deadline - time.perf_counter()))
        if th.is_alive():
            errors.append(f"{th.name}: still running after {JOIN_TIMEOUT_S:.0f} s")
    reports = res.get("server", ([], {}))[0]
    round_s = [r.duration_s for r in reports]
    setup = res["end"] - start - sum(round_s) if "end" in res else 0.0
    for cid in range(cfg.n_clients):
        if res.get(cid) != cfg.total_rounds:
            errors.append(f"client {cid} completed {res.get(cid, 0)} of {cfg.total_rounds} rounds")
    return Episode(setup, reports, round_s, cfg.total_rounds - len(reports), errors)


# ---------------------------------------------------------------------- runs

def timed_episodes(run_episode, seconds: float, minimum: int) -> list[Episode]:
    """Whole episodes until ``seconds`` are used up: another one starts only
    if it is expected to end less than half an episode past the deadline.
    A failed episode ends the series."""
    out: list[Episode] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if out and (out[-1].errors or len(out) >= minimum and elapsed + 0.5 * elapsed / len(out) >= seconds):
            return out
        out.append(run_episode())


def fastest_rounds(episodes: list[Episode]) -> list[float]:
    """Round t's time as the fastest of its repeats: every episode does the
    same work in round t, and other tenants of the machine only add time."""
    return [min(times) for times in zip(*(ep.round_s for ep in episodes))]


def run(w: workloads.Workload, seconds: float, trace: bool) -> dict:
    cfg = w.config
    errors: list[str] = []
    setup_eps: list[Episode] = []  # TCP set-up sessions, one round each
    if w.transport == "inproc":
        capture = checks.InprocCapture(cfg, w.loss_rounds, client=cfg.seed % cfg.n_clients)
        with patched(capture.targets()):
            check_ep = inproc_episode(cfg, capture)

        def episode():
            return inproc_episode(cfg)

        def setup_sample():
            t0 = time.perf_counter()
            orchestrator.init_state(cfg)
            return time.perf_counter() - t0
    else:
        # Short traced session: the wire check needs frame counts per tag.
        short = replace(cfg, total_rounds=cfg.agg_period + 1)
        check_rec = Recorder()
        with patched(layers.targets(check_rec)):
            check_ep = tcp_episode(short)
        errors += checks.check_traffic(short, check_ep.reports, check_rec.logs)

        def episode():
            return tcp_episode(cfg)

        def setup_sample():
            setup_eps.append(tcp_episode(replace(cfg, total_rounds=1)))
            return setup_eps[-1].setup_s

    # Set-up samples before and after the timed episodes, so that a slow
    # spell of the machine does not decide them all.
    setups = [setup_sample() for _ in range(SETUP_REPEATS)]
    if trace:
        rec = Recorder()
        untraced = timed_episodes(episode, seconds / 2, 1)
        with patched(layers.targets(rec)):
            traced = timed_episodes(episode, seconds / 2, 1)
        timed = untraced + traced
    else:
        untraced = traced = timed = timed_episodes(episode, seconds, 2)
    setups += [setup_sample() for _ in range(SETUP_REPEATS)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # ---- output checks, after all timing
    everything = [check_ep] + setup_eps + timed
    for ep in everything:
        errors += ep.errors
    if w.transport == "inproc":
        errors += capture.errors
        if capture.agg_rounds_checked == 0:
            errors.append("the check episode ran no aggregation round")
        errors += checks.check_losses(capture, check_ep.reports)
        errors += checks.check_plans(cfg, check_ep.reports, capture.numerators)
        reference_csv = check_ep.csv()
    else:
        upto = cfg.agg_period + 1
        sim = orchestrator.init_state(cfg)
        sim_reports = [orchestrator.run_round(sim, t) for t in range(1, upto + 1)]
        for ep in timed:
            errors += checks.check_net_losses(ep.reports, sim_reports, upto)
            errors += checks.check_converges(ep.reports)
        reference_csv = timed[0].csv()
    for ep in timed:
        if ep.csv() != reference_csv:
            errors.append("two episodes of the same seed wrote different CSV bytes")
            break

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{w.name}.csv"), "w", encoding="utf-8", newline="\n") as f:
        f.write(reference_csv)

    attempted = sum(len(ep.reports) + ep.failed for ep in everything)
    failed = sum(ep.failed for ep in everything)
    best = fastest_rounds(untraced)
    if trace:
        values = layers.per_layer(rec, [r for ep in traced for r in ep.reports], len(traced),
                                  fastest_rounds(traced), best)
        units = layers.UNITS
        write_spans(rec, os.path.join(OUT_DIR, f"{w.name}-spans.tsv.gz"))
    else:
        values = {
            "setup_s": statistics.median(setups + [ep.setup_s for ep in timed]),
            "round_ms": statistics.median(best) * 1000.0,
            "tokens_per_s": cfg.n_clients * cfg.batch * cfg.model.seq_len * len(best) / sum(best),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "round_ms": "ms", "tokens_per_s": "tokens/s", "peak_rss_mb": "MB"}
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def write_spans(rec: Recorder, path: str) -> None:
    """One span per line, gzip-compressed: thread, name, start and end in
    microseconds from the first span, parent index within the thread (-1 for
    a root)."""
    origin = min((log.starts[0] for log in rec.logs if log.starts), default=0.0)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
        f.write("thread\tname\tstart_us\tend_us\tparent\n")
        for log in rec.logs:
            for name, t0, t1, parent in log.spans():
                f.write(f"{log.name}\t{name}\t{(t0 - origin) * 1e6:.1f}\t{(t1 - origin) * 1e6:.1f}\t{parent}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="splitft benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(workloads.make(args.workload, args.seed), args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
