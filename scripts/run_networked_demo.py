#!/usr/bin/env python3
"""Demo of the TCP mode: spawns one server and N client subprocesses on
localhost, runs a short experiment, and prints the server's summary.

Usage:
    python scripts/run_networked_demo.py --rounds 12 --clients 2 --port 47001
"""

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rounds", type=int, default=12)
    ap.add_argument("--clients", type=int, default=2)
    ap.add_argument("--port", type=int, default=47001)
    ap.add_argument("--out", default="net_metrics.csv")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "demo.cfg"
        cfg_path.write_text(
            f"total_rounds = {args.rounds}\n"
            f"agg_period = 4\n"
            f"n_clients = {args.clients}\n"
            f"seed = 3\n"
        )
        addr = f"127.0.0.1:{args.port}"
        server = subprocess.Popen(
            [sys.executable, "-m", "splitft.cli", "run", "--listen", addr,
             "--config", str(cfg_path), "--out", args.out]
        )
        clients = [  # each waits for the server to listen
            subprocess.Popen(
                [sys.executable, "-m", "splitft.cli", "run", "--connect", addr, "--client-id", str(cid),
                 "--config", str(cfg_path)]
            )
            for cid in range(args.clients)
        ]
        codes = [server.wait(timeout=120)]
        for client in clients:
            if codes[0]:  # the server failed: the client would wait for it up to PEER_TIMEOUT_S
                client.kill()
            codes.append(client.wait(timeout=120))

    if any(codes):
        print(f"nonzero exit codes: {codes}", file=sys.stderr)
        return 1
    print(f"all processes exited cleanly; metrics in {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
