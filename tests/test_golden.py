"""Golden CSV digests: the exact ``metrics.write_csv`` bytes of fixed runs.

Each digest is the sha256 of the CSV the code wrote when the in-process
loop and the TCP server still had separate round loops; one engine now
runs both and must keep every byte. The digests were the same under one
and two BLAS threads. A change that alters the CSV on purpose (such as a
new split trigger) updates these digests in the same change and says so in
CHANGES.md.
"""

import hashlib
import io
from dataclasses import replace

import pytest
from test_net import _session

from splitft import metrics, orchestrator
from splitft.config import BudgetSpec, ExperimentConfig
from splitft.model import ModelConfig

BASE, ADAPTER = 2 * 16 * 32, 3 * 32 * 64  # one block's activations; one rank-32 adapter
DESK = replace(
    ExperimentConfig(),
    model=ModelConfig(n_blocks=2, d_model=32, n_heads=4, vocab_size=16, seq_len=16),
    n_clients=3, total_rounds=30, agg_period=10, rank_set=(32,), learning_rate=1.0, seed=3,
    client_budget=BudgetSpec("uniform", lo=BASE + ADAPTER + 1, hi=BASE + 4 * ADAPTER + 1),
    server_budget=BudgetSpec("fixed", value=BASE + 4 * ADAPTER + 1),
).validate()


def _csv_sha256(reports) -> str:
    buf = io.StringIO()
    metrics.write_csv(reports, buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("aggregator, digest", [
    ("naa", "8b97941e85d1c8b6bed667b273e17b93848de781fbe2f29f4a62afe8d22f5baa"),
    ("haa", "ce9f9ca7e8c5677cad277f7a9fb4bfef81a41eec8f73be0088da47c288bde545"),
])
def test_in_process_desk_csv_is_unchanged(aggregator, digest):
    reports, _ = orchestrator.run_experiment(replace(DESK, aggregator=aggregator))
    assert _csv_sha256(reports) == digest


def test_tcp_desk_session_csv_is_unchanged():
    reports, _ = _session(replace(DESK, total_rounds=8, agg_period=4))
    assert _csv_sha256(reports) == "4786a4b79fd0c7b7f2fd7f5658315a2bf5e92f32cd1c48d1010110641c1c7b3b"
