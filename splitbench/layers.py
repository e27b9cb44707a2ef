"""Which public functions the traced run wraps, and how their spans become
the per-layer metrics listed in BENCHMARK.json.

Spans are named after the module that defines the function; the same
function imported into a second module (``plan_round``, ``make_shard``)
keeps its defining name, so both call sites add to one figure.
"""

from __future__ import annotations

import statistics

from checks import TAG_NAMES
from spans import Recorder, outermost_total, stats_by_name
from splitft import aggregation, importance, lora, model, net, orchestrator, planner, wire


def _count_frame(notes, args, frame) -> None:
    notes[f"bytes.{frame[4]}"] += len(frame)
    notes[f"frames.{frame[4]}"] += 1


def _count_uploads(notes, args, result) -> None:
    notes["uploads"] += len(args[0])


def targets(rec: Recorder) -> list:
    def span(name, note=None):
        return lambda fn: rec.wrap(name, fn, note)

    return [
        (orchestrator, "run_round", span("orchestrator.run_round")),
        (orchestrator, "budget_trace", span("orchestrator.budget_trace")),
        (orchestrator, "make_shard", span("orchestrator.make_shard")),
        (net, "make_shard", span("orchestrator.make_shard")),
        (orchestrator, "plan_round", span("orchestrator.plan_round")),
        (net, "plan_round", span("orchestrator.plan_round")),
        (planner, "plan_for_split", span("planner.plan_for_split")),
        (importance, "gw_numerator", span("importance.gw_numerator")),
        (importance.ImportanceTable, "update_round", span("importance.update_round")),
        (model, "build_model", span("model.build_model")),
        (model, "forward_client", span("model.forward_client")),
        (model, "forward_server", span("model.forward_server")),
        (model, "loss_and_grad_server", span("model.loss_and_grad_server")),
        (model, "backward_client", span("model.backward_client")),
        (lora, "adapted_forward", span("lora.adapted_forward")),
        (lora, "adapter_grads", span("lora.adapter_grads")),
        (lora, "adapted_input_grad", span("lora.adapted_input_grad")),
        (lora, "reinit", span("lora.reinit")),
        (aggregation, "naa_delta", span("aggregation.naa_delta", _count_uploads)),
        (aggregation, "haa_delta", span("aggregation.haa_delta", _count_uploads)),
        (aggregation, "apply_and_reinit", span("aggregation.apply_and_reinit")),
        (wire, "encode_message", span("wire.encode_message", _count_frame)),
        (wire, "decode_message", span("wire.decode_message")),
        (wire, "read_frame", span("wire.read_frame")),
    ]


AGG_GROUP = {"aggregation.naa_delta", "aggregation.haa_delta", "aggregation.apply_and_reinit", "lora.reinit"}

# name -> unit, in the order BENCHMARK.json lists them.
UNITS = {
    "orchestrator.round_self_ms": "ms",
    "orchestrator.budget_trace_calls": "count",
    "orchestrator.setup_build_ms": "ms/run",
    "orchestrator.setup_shard_ms": "ms/run",
    "planner.plan_round_ms": "ms",
    "planner.plan_for_split_calls": "count",
    "planner.plan_for_split_ms": "ms",
    "planner.replans_threshold": "count/run",
    "planner.replans_infeasible": "count/run",
    "importance.numerator_ms": "ms",
    "importance.update_ms": "ms",
    "model.client_fwd_ms": "ms",
    "model.server_fwd_ms": "ms",
    "model.server_loss_bwd_ms": "ms",
    "model.client_bwd_ms": "ms",
    "model.fwd_self_ms": "ms",
    "model.bwd_self_ms": "ms",
    "lora.adapted_forward_ms": "ms",
    "lora.adapter_grads_ms": "ms",
    "lora.adapted_input_grad_ms": "ms",
    "lora.calls": "count",
    "aggregation.agg_ms": "ms",
    "aggregation.uploads": "count",
    "wire.encode_ms": "ms",
    "wire.decode_ms": "ms",
    "wire.frames": "count",
    **{f"wire.bytes.{tag}": "bytes" for tag in TAG_NAMES.values()},
    "net.server_wait_ms": "ms",
    "net.client_wait_ms": "ms",
    "net.server_compute_ms": "ms",
    "trace.overhead_ms": "ms",
}


def total_of(stats, *names) -> float:
    return sum(stats[n].total for n in names if n in stats)


def _server_setup_reads(server_spans) -> float:
    """read_frame time on server threads before their first round (hellos)."""
    total = 0.0
    for spans in server_spans:
        for name, t0, t1, _ in spans:
            if name == "orchestrator.plan_round":
                break
            if name == "wire.read_frame":
                total += t1 - t0
    return total


def per_layer(rec: Recorder, reports: list, runs: int, traced_round_s: list[float],
              untraced_round_s: list[float]) -> dict[str, float]:
    """Per-layer figures of the traced episodes: per round unless the unit
    says per run; aggregation figures per aggregation round."""
    logs = rec.logs
    spans = {id(log): log.spans() for log in logs}
    server_spans = [spans[id(log)] for log in logs if log.name.startswith("server")]
    client_spans = [spans[id(log)] for log in logs if log.name.startswith("client")]
    s = stats_by_name(spans.values())
    rounds = len(reports)
    agg_rounds = sum(1 for r in reports if r.aggregated)
    ms = 1000.0

    def per_round(x):
        return x / rounds

    def total(*names):
        return total_of(s, *names)

    def self_(*names):
        return sum(s[n].self_ for n in names if n in s)

    def calls(*names):
        return sum(s[n].calls for n in names if n in s)

    notes = {}
    for log in logs:
        for k, v in log.notes.items():
            notes[k] = notes.get(k, 0) + v
    server = stats_by_name(server_spans)
    client = stats_by_name(client_spans)
    server_wait = total_of(server, "wire.read_frame") - _server_setup_reads(server_spans)
    server_codec = total_of(server, "wire.encode_message", "wire.decode_message")
    tcp = bool(server_spans)
    server_round = sum(r.duration_s for r in reports) if tcp else 0.0
    lora3 = ("lora.adapted_forward", "lora.adapter_grads", "lora.adapted_input_grad")

    return {
        "orchestrator.round_self_ms": per_round(self_("orchestrator.run_round")) * ms,
        "orchestrator.budget_trace_calls": per_round(calls("orchestrator.budget_trace")),
        "orchestrator.setup_build_ms": total("model.build_model") / runs * ms,
        "orchestrator.setup_shard_ms": total("orchestrator.make_shard") / runs * ms,
        "planner.plan_round_ms": per_round(total("orchestrator.plan_round")) * ms,
        "planner.plan_for_split_calls": per_round(calls("planner.plan_for_split")),
        "planner.plan_for_split_ms": per_round(total("planner.plan_for_split")) * ms,
        "planner.replans_threshold": sum(r.replan_reason == "threshold" for r in reports) / runs,
        "planner.replans_infeasible": sum(r.replan_reason == "infeasible" for r in reports) / runs,
        "importance.numerator_ms": per_round(total("importance.gw_numerator")) * ms,
        "importance.update_ms": per_round(total("importance.update_round")) * ms,
        "model.client_fwd_ms": per_round(total("model.forward_client")) * ms,
        "model.server_fwd_ms": per_round(total("model.forward_server")) * ms,
        "model.server_loss_bwd_ms": per_round(total("model.loss_and_grad_server")) * ms,
        "model.client_bwd_ms": per_round(total("model.backward_client")) * ms,
        "model.fwd_self_ms": per_round(self_("model.forward_client", "model.forward_server")) * ms,
        "model.bwd_self_ms": per_round(self_("model.loss_and_grad_server", "model.backward_client")) * ms,
        "lora.adapted_forward_ms": per_round(total("lora.adapted_forward")) * ms,
        "lora.adapter_grads_ms": per_round(total("lora.adapter_grads")) * ms,
        "lora.adapted_input_grad_ms": per_round(total("lora.adapted_input_grad")) * ms,
        "lora.calls": per_round(calls(*lora3)),
        "aggregation.agg_ms": (sum(outermost_total(x, AGG_GROUP) for x in spans.values()) / agg_rounds * ms
                               if agg_rounds else 0.0),
        "aggregation.uploads": notes.get("uploads", 0) / agg_rounds if agg_rounds else 0.0,
        "wire.encode_ms": per_round(total("wire.encode_message")) * ms,
        "wire.decode_ms": per_round(total("wire.decode_message")) * ms,
        "wire.frames": per_round(sum(v for k, v in notes.items() if k.startswith("frames."))),
        **{f"wire.bytes.{name}": per_round(notes.get(f"bytes.{tag}", 0)) for tag, name in TAG_NAMES.items()},
        "net.server_wait_ms": per_round(server_wait) * ms,
        "net.client_wait_ms": per_round(total_of(client, "wire.read_frame")) * ms,
        "net.server_compute_ms": per_round(server_round - server_wait - server_codec) * ms if tcp else 0.0,
        "trace.overhead_ms": (statistics.median(traced_round_s) - statistics.median(untraced_round_s)) * ms,
    }
