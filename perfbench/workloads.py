"""The benchmark's four workloads: one fixed job each.

:func:`run_once` runs a workload's job through the public study entry
points (``run_campaign``, ``run_multihop``, ``run_fig5_measured``),
serially, and describes the outcome: host timings, artifact digests,
invariant violations and, when traced, the per-layer split.  It
installs wrappers into the ``repro`` modules, so ``run.py`` calls it
only in a process of its own, one per repetition.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import pathlib
import resource
import statistics
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

from tracer import SpanRecorder

WORKLOADS = ("paper_grid", "dense_sinr", "multihop_relay", "slot_fig5")


@dataclass
class Plan:
    """One workload's fixed job."""

    #: Artifact names the job must produce.
    cells: list[str]
    #: Runs the job; returns the Fig. 5 rows for ``slot_fig5``.
    run: Callable[[], Any]
    #: Campaign stores the job writes, keyed by artifact-name prefix.
    stores: dict[str, pathlib.Path]


def _cell_names(config: Any, prefix: str = "") -> list[str]:
    from repro.experiments import CampaignRunner

    return [f"{prefix}cell-{spec.key}.json" for spec in CampaignRunner(config).specs()]


def plan_paper_grid(seed: int, toy: bool, store: pathlib.Path) -> Plan:
    """The Fig. 6/7 single-hop grid: 3 N x 3 schemes x 3 beamwidths."""
    from repro.dessim import milliseconds
    from repro.experiments import SimStudyConfig, run_campaign

    if toy:
        config = SimStudyConfig(
            n_values=(3,),
            beamwidths_deg=(90.0,),
            topologies=1,
            sim_time_ns=milliseconds(20),
            base_seed=seed,
        )
    else:
        config = SimStudyConfig(
            topologies=1, sim_time_ns=milliseconds(100), base_seed=seed
        )
    return Plan(
        cells=_cell_names(config),
        run=lambda: run_campaign(config, workers=1, directory=store),
        stores={"": store},
    )


def plan_dense_sinr(seed: int, toy: bool, store: pathlib.Path) -> Plan:
    """The ``repro sinr`` arm pair on the 200-node ``n=8, rings=5`` cell."""
    from repro.dessim import milliseconds
    from repro.experiments import SinrStudyConfig, replicate_topology, run_campaign
    from repro.experiments import sinr_study

    n, rings, sim_ms = (3, 3, 20) if toy else (8, 5, 150)
    arms = {
        model: SinrStudyConfig(
            n_values=(n,),
            beamwidths_deg=(90.0,),
            schemes=("DRTS-OCTS",),
            topologies=1,
            sim_time_ns=milliseconds(sim_ms),
            base_seed=seed,
            phy_model=model,
        )
        for model in ("unitdisk", "sinr")
    }
    topology_fn = functools.partial(replicate_topology, rings=rings)

    def run() -> None:
        for model, config in arms.items():
            # Looked up at call time so a traced run sees the wrapped workers.
            run_campaign(
                config,
                workers=1,
                directory=store / model,
                worker=sinr_study.run_sinr_cell_spec,
                worker_telemetry=sinr_study.run_sinr_cell_spec_telemetry,
                topology_fn=topology_fn,
            )

    return Plan(
        cells=[
            name
            for model, config in arms.items()
            for name in _cell_names(config, f"{model}/")
        ],
        run=run,
        stores={f"{model}/": store / model for model in arms},
    )


def plan_multihop_relay(seed: int, toy: bool, store: pathlib.Path) -> Plan:
    """Greedy-routed CBR flows on connected 2-ring N=5 topologies."""
    from repro.dessim import milliseconds
    from repro.experiments import MultihopStudyConfig, run_multihop

    config = MultihopStudyConfig(
        n_values=(5,),
        beamwidths_deg=(90.0,) if toy else (30.0, 90.0, 150.0),
        rings=2,
        # Flow count and hop lengths vary with the topology: three per
        # cell keep the work per seed steady.
        topologies=1 if toy else 3,
        sim_time_ns=milliseconds(400 if toy else 750),
        base_seed=seed,
        # Five packets a second per flow keeps the relays below
        # saturation: the MAC idles and queues instead of dropping.
        flow_interval_ns=milliseconds(200),
    )
    return Plan(
        cells=_cell_names(config),
        run=lambda: run_multihop(config, workers=1, directory=store),
        stores={"": store},
    )


def plan_slot_fig5(seed: int, toy: bool, store: pathlib.Path) -> Plan:
    """Fig. 5 optima re-measured by the numpy batch slot engine."""
    from repro.core.sweep import SCHEME_FACTORIES
    from repro.experiments import run_fig5_measured

    widths = (90.0,) if toy else (30.0, 90.0, 150.0)
    return Plan(
        cells=[f"bw{width:g}-{scheme}" for width in widths for scheme in SCHEME_FACTORIES],
        run=lambda: run_fig5_measured(
            beamwidths=[math.radians(width) for width in widths],
            slots=400 if toy else 1000,
            replicates=1,
            engine="batch",
            base_seed=seed,
        ),
        stores={},
    )


PLANS = {
    "paper_grid": plan_paper_grid,
    "dense_sinr": plan_dense_sinr,
    "multihop_relay": plan_multihop_relay,
    "slot_fig5": plan_slot_fig5,
}


# ----------------------------------------------------------------------
# What a finished job left behind.
# ----------------------------------------------------------------------


def store_artifacts(stores: dict[str, pathlib.Path]) -> dict[str, str]:
    """SHA-256 of every cell artifact file, keyed by prefixed file name.

    Hashed over the file bytes, as the reception-equivalence golden
    pins in the repository's integration tests are.
    """
    return {
        prefix + path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for prefix, directory in stores.items()
        for path in sorted(directory.glob("cell-*.json"))
    }


def row_artifacts(rows: list[Any]) -> dict[str, dict]:
    """Fig. 5 measured rows as exact JSON records, keyed by point."""
    return {
        f"bw{row.beamwidth_deg:g}-{row.scheme}": json.loads(
            json.dumps(dataclasses.asdict(row))
        )
        for row in rows
    }


def load_records(stores: dict[str, pathlib.Path]) -> list[dict]:
    """Every ``repro-telemetry-v1`` cell record the stores hold."""
    from repro.obs import read_telemetry

    records = []
    for directory in stores.values():
        path = directory / "telemetry.jsonl"
        if path.exists():
            records.extend(r for r in read_telemetry(path) if r["kind"] == "cell")
    return records


def load_replicates(stores: dict[str, pathlib.Path]) -> list[dict]:
    """Every replicate record of every stored cell artifact."""
    replicates = []
    for directory in stores.values():
        for path in sorted(directory.glob("cell-*.json")):
            replicates.extend(json.loads(path.read_text())["replicates"])
    return replicates


def invariant_violations(stores: dict[str, pathlib.Path], rows: list[Any]) -> list[str]:
    """Cells whose results break an invariant that holds on every seed.

    A single cell may legitimately deliver nothing (at 0.1 simulated
    seconds a three-node DRTS-OCTS cell can lose every early handshake
    to collisions), so positive throughput is required of the workload
    as a whole; each cell must only be self-consistent.
    """
    bad = []
    total_rate = 0.0
    for prefix, directory in stores.items():
        for path in sorted(directory.glob("cell-*.json")):
            for rep in json.loads(path.read_text())["replicates"]:
                if "goodput_bps" in rep:  # multi-hop replicate
                    rate, packets = rep["goodput_bps"], rep["packets_delivered"]
                    ok = packets <= rep["packets_originated"]
                else:
                    rate, packets = rep["inner_throughput_bps"], rep["inner_packets_delivered"]
                    ok = 0 <= rep["inner_collision_ratio"] <= 1
                if not (ok and rate >= 0 and (rate > 0) == (packets > 0)):
                    bad.append(prefix + path.name)
                total_rate += rate
        for record in load_records({prefix: directory}):
            counters = record["counters"]
            if counters.get("mac.packets_delivered", 0) > counters.get(
                "mac.packets_enqueued", 0
            ):
                bad.append(f"{prefix}cell-{record['key']}.json")
    for name, row in row_artifacts(rows).items():
        if not (row["analytical"] > 0 and row["measured"]["mean"] >= 0 and 0 < row["p"] < 1):
            bad.append(name)
        total_rate += row["measured"]["mean"]
    if total_rate <= 0:
        bad.extend(store_artifacts(stores))
        bad.extend(row_artifacts(rows))
    return sorted(set(bad))


def phase_seconds(records: list[dict], *labels: str) -> float:
    """Host seconds the cells' phase profilers booked under ``labels``."""
    return sum(r["phases"].get(label, 0.0) for r in records for label in labels)


# ----------------------------------------------------------------------
# The traced run: spans around the layers' public calls.
# ----------------------------------------------------------------------


def install_phase_timers(recorder: SpanRecorder) -> None:
    """Spans for the slot workload's set-up and slot loop (always on)."""
    from repro.core import sweep
    from repro.slotsim import BatchSlotModelEngine

    facts = recorder.facts

    def count_slots(results: list[Any], *args: Any) -> None:
        for result in results:
            facts["slotsim.slots"] += result.slots
            facts["slotsim.initiations"] += result.initiations
            facts["slotsim.successes"] += result.successes

    recorder.wrap(sweep, "fig5_series", "core.fig5_series")
    recorder.wrap(BatchSlotModelEngine, "__init__", "slotsim.geometry")
    recorder.wrap(BatchSlotModelEngine, "run", "slotsim.run", after=count_slots)


def install_layer_spans(recorder: SpanRecorder, profiler: Any) -> None:
    """Wrap each layer's public calls; attach ``profiler`` to event loops."""
    from repro.core import optimize
    from repro.dessim.rng import RngRegistry
    from repro.experiments import campaign, multihop, sinr_study
    from repro.net import topology
    from repro.net.multihop import MultihopNetworkSimulation
    from repro.net.network import NetworkSimulation
    from repro.phy.channel import Channel
    from repro.phy.linkcache import LinkCache
    from repro.phy.reception.sinr import SinrCaptureReception
    from repro.phy.reception.unitdisk import UnitDiskReception
    from repro.route.forwarding import ForwardingAgent
    from repro.route.router import GreedyGeographicRouter, StaticShortestPathRouter

    facts = recorder.facts

    def hook(simulation: Any, *args: Any) -> None:
        simulation.sim.dispatch_hook = profiler

    def link_table(result: Any, simulation: Any, *args: Any) -> None:
        channel = simulation.channel
        facts["phy.cached_pairs"] += channel.cache.cached_pairs()
        facts["phy.audible_pairs"] += sum(
            len(channel.neighbors_of(node)) for node in channel.radios
        )

    wrap = recorder.wrap
    wrap(RngRegistry, "stream", "dessim.rng.stream")
    wrap(LinkCache, "link", "phy.link")
    wrap(UnitDiskReception, "link_budget", "phy.link_budget")
    wrap(SinrCaptureReception, "link_budget", "phy.link_budget")
    wrap(Channel, "transmit", "phy.transmit")
    wrap(GreedyGeographicRouter, "next_hop", "route.next_hop")
    wrap(StaticShortestPathRouter, "next_hop", "route.next_hop")
    wrap(ForwardingAgent, "originate", "route.originate")
    wrap(topology, "generate_ring_topology", "net.topology")
    wrap(topology, "generate_connected_ring_topology", "net.topology")
    for simulation_class in (NetworkSimulation, MultihopNetworkSimulation):
        wrap(simulation_class, "__init__", "net.build")
        wrap(simulation_class, "run", "net.run", before=hook, after=link_table)
    wrap(
        campaign,
        "run_campaign",
        "experiments.campaign",
        tag=lambda config, **_: getattr(config, "phy_model", "unitdisk"),
    )
    wrap(campaign, "run_cell_spec", "experiments.cell")
    wrap(sinr_study, "run_sinr_cell_spec", "experiments.cell")
    wrap(multihop, "run_multihop_cell_spec", "experiments.cell")
    for method in ("save", "record_telemetry", "merge_telemetry_summary"):
        wrap(campaign.CampaignStore, method, "experiments.store")
    wrap(optimize, "maximize_throughput", "core.optimize")


def layer_metrics(
    recorder: SpanRecorder,
    profiler: Any,
    stores: dict[str, pathlib.Path],
    rows: list[Any],
    wall_s: float,
) -> dict[str, float]:
    """The per-layer split of one traced repetition."""
    totals = recorder.totals()

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def duration(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    records = load_records(stores)
    counters: dict[str, float] = {}
    for record in records:
        for key, value in record["counters"].items():
            counters[key] = counters.get(key, 0) + value

    def counter(name: str) -> float:
        return counters.get(name, 0)

    replicates = load_replicates(stores)

    def replicate_sum(field: str) -> int:
        return sum(rep.get(field, 0) for rep in replicates)

    callback_s: dict[str, float] = {}
    for key, entry in profiler.as_dict().items():
        group = key.split(":", 1)[0]
        callback_s[group] = callback_s.get(group, 0.0) + entry["seconds"]

    streams_by_model = {"unitdisk": 0, "sinr": 0}
    for index, span in enumerate(recorder.spans):
        if span[0] == "dessim.rng.stream":
            model = recorder.ancestor_tag(index)
            if model in streams_by_model:
                streams_by_model[model] += 1

    cells = recorder.durations("experiments.cell")
    facts = recorder.facts
    row_records = row_artifacts(rows)
    gaps = [
        abs(row["measured"]["mean"] - row["analytical"]) / row["analytical"]
        for row in row_records.values()
    ]
    return {
        "dessim.events": counter("dessim.events"),
        "dessim.scheduled": counter("dessim.scheduled"),
        "dessim.cancelled": counter("dessim.cancelled"),
        "dessim.wheel.event_reuse": counter("dessim.wheel.event_reuse"),
        "dessim.self_s": duration("net.run") - profiler.total_seconds,
        "dessim.rng.streams": calls("dessim.rng.stream"),
        "dessim.rng.streams.unitdisk": streams_by_model["unitdisk"],
        "dessim.rng.streams.sinr": streams_by_model["sinr"],
        "dessim.rng.stream_s": self_s("dessim.rng.stream"),
        "phy.link.calls": calls("phy.link"),
        "phy.link_s": self_s("phy.link"),
        "phy.link_budget.calls": calls("phy.link_budget"),
        "phy.link_budget_s": self_s("phy.link_budget"),
        "phy.cached_pairs": facts["phy.cached_pairs"],
        "phy.audible_pair_ratio": ratio(
            facts["phy.audible_pairs"], facts["phy.cached_pairs"]
        ),
        "phy.transmit.calls": calls("phy.transmit"),
        "phy.transmit_s": self_s("phy.transmit"),
        "phy.callback_s": callback_s.get("phy", 0.0),
        "phy.frames_captured": replicate_sum("frames_captured"),
        "phy.frames_sinr_dropped": replicate_sum("frames_sinr_dropped"),
        "mac.callback_s": callback_s.get("mac", 0.0),
        "mac.rts_sent": counter("mac.rts_sent"),
        "mac.cts_timeouts": counter("mac.cts_timeouts"),
        "mac.ack_timeouts": counter("mac.ack_timeouts"),
        "mac.packets_dropped": counter("mac.packets_dropped"),
        "mac.handshake_yield": ratio(
            counter("mac.packets_delivered"), counter("mac.rts_sent")
        ),
        "traffic.callback_s": callback_s.get("traffic", 0.0),
        "traffic.packets_enqueued": counter("mac.packets_enqueued"),
        "route.callback_s": callback_s.get("route", 0.0),
        "route.next_hop.calls": calls("route.next_hop"),
        "route.next_hop_s": self_s("route.next_hop"),
        "route.originate.calls": calls("route.originate"),
        "route.originate_s": self_s("route.originate"),
        "route.drops.queue_full": replicate_sum("dropped_queue_full"),
        "route.drops.dead_end": replicate_sum("dropped_dead_end"),
        "route.drops.ttl": replicate_sum("dropped_ttl"),
        "route.drops.mac": replicate_sum("dropped_mac"),
        "route.delivery_ratio": ratio(
            replicate_sum("packets_delivered"), replicate_sum("packets_originated")
        ),
        "net.topology_s": self_s("net.topology"),
        "net.build_s": self_s("net.build"),
        "net.nodes": sum(
            r["gauges"].get("net.nodes", 0) * r["replicates"] for r in records
        ),
        "experiments.cell_s.p50": statistics.median(cells) if cells else 0.0,
        "experiments.cell_s.max": max(cells, default=0.0),
        "experiments.store_s": self_s("experiments.store"),
        "experiments.overhead_s": wall_s
        - sum(cells)
        - duration("core.fig5_series")
        - duration("slotsim.geometry")
        - duration("slotsim.run"),
        "core.optimize.calls": calls("core.optimize"),
        "core.optimize_s": duration("core.fig5_series"),
        "slotsim.slots": facts["slotsim.slots"],
        "slotsim.initiations": facts["slotsim.initiations"],
        "slotsim.success_ratio": ratio(
            facts["slotsim.successes"], facts["slotsim.initiations"]
        ),
        "slotsim.run_s": self_s("slotsim.run"),
        "slotsim.model_gap": statistics.fmean(gaps) if gaps else 0.0,
    }


# ----------------------------------------------------------------------
# One repetition.
# ----------------------------------------------------------------------


def run_once(
    workload: str,
    seed: int,
    toy: bool,
    trace: bool,
    store: pathlib.Path,
    spans: pathlib.Path | None = None,
) -> dict:
    """Run one workload's job in this process and describe the outcome."""
    import repro.experiments  # noqa: F401 - every module loaded before wrapping
    from repro.obs import CallbackProfiler

    recorder = SpanRecorder()
    profiler = CallbackProfiler()
    install_phase_timers(recorder)
    if trace:
        install_layer_spans(recorder, profiler)
    plan = PLANS[workload](seed, toy, store)

    error = None
    outcome = None
    start = perf_counter()
    try:
        outcome = plan.run()
    except Exception:  # the caller counts the cells this job did not finish
        error = traceback.format_exc()
    wall_s = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Campaign workloads leave their cells in the stores; slot_fig5
    # returns its rows.
    rows = [] if plan.stores else outcome or []
    if plan.stores:
        records = load_records(plan.stores)
        artifacts: dict[str, Any] = store_artifacts(plan.stores)
        setup_s = phase_seconds(records, "topology gen", "build")
        loop_s = phase_seconds(records, "warmup", "event loop")
    else:
        artifacts = row_artifacts(rows)
        totals = recorder.totals()
        setup_s = sum(
            totals.get(name, (0, 0.0, 0.0))[1]
            for name in ("core.fig5_series", "slotsim.geometry")
        )
        loop_s = totals.get("slotsim.run", (0, 0.0, 0.0))[1]
    result = {
        "cells": plan.cells,
        "artifacts": artifacts,
        "invariant_violations": invariant_violations(plan.stores, rows),
        "error": error,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "loop_s": loop_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        result["layers"] = layer_metrics(recorder, profiler, plan.stores, rows, wall_s)
        if spans is not None:
            recorder.write(spans)
    return result
