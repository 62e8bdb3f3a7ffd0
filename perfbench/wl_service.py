"""service-mix: a seeded request sequence against a real ``iris serve``.

The daemon runs as a subprocess (``--workers 2``) on a fresh store. A
closed-loop generator in this process drives it over two connections,
one thread each. Every request is one of:

* ``cold``: the first sighting of a base region;
* ``coalesced``: the same region submitted right behind a cold leader,
  while the leader is in flight (both connections, back to back);
* ``warm``: a repeat of a region or delta already planned (store hit);
* ``patched``: a duct add, a duct cut or a DC resize on a planned base.

A request is sent only once the requests it depends on have completed,
so each request's outcome is fixed by the sequence, not by timing.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from measure import (
    CheckFailed, Op, Recorder, expect, peak_rss_mb, percentile, plan_text,
    sha256_text,
)
from spans import SpanLog

#: (map_index, n_dcs) of the base regions; each plans cold in 0.07-0.3 s
#: on a 2-CPU host, so the request path, not the planner, is the load.
REGIONS = ((6, 4), (8, 4), (3, 4), (9, 4), (7, 5), (6, 5), (4, 4), (7, 4), (1, 4), (6, 6))
DC_FIBERS = 8
#: Regions whose cold request is submitted as a coalesced pair: those that
#: plan in 0.2 s or more, so the leader is still in flight when the
#: follower arrives.
PAIRED = (4, 5, 6, 7, 9)
#: Store-hit repeats of each base region.
BASE_REPEATS = 3
DELTAS = ("add", "cut", "resize")
#: Region whose untraced and profiled plans give ``obs.trace_overhead``.
PROFILE_REGION = 9
#: The daemon layer's per-layer metrics, reported by this workload only.
DAEMON_UNITS = {
    "service.daemon.submit_rtt_s": "s",
    "service.daemon.result_wait_s": "s",
    "service.daemon.cold": "count",
    "service.daemon.store_hits": "count",
    "service.daemon.patched": "count",
    "service.daemon.coalesced": "count",
    "service.daemon.rejected": "count",
    "service.daemon.failed": "count",
    "service.daemon.timeouts": "count",
}
START_TIMEOUT_S = 60.0
RESULT_TIMEOUT_S = 120.0


@dataclass
class Task:
    index: int
    label: str  # "<region>:<target>", the key of its recorded digest
    kind: str  # cold, coalesced, warm, patched
    message: dict[str, Any]
    deps: tuple[int, ...] = ()
    barrier: bool = False  # wait until every earlier task has completed
    leader: int | None = None  # a coalesced follower's leader


@dataclass
class Schedule:
    """Hands tasks out in order, each once its dependencies allow."""

    tasks: list[Task]
    position: int = 0
    submitted: set[int] = field(default_factory=set)
    done: set[int] = field(default_factory=set)
    cond: threading.Condition = field(default_factory=threading.Condition)

    def _ready(self, task: Task) -> bool:
        if task.leader is not None:
            return task.leader in self.submitted
        if task.barrier:
            return len(self.done) == task.index
        return all(dep in self.done for dep in task.deps)

    def take(self) -> Task | None:
        with self.cond:
            while self.position < len(self.tasks):
                task = self.tasks[self.position]
                if self._ready(task):
                    self.position += 1
                    return task
                self.cond.wait(timeout=1.0)
            return None

    def mark(self, task: Task, state: set[int]) -> None:
        with self.cond:
            state.add(task.index)
            self.cond.notify_all()


def build_tasks(requests: dict[str, dict[str, Any]], seed: int) -> list[Task]:
    """A seeded dependency-respecting order of the whole request mix."""
    specs: list[dict[str, Any]] = []

    def add(label: str, kind: str, deps: tuple[int, ...] = ()) -> int:
        specs.append({"label": label, "kind": kind, "deps": deps})
        return len(specs) - 1

    # Requests for one key form a chain, so no two of them are ever in
    # flight together: only the explicit pairs coalesce.
    for i in range(len(REGIONS)):
        last = base = add(f"{i}:base", "cold")
        for _ in range(BASE_REPEATS):
            last = add(f"{i}:base", "warm", (last,))
        for delta in DELTAS:
            patched = add(f"{i}:{delta}", "patched", (base,))
            add(f"{i}:{delta}", "warm", (patched,))
    rng = random.Random(seed)
    placed: list[int] = []
    pending = list(range(len(specs)))
    while pending:
        ready = [s for s in pending if all(d in placed for d in specs[s]["deps"])]
        pick = rng.choice(ready)
        pending.remove(pick)
        placed.append(pick)
    tasks: list[Task] = []
    position = {}
    for spec_id in placed:
        spec = specs[spec_id]
        region = int(spec["label"].split(":")[0])
        pair = spec["kind"] == "cold" and region in PAIRED
        task = Task(
            len(tasks), spec["label"], spec["kind"], requests[spec["label"]],
            deps=tuple(position[d] for d in spec["deps"]), barrier=pair,
        )
        position[spec_id] = task.index
        tasks.append(task)
        if pair:
            tasks.append(Task(len(tasks), spec["label"], "coalesced",
                              task.message, leader=task.index))
    return tasks


EXPECTED_OUTCOME = {"cold": "cold", "coalesced": "cold", "warm": "store", "patched": "patched"}


class Daemon:
    """One ``iris serve`` subprocess on a fresh store under ``workdir``."""

    def __init__(self, root: Path, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        port_file = workdir / "port"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.log = open(workdir / "daemon.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--workers", "2",
             "--port-file", str(port_file), "--store", str(workdir / "store")],
            cwd=root, env=env, stdout=self.log, stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + START_TIMEOUT_S
        while not (port_file.exists() and port_file.read_text().strip()):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("planner daemon did not start")
            time.sleep(0.01)
        self.address = ("127.0.0.1", int(port_file.read_text()))

    def client(self):
        from repro.service import ServiceClient

        return ServiceClient(self.address)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.log.close()


class ServiceWorkload:
    def __init__(self, seed: int, seconds: float, pins: dict, root: Path):
        self.seed = seed
        self.seconds = seconds
        self.pins = pins["service-mix"]
        self.root = root
        self.daemon: Daemon | None = None
        self.setup_failures: list[str] = []

    # -- set-up ---------------------------------------------------------------

    def setup(self, workdir: Path) -> None:
        from repro.region.catalog import make_region
        from repro.region.delta import RegionDelta
        from repro.serialize import region_to_dict

        from wl_planner import region_sha

        self.workdir = workdir
        self.regions = []
        self.deltas: dict[str, Any] = {}
        requests: dict[str, dict[str, Any]] = {}
        for i, ((map_index, n_dcs), pin) in enumerate(zip(REGIONS, self.pins["regions"])):
            region = make_region(map_index=map_index, n_dcs=n_dcs, dc_fibers=DC_FIBERS).spec
            if region_sha(region) != pin["region_sha"]:
                self.setup_failures.append(f"input: region {i} differs from its digest")
            self.regions.append(region)
            encoded = region_to_dict(region)
            requests[f"{i}:base"] = {"op": "submit", "region": encoded}
            deltas = {
                "add": RegionDelta.duct_added(*pin["add"]["duct"], length_km=pin["add"]["length_km"]),
                "cut": RegionDelta.duct_cut(*pin["cut"]),
                "resize": RegionDelta.dc_resized(*pin["resize"]),
            }
            for name, delta in deltas.items():
                self.deltas[f"{i}:{name}"] = delta
                requests[f"{i}:{name}"] = {
                    "op": "submit", "region": encoded, "delta": delta.to_dict(),
                }
        self.tasks = build_tasks(requests, self.seed)
        self.daemon = Daemon(self.root, workdir / "daemon-0")
        with self.daemon.client() as client:
            client.ping()

    # -- the request loop -----------------------------------------------------

    def _drive(self, daemon: Daemon, rec: Recorder, log: SpanLog | None) -> None:
        from repro.exceptions import ServiceError

        schedule = Schedule(self.tasks)
        results = self.pins["results"]

        def mismatch(text: str, label: str) -> str:
            content = json.loads(text)
            timings = content.pop("timings", None)
            same = sha256_text(json.dumps(content, sort_keys=True)) == \
                self.pins["content"][label]
            return (f"result digest differs{' in timings only' if same else ''}"
                    f" (timings {timings})")

        lock = threading.Lock()

        def one(client, task: Task) -> None:
            request_id = f"req-{task.index:03d}"
            start = time.perf_counter()
            ok, why = True, ""
            try:
                if log is not None:
                    with log.span("service.daemon.submit", request_id):
                        ack = client.request(task.message, timeout_s=30.0)
                else:
                    ack = client.request(task.message, timeout_s=30.0)
                schedule.mark(task, schedule.submitted)
                if not ack.get("ok"):
                    raise CheckFailed(f"submit refused: {ack.get('error')}")
                expect(ack["coalesced"], task.kind == "coalesced", "coalesced flag")
                if log is not None:
                    with log.span("service.daemon.result", request_id):
                        reply = client.result(ack["job_id"], timeout_s=RESULT_TIMEOUT_S)
                else:
                    reply = client.result(ack["job_id"], timeout_s=RESULT_TIMEOUT_S)
                seconds = time.perf_counter() - start
                expect(reply["outcome"], EXPECTED_OUTCOME[task.kind], "outcome")
                if sha256_text(reply["plan"]) != results[task.label]:
                    raise CheckFailed(mismatch(reply["plan"], task.label))
            except (CheckFailed, ServiceError, KeyError) as exc:
                seconds = time.perf_counter() - start
                ok, why = False, f"{task.label} ({task.kind}): {exc}"
            finally:
                schedule.mark(task, schedule.submitted)
                schedule.mark(task, schedule.done)
            with lock:
                rec.ops.append(Op(task.kind, seconds, ok))
                if not ok:
                    rec.fail("request", why, op=True)

        def connection() -> None:
            with daemon.client() as client:
                while (task := schedule.take()) is not None:
                    one(client, task)

        threads = [threading.Thread(target=connection, daemon=True) for _ in range(2)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170)
            if thread.is_alive():
                rec.fail("loop", "request loop did not finish in time")
        rec.loop_s = time.perf_counter() - start
        rec.latencies = [op.seconds for op in rec.ops]
        with daemon.client() as client:
            counters = client.stats()["counters"]
        rec.peak_mb = peak_rss_mb(daemon.proc.pid)
        want = {
            "cold": sum(t.kind == "cold" for t in self.tasks),
            "coalesced": sum(t.kind == "coalesced" for t in self.tasks),
            "store_hits": sum(t.kind == "warm" for t in self.tasks),
            "patched": sum(t.kind == "patched" for t in self.tasks),
            "rejected": 0, "failed": 0, "timeouts": 0,
        }
        got = {name: counters.get(name, 0) for name in want}
        if got != want:
            rec.fail("determinism", f"daemon counters {got}, want {want}")
        rec.counters = {"daemon": counters}

    def run(self) -> Recorder:
        rec = Recorder()
        for failure in self.setup_failures:
            rec.fail("setup", failure)
        self._drive(self.daemon, rec, None)
        return rec

    # -- traced run -------------------------------------------------------------

    def trace(self, log: SpanLog) -> tuple[Recorder, dict[str, float]]:
        untraced = Recorder()
        self._drive(self.daemon, untraced, None)
        self.daemon.stop()
        self.daemon = Daemon(self.root, self.workdir / "daemon-1")
        traced = Recorder()
        traced.failures.extend(untraced.failures)
        traced.run_failures = untraced.run_failures
        self._drive(self.daemon, traced, log)
        counters = traced.counters["daemon"]
        submits = [s.duration for s in log.spans if s.name == "service.daemon.submit"]
        waits = [s.duration for s in log.spans if s.name == "service.daemon.result"]
        metrics = {
            "service.daemon.submit_rtt_s": percentile(submits, 0.5),
            "service.daemon.result_wait_s": percentile(waits, 0.5),
            "trace.run_overhead": traced.loop_s / untraced.loop_s,
        }
        for name in ("cold", "store_hits", "patched", "coalesced", "rejected",
                     "failed", "timeouts"):
            metrics[f"service.daemon.{name}"] = counters.get(name, 0)
        metrics.update(self._replay(log, traced))
        return traced, metrics

    def _replay(self, log: SpanLog, rec: Recorder) -> dict[str, float]:
        """Repeat the daemon's server-side calls in-process, traced."""
        import repro.serialize
        from repro import api
        from repro.core.hose import clear_hose_cache, hose_cache_stats
        from repro.obs import profile_plan
        from repro.serialize import plan_to_dict
        from repro.service.replan import DeltaStats, apply_delta
        from repro.store import PlanStore, plan_key

        from wl_planner import plan_counts, span_totals, wrap_planner_layers

        region = self.regions[PROFILE_REGION]
        clear_hose_cache()
        start = time.perf_counter()
        api.plan(region)
        plain_s = time.perf_counter() - start
        clear_hose_cache()
        start = time.perf_counter()
        profile_plan(region)
        profile_s = time.perf_counter() - start

        wrap_planner_layers(log)
        store = PlanStore(self.workdir / "replay-store")
        plans: dict[str, Any] = {}
        totals: dict[str, float] = {}
        replan = {"reused": 0, "computed": 0, "checked": 0, "realization": 0}
        clear_hose_cache()
        try:
            for task in self.tasks:
                if task.kind == "coalesced":
                    continue
                region_index, target = task.label.split(":")
                base = self.regions[int(region_index)]
                delta = self.deltas.get(task.label)
                key = plan_key(
                    design="iris",
                    region=delta.apply_to_region(base) if delta else base,
                    config={"prune_enumeration": True, "validate": True},
                )
                with log.span(f"replay.{task.kind}", f"req-{task.index:03d}"):
                    if task.kind == "warm":
                        plan = repro.serialize.plan_from_dict(store.get(key))
                    elif task.kind == "cold":
                        plan = api.plan(base)
                    else:
                        stats = DeltaStats()
                        kind = {"add": "duct_added", "cut": "duct_cut",
                                "resize": "dc_resized"}[target]
                        with log.span(f"service.replan.{kind}"):
                            plan = apply_delta(plans[f"{region_index}:base"], delta,
                                               stats=stats)
                        replan["reused"] += stats.reused
                        replan["computed"] += stats.computed
                        replan["checked"] += stats.checked
                        replan["realization"] += stats.realization == "reused"
                    with log.span("serialize.encode"):
                        text = plan_text(plan)
                    if task.kind != "warm":
                        store.put(key, plan_to_dict(plan, full=True), kind="plan")
                plans[task.label] = plan
                if sha256_text(text) != self.pins["results"][task.label]:
                    rec.fail("replay", f"{task.label} differs from its digest")
                if task.kind == "cold":
                    counts = {**plan_counts(plan), "serialize.plan_bytes": len(text)}
                    for name, value in counts.items():
                        totals[name] = totals.get(name, 0) + value
        finally:
            log.restore()
        hose = hose_cache_stats()
        return {
            **totals,
            **span_totals(log),
            "core.hose.lookups": hose.lookups,
            "core.hose.hits": hose.hits,
            "core.hose.cold_solves": hose.cold_solves,
            "core.hose.incremental_solves": hose.incremental_solves,
            "core.plan.unattributed_s": sum(
                s.self_s for s in log.spans if s.name == "replay.cold"
            ),
            "store.hits": store.hits,
            "store.misses": store.misses,
            "store.blob_bytes": store.stats().total_bytes,
            "service.replan.scenarios_reused": replan["reused"],
            "service.replan.scenarios_computed": replan["computed"],
            "service.replan.bypass_checks": replan["checked"],
            "service.replan.realization_reused": replan["realization"],
            "obs.trace_overhead": profile_s / plain_s,
        }

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None
