"""Timing, memory and output-check helpers shared by the workloads."""

from __future__ import annotations

import gc
import hashlib
import os
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager

#: Per-layer metrics every traced run reports, with their units. A layer
#: that a workload does not exercise reports 0. service-mix adds the
#: daemon's own metrics (see ``wl_service.DAEMON_UNITS``).
PER_LAYER_UNITS: dict[str, str] = {
    "core.topology.enumerate_s": "s",
    "core.topology.capacity_s": "s",
    "core.topology.scenarios": "count",
    "core.topology.scenarios_raw": "count",
    "core.topology.path_keys": "count",
    "core.topology.distinct_paths": "count",
    "core.hose.lookups": "count",
    "core.hose.hits": "count",
    "core.hose.cold_solves": "count",
    "core.hose.incremental_solves": "count",
    "core.amplifiers.s": "s",
    "core.amplifiers.sites": "count",
    "core.cutthrough.s": "s",
    "core.cutthrough.links": "count",
    "core.plan.validate_s": "s",
    "core.plan.effective_paths": "count",
    "core.plan.unattributed_s": "s",
    "serialize.decode_s": "s",
    "serialize.encode_s": "s",
    "serialize.plan_bytes": "bytes",
    "store.get_s": "s",
    "store.put_s": "s",
    "store.hits": "count",
    "store.misses": "count",
    "store.blob_bytes": "bytes",
    "service.replan.duct_added_s": "s",
    "service.replan.duct_cut_s": "s",
    "service.replan.dc_resized_s": "s",
    "service.replan.scenarios_reused": "count",
    "service.replan.scenarios_computed": "count",
    "service.replan.bypass_checks": "count",
    "service.replan.realization_reused": "count",
    "lint.parse_s": "s",
    "lint.flow_s": "s",
    "lint.syntax_s": "s",
    "lint.summaries_s": "s",
    "lint.concurrency_s": "s",
    "lint.project_s": "s",
    "lint.cache_hits": "count",
    "lint.cache_misses": "count",
    "obs.trace_overhead": "ratio",
    "trace.run_overhead": "ratio",
}


#: Iterations of the reference kernel: about 80 ms on a 2-CPU host.
REFERENCE_LOOPS = 1_000_000


def reference_s() -> float:
    """Wall time of one run of the reference kernel.

    The kernel is fixed arithmetic in this file, so no change to the
    repository can make it faster or slower; its time tracks only how fast
    the host is running right now. Timed next to each operation, it lets
    a run report the operation's cost in units of the kernel, which a
    shared host's minute-to-minute speed drift does not move.
    """
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


class CheckFailed(Exception):
    """An operation's output did not match its recorded digest."""


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def plan_text(plan: Any) -> str:
    """The plan's full encoding as canonical compact JSON: the content of
    ``plan_to_json(plan, full=True)`` and of the service's result text."""
    import json

    from repro.serialize import plan_to_dict

    return json.dumps(plan_to_dict(plan, full=True), sort_keys=True,
                      separators=(",", ":"))


def plan_digest(plan: Any) -> str:
    return sha256_text(plan_text(plan))


def expect(actual: Any, wanted: Any, what: str) -> None:
    if actual != wanted:
        raise CheckFailed(f"{what}: got {actual!r}, want {wanted!r}")


def _status_kb(pid: int | str, field_name: str) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field_name + ":"):
                return float(line.split()[1])
    raise OSError(f"{field_name} missing from /proc/{pid}/status")


def peak_rss_mb(pid: int | str = "self") -> float:
    """The process's resident-set high-water mark, in MiB."""
    return _status_kb(pid, "VmHWM") / 1024.0


def reset_peak_rss() -> None:
    """Restart this process's high-water mark from its current RSS."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
            refs.write("5")
    except OSError:
        pass  # kernels without clear_refs report the whole-process peak


@dataclass
class Op:
    kind: str
    seconds: float
    ok: bool
    #: Mean reference-kernel time just before and just after the operation.
    ref_s: float = 0.0

    @property
    def refs(self) -> float:
        """The operation's time in units of the reference kernel."""
        return self.seconds / self.ref_s


@dataclass
class Recorder:
    """Collects timed operations, failures and work counters of one run."""

    ops: list[Op] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    peak_mb: float = 0.0
    counters: dict[str, Any] = field(default_factory=dict)
    #: Wall time and per-request latencies of a request loop (service-mix).
    loop_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    run_failures: int = 0

    def timed(
        self,
        kind: str,
        fn: Callable[[], Any],
        check: Callable[[Any], None] | None = None,
        span: Callable[[], ContextManager[Any]] = nullcontext,
    ) -> Any:
        """Run ``fn`` as one timed operation, then ``check`` its output.

        The collector runs before the clock starts, never inside it; the
        reference kernel runs just before and just after. An exception or
        a failed check marks the operation failed. ``span`` opens a trace
        span around ``fn`` alone, not around the check.
        """
        gc.collect()
        before = reference_s()
        reset_peak_rss()
        start = time.perf_counter()
        try:
            with span():
                result = fn()
        except Exception:  # any error is a failed operation, not a crash
            seconds = time.perf_counter() - start
            self.fail(kind, traceback.format_exc(limit=3), op=True)
            self.ops.append(Op(kind, seconds, False, (before + reference_s()) / 2))
            return None
        seconds = time.perf_counter() - start
        self.peak_mb = max(self.peak_mb, peak_rss_mb())
        ref_s = (before + reference_s()) / 2
        ok = self.check(kind, check, result)
        self.ops.append(Op(kind, seconds, ok, ref_s))
        return result

    def check(
        self, kind: str, check: Callable[[Any], None] | None, result: Any
    ) -> bool:
        if check is None:
            return True
        try:
            check(result)
        except CheckFailed as exc:
            self.fail(kind, str(exc), op=True)
            return False
        return True

    def fail(self, kind: str, why: str, op: bool = False) -> None:
        """Record a failure; ``op=False`` for one no operation carries
        (set-up, a determinism check), which still counts as failed."""
        self.failures.append(f"{kind}: {why.strip()}")
        if not op:
            self.run_failures += 1

    def of(self, kind: str) -> list[float]:
        return [op.seconds for op in self.ops if op.kind == kind]


def rounds_for(seconds: float, round_s: float) -> int:
    """How many fixed rounds fill ``seconds`` (always at least one)."""
    return max(1, round(seconds / round_s))


def workdir(root: Path, label: str) -> Path:
    path = root / ".perfbench" / f"{label}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path
