"""repro.obs: zero-dependency structured observability (spans + counters).

The planner, execution engine, flow simulator, and control plane are
instrumented with hierarchical spans and named counters. Tracing is **off
by default** and the disabled fast path is a no-op singleton, so
instrumented hot paths cost one global read when nobody is watching.

Typical use::

    from repro import api, obs
    from repro.api import PlannerConfig

    with obs.tracing("my-run") as tracer:
        plan = api.plan(region, config=PlannerConfig(jobs=4))
    record = tracer.record()
    print(obs.render_tree(record))
    print(record.total("paths.scenarios"))

or, for the common case of profiling one planning run::

    result = obs.profile_plan(region, config=PlannerConfig(jobs=4))
    print(result.render())

Span records are plain picklable trees (:class:`SpanRecord`); counter
totals merge by summation, so shards recorded inside
:class:`~concurrent.futures.ProcessPoolExecutor` workers graft back into
the parent trace without changing any total. See :mod:`repro.obs.tracer`
for the span taxonomy contract and :mod:`repro.obs.exporters` for output
formats (human tree, JSON lines, CSV).
"""

from repro.obs.exporters import (
    PhaseRow,
    aggregate,
    record_from_dict,
    record_to_dict,
    render_tree,
    to_csv_rows,
    to_json_lines,
    write_trace_json,
)
from repro.obs.profile import ProfileResult, profile_plan
from repro.obs.tracer import (
    NULL_SPAN,
    ObsError,
    Span,
    SpanRecord,
    Tracer,
    attach,
    bucket_label,
    capture,
    current,
    enabled,
    incr,
    merge_counters,
    span,
    tracing,
)

__all__ = [
    "NULL_SPAN",
    "ObsError",
    "PhaseRow",
    "ProfileResult",
    "Span",
    "SpanRecord",
    "Tracer",
    "aggregate",
    "attach",
    "bucket_label",
    "capture",
    "current",
    "enabled",
    "incr",
    "merge_counters",
    "profile_plan",
    "record_from_dict",
    "record_to_dict",
    "render_tree",
    "span",
    "to_csv_rows",
    "to_json_lines",
    "tracing",
    "write_trace_json",
]
