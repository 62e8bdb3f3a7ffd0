"""Cache-aside over a :class:`~repro.store.cas.PlanStore`.

Every planning product the repo checkpoints (iris and robust plans, EPS
topologies, sweep cells, the planner service's results) is read back
through :func:`load` and computed-then-stored through :func:`cached`.
A payload that no longer decodes is a miss, and the put after the
recompute heals it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, TypeVar

from repro.exceptions import ReproError

if TYPE_CHECKING:
    from repro.store.cas import PlanStore

T = TypeVar("T")


def load(
    store: "PlanStore", key: str, decode: Callable[[dict[str, Any]], Any] | None = None
) -> Any:
    """The decoded artifact stored under ``key``; ``None`` on a miss.

    ``decode`` defaults to :func:`repro.serialize.plan_from_dict`, looked
    up on every call. A payload that raises :class:`ReproError` while
    decoding (schema drift inside one store schema version) counts as a
    miss.
    """
    payload = store.get(key)
    if payload is None:
        return None
    if decode is None:
        from repro.serialize import plan_from_dict as decode
    try:
        return decode(payload)
    except ReproError:
        return None


def cached(
    store: "PlanStore",
    key: str,
    compute: Callable[[], T],
    *,
    kind: str = "plan",
    encode: Callable[[T], dict[str, Any]] | None = None,
    decode: Callable[[dict[str, Any]], T] | None = None,
) -> T:
    """``compute()``, answered from ``store`` when ``key`` holds it.

    On a miss the fresh value is stored under ``key`` as ``kind``.
    ``encode``/``decode`` default to the full plan encoding
    (:func:`repro.serialize.plan_to_dict` with ``full=True`` and
    :func:`repro.serialize.plan_from_dict`).
    """
    value = load(store, key, decode)
    if value is None:
        value = compute()
        if encode is None:
            from repro.serialize import plan_to_dict

            payload = plan_to_dict(value, full=True)
        else:
            payload = encode(value)
        store.put(key, payload, kind=kind)
    return value
