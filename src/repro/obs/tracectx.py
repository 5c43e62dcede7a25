"""Trace identity: the id a run propagates across its processes.

:func:`new_trace_id` mints the id a run propagates: the CLI stamps it
into the :class:`~repro.runtime.parallel.WorkerSpec`, workers stamp it
into every span they record, and the merged trace carries it as
document metadata — one id links the report, the ledger record, the
event stream, and the trace.  Fork workers inherit the parent's ``perf_counter`` epoch, so
every shard already shares one timeline.
"""

from __future__ import annotations

import os


def new_trace_id() -> str:
    """A 128-bit run-scoped trace id (hex, W3C traceparent sized)."""
    return os.urandom(16).hex()
