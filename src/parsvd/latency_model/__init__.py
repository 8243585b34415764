"""Hardware-profiled time and computational complexity model.

Builds dataflow graphs from instrumented solver schedules, expands complex
arithmetic into real operations, and evaluates profile-weighted critical
paths; closed-form mirrors cover sizes beyond the explicit trace limit.
"""

from .analytic import ALGORITHMS, analytic_latency, total_ops
from .dfg import Dfg, DfgNode, LatencyEstimate, OpCount, critical_path
from .profiles import BUILTIN_PROFILES, OP_KINDS, HardwareProfile, load_profile
from .table_counts import ceil_log2, householder_step_counts
from .trace import EXPLICIT_TRACE_LIMIT, TraceBuilder, trace_run

__all__ = [
    "ALGORITHMS",
    "BUILTIN_PROFILES",
    "Dfg",
    "DfgNode",
    "EXPLICIT_TRACE_LIMIT",
    "HardwareProfile",
    "LatencyEstimate",
    "OpCount",
    "OP_KINDS",
    "TraceBuilder",
    "analytic_latency",
    "ceil_log2",
    "critical_path",
    "householder_step_counts",
    "load_profile",
    "total_ops",
    "trace_run",
]

