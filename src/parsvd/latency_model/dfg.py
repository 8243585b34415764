"""Dataflow graph of real scalar operations and its weighted critical path."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..errors import ParsvdError
from .profiles import OP_KINDS, HardwareProfile


@dataclass(frozen=True)
class OpCount:
    """Real-operation counts, additive component-wise."""

    add: int = 0
    mul: int = 0
    div: int = 0
    sqrt: int = 0

    def __add__(self, other: "OpCount") -> "OpCount":
        return OpCount(
            add=self.add + other.add,
            mul=self.mul + other.mul,
            div=self.div + other.div,
            sqrt=self.sqrt + other.sqrt,
        )

    def scaled(self, n: int) -> "OpCount":
        return OpCount(add=self.add * n, mul=self.mul * n, div=self.div * n, sqrt=self.sqrt * n)

    def total(self) -> int:
        return self.add + self.mul + self.div + self.sqrt

    def _weighted(self, w: dict):
        return self.add * w["add"] + self.mul * w["mul"] + self.div * w["div"] + self.sqrt * w["sqrt"]

    def ns(self, profile: HardwareProfile) -> float:
        return self._weighted(profile.latency_ns)

    def lut_weighted(self, profile: HardwareProfile) -> int:
        return self._weighted(profile.lut)


@dataclass
class Dfg:
    """Append-only DAG of real scalar operations, held as four columns.

    Entry i of every column describes node i, so a node's id is its
    index. ``kinds`` holds an operation of OP_KINDS, "input" or "output";
    ``deps`` the ids of the node's operands, each smaller than its own;
    ``overlapped`` whether the timing model hides the node behind other
    work (it keeps its place in the census but adds zero weight to any
    path); ``labels`` the schedule label the node was traced under.
    """

    kinds: list = field(default_factory=list)
    deps: list = field(default_factory=list)
    overlapped: list = field(default_factory=list)
    labels: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.kinds)

    def census(self, label_filter=None) -> OpCount:
        """Count arithmetic nodes, optionally restricted by label predicate."""
        kinds = self.kinds
        if label_filter is not None:
            kinds = [k for k, lab in zip(kinds, self.labels) if k in OP_KINDS and label_filter(lab)]
        counts = Counter(kinds)
        return OpCount(**{k: counts[k] for k in OP_KINDS})

    def export_edges(self) -> str:
        """Edge-list text: one line per node, `id kind dep1,dep2,...`."""
        lines = [
            f"{i} {kind} {','.join(map(str, deps))}"
            for i, (kind, deps) in enumerate(zip(self.kinds, self.deps))
        ]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class LatencyEstimate:
    """Weighted critical path: total ns, adder-normalized value, and the
    op multiset found along the path."""

    ns: float
    normalized_adders: float
    critical_path: OpCount

    @classmethod
    def from_path_counts(cls, path: OpCount, profile: HardwareProfile) -> "LatencyEstimate":
        ns = path.ns(profile)
        return cls(ns=ns, normalized_adders=ns / profile.latency_ns["add"], critical_path=path)


def critical_path(dfg: Dfg, profile: HardwareProfile) -> LatencyEstimate:
    """Longest weighted path through the graph.

    Input, output, and overlapped nodes weigh zero. Ties are broken toward
    the smallest node id, both for the path terminal and for each
    predecessor choice, so the result is deterministic.
    """
    n = len(dfg)
    if n == 0:
        return LatencyEstimate(ns=0.0, normalized_adders=0.0, critical_path=OpCount())
    lat = profile.latency_ns
    dist = [0.0] * n
    pred = [-1] * n
    for i, (kind, deps, over) in enumerate(zip(dfg.kinds, dfg.deps, dfg.overlapped)):
        best = 0.0
        best_pred = -1
        for d in deps:
            if d >= i:
                raise ParsvdError(f"dfg inconsistency: node {i} depends on {d} (cycle)")
            if dist[d] > best:
                best = dist[d]
                best_pred = d
        dist[i] = best + (0.0 if over else lat.get(kind, 0.0))
        pred[i] = best_pred
    end = max(range(n), key=dist.__getitem__)
    counts = dict.fromkeys(OP_KINDS, 0)
    i = end
    while i != -1:
        if dfg.kinds[i] in counts and not dfg.overlapped[i]:
            counts[dfg.kinds[i]] += 1
        i = pred[i]
    return LatencyEstimate.from_path_counts(OpCount(**counts), profile)
