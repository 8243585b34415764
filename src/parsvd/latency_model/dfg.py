"""Dataflow graph of real scalar operations and its weighted critical path."""

from __future__ import annotations

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


@dataclass(frozen=True)
class DfgNode:
    """One node: an arithmetic op, an input value, or an output marker.

    ``overlapped`` marks operations that the timing model treats as hidden
    behind other work (they keep their place in the census but contribute
    zero weight to any path).
    """

    id: int
    kind: str
    deps: tuple
    overlapped: bool = False


@dataclass
class Dfg:
    """Append-only DAG; node ids are their topological order."""

    nodes: list = field(default_factory=list)
    labels: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.nodes)

    def validate(self):
        for node in self.nodes:
            for d in node.deps:
                if d >= node.id:
                    raise ParsvdError(
                        f"dfg inconsistency: node {node.id} depends on {d} (cycle)"
                    )

    def census(self, label_filter=None) -> OpCount:
        """Count arithmetic nodes, optionally restricted by label predicate."""
        counts = {k: 0 for k in OP_KINDS}
        for node, label in zip(self.nodes, self.labels):
            if node.kind not in counts:
                continue
            if label_filter is not None and not label_filter(label):
                continue
            counts[node.kind] += 1
        return OpCount(**counts)

    def export_edges(self) -> str:
        """Edge-list text: one line per node, `id kind dep1,dep2,...`."""
        lines = []
        for node in self.nodes:
            deps = ",".join(str(d) for d in node.deps)
            lines.append(f"{node.id} {node.kind} {deps}")
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
    dfg.validate()
    n = len(dfg.nodes)
    if n == 0:
        return LatencyEstimate(ns=0.0, normalized_adders=0.0, critical_path=OpCount())
    lat = profile.latency_ns
    dist = [0.0] * n
    pred = [-1] * n
    for node in dfg.nodes:
        best = 0.0
        best_pred = -1
        for d in node.deps:
            if dist[d] > best:
                best = dist[d]
                best_pred = d
        w = 0.0
        if node.kind in lat and not node.overlapped:
            w = lat[node.kind]
        dist[node.id] = best + w
        pred[node.id] = best_pred
    end = 0
    for i in range(1, n):
        if dist[i] > dist[end]:
            end = i
    counts = {k: 0 for k in OP_KINDS}
    i = end
    while i != -1:
        node = dfg.nodes[i]
        if node.kind in counts and not node.overlapped:
            counts[node.kind] += 1
        i = pred[i]
    path = OpCount(**counts)
    return LatencyEstimate.from_path_counts(path, profile)
