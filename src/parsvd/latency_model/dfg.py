"""Dataflow graph of real scalar operations and its weighted critical path.

The graph is held as array columns and built in blocks of nodes, one
block per traced array operation (see ``trace``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


# a node's kind is stored as its index here
KINDS = OP_KINDS + ("input", "output")
# node ids: a trace below the explicit trace limit holds a few million nodes
ID = np.int32


@dataclass(eq=False)
class Dfg:
    """Append-only DAG of real scalar operations, held as columns.

    Entry i of every node column describes node i, so a node's id is its
    index. ``kinds`` holds each node's kind as an index into KINDS;
    ``deps`` its operand ids, an (n, 2) array in operand order padded with
    -1 (a node has at most two operands, each with a smaller id; the same
    operand may appear twice); ``overlapped`` whether the timing model
    hides the node behind other work (it keeps its place in the census but
    adds zero weight to any path). The nodes come in blocks: ``blocks``
    holds the first id of each and ``labels`` the schedule label of its
    nodes. A traced graph has no node that reads its own block;
    critical_path relaxes a block that does node by node.
    """

    kinds: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int8))
    deps: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=ID))
    overlapped: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    blocks: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    labels: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.kinds)

    def _block_sizes(self) -> np.ndarray:
        return np.diff(self.blocks, append=len(self))

    def census(self, label_filter=None) -> OpCount:
        """Count arithmetic nodes, optionally restricted by label predicate
        (called once per block)."""
        kinds = self.kinds
        if label_filter is not None:
            keep = np.array([bool(label_filter(lab)) for lab in self.labels], dtype=bool)
            kinds = kinds[np.repeat(keep, self._block_sizes())]
        counts = np.bincount(kinds, minlength=len(KINDS))
        return OpCount(*(int(c) for c in counts[: len(OP_KINDS)]))

    def nodes(self):
        """(kind, operand ids, overlapped, label) of each node, in id order."""
        block = np.repeat(np.arange(len(self.labels)), self._block_sizes())
        for kind, deps, over, b in zip(
            self.kinds.tolist(), self.deps.tolist(), self.overlapped.tolist(), block.tolist()
        ):
            yield KINDS[kind], tuple(d for d in deps if d >= 0), over, self.labels[b]

    def export_edges(self) -> str:
        """Edge-list text: one line per node, `id kind dep1,dep2,...`."""
        lines = [
            f"{i} {kind} {','.join(map(str, deps))}"
            for i, (kind, deps, _, _) in enumerate(self.nodes())
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


def _runs(dfg: Dfg, latest: np.ndarray) -> list:
    """Start ids of maximal runs of consecutive blocks whose operands all
    lie before the run's first node, so that each run relaxes in one pass.
    ``latest`` is each node's largest operand id. Raises on an operand
    that does not come before the node that reads it."""
    n = len(dfg)
    starts = dfg.blocks if len(dfg.blocks) else np.zeros(1, dtype=np.int64)
    ends = np.append(starts[1:], n)
    inner = np.maximum.reduceat(latest, starts) >= starts
    split = []
    for s, e in zip(starts[inner].tolist(), ends[inner].tolist()):
        # a block whose nodes read each other relaxes node by node
        bad = latest[s:e] >= np.arange(s, e)
        if bad.any():
            i = s + int(np.argmax(bad))
            d = dfg.deps[i, 0] if dfg.deps[i, 0] >= i else dfg.deps[i, 1]
            raise ParsvdError(f"dfg inconsistency: node {i} depends on {d} (cycle)")
        split.append(np.arange(s, e))
    if split:
        starts = np.union1d(starts, np.concatenate(split))
    runs = []
    run = -1
    for s, m in zip(starts.tolist(), np.maximum.reduceat(latest, starts).tolist()):
        if m >= run:
            run = s
            runs.append(s)
    return runs


def critical_path(dfg: Dfg, profile: HardwareProfile) -> LatencyEstimate:
    """Longest weighted path through the graph.

    Input, output, and overlapped nodes weigh zero. A node's distance is
    its weight plus the largest distance among its operands (zero if it
    has none). The path ends at the smallest id of the largest distance
    and runs back through each node's first operand, in operand order, of
    the largest distance, so the result is deterministic. Distances
    are relaxed one run of blocks at a time: no node of a run reads
    another, so one array pass per run gives what a node-by-node pass
    gives.
    """
    n = len(dfg)
    if n == 0:
        return LatencyEstimate(ns=0.0, normalized_adders=0.0, critical_path=OpCount())
    first, second = dfg.deps[:, 0], dfg.deps[:, 1]
    bounds = _runs(dfg, np.maximum(first, second)) + [n]
    lat = np.array([profile.latency_ns[k] for k in OP_KINDS] + [0.0] * (len(KINDS) - len(OP_KINDS)))
    # each node's weight, to which its largest operand distance is added;
    # dist[n] stays zero: the -1 padding of ``deps`` reads it
    dist = np.zeros(n + 1)
    np.take(lat, dfg.kinds, out=dist[:n])
    dist[:n][dfg.overlapped] = 0.0
    for s, e in zip(bounds, bounds[1:]):
        if e - s == 1:
            dist[s] += max(dist[first[s]], dist[second[s]])
        else:
            dist[s:e] += np.maximum(dist[first[s:e]], dist[second[s:e]])
    counts = [0] * len(KINDS)
    i = int(np.argmax(dist[:n]))
    while i != -1:
        if not dfg.overlapped[i]:
            counts[dfg.kinds[i]] += 1
        # the first operand of the largest distance; past a distance of
        # zero only unweighted nodes remain, which the count skips
        a, b = first[i], second[i]
        i = b if dist[b] > dist[a] else a
    return LatencyEstimate.from_path_counts(OpCount(*counts[: len(OP_KINDS)]), profile)
