"""Device coupling topologies.

Provides the topologies used in the paper's evaluation: all-to-all
(logical-level compilation), and the IBM heavy-hex lattice (the 64-qubit
Manhattan-style coupling graph used for hardware-aware compilation), plus
line and grid topologies for tests and examples.

:func:`resolve_topology` / :func:`topology_to_spec` translate between
topologies and the textual specs (``"heavy-hex"``, ``"grid-4x4"``, ...)
that compile options carry as plain data.
"""

from __future__ import annotations

import functools
import hashlib
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

#: Shared all-pairs-distance cache, keyed by topology content fingerprint so
#: that equal topologies built independently (e.g. one heavy-hex lattice per
#: benchmark run) share a single computation.  Keying by *content* rather
#: than identity makes the cache invalidation-safe: mutating a topology's
#: graph changes its fingerprint, so stale matrices can never be returned.
_DISTANCE_CACHE: Dict[str, np.ndarray] = {}
_DISTANCE_CACHE_MAX_ENTRIES = 64


class Topology:
    """An undirected coupling graph over physical qubits 0..n-1."""

    def __init__(self, num_qubits: int, edges: Iterable[Tuple[int, int]], name: str = "custom"):
        self.num_qubits = int(num_qubits)
        self.name = name
        self.graph = nx.Graph()
        self.graph.add_nodes_from(range(self.num_qubits))
        for a, b in edges:
            if a == b:
                raise ValueError("self-loop edges are not allowed")
            if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise ValueError(f"edge ({a}, {b}) out of range for {self.num_qubits} qubits")
            self.graph.add_edge(int(a), int(b))
        self._distances: Optional[np.ndarray] = None
        self._distances_key: Optional[str] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def line(cls, num_qubits: int) -> "Topology":
        return cls(num_qubits, [(i, i + 1) for i in range(num_qubits - 1)], name=f"line-{num_qubits}")

    @classmethod
    def ring(cls, num_qubits: int) -> "Topology":
        edges = [(i, (i + 1) % num_qubits) for i in range(num_qubits)]
        return cls(num_qubits, edges, name=f"ring-{num_qubits}")

    @classmethod
    def grid(cls, rows: int, cols: int) -> "Topology":
        edges = []
        for r in range(rows):
            for c in range(cols):
                node = r * cols + c
                if c + 1 < cols:
                    edges.append((node, node + 1))
                if r + 1 < rows:
                    edges.append((node, node + cols))
        return cls(rows * cols, edges, name=f"grid-{rows}x{cols}")

    @classmethod
    def heavy_hex(cls, row_lengths: Sequence[int] = (10, 11, 11, 11, 10)) -> "Topology":
        """An IBM-style heavy-hex lattice.

        Qubits are laid out as horizontal rows (chains) connected by bridge
        qubits every four columns, with the bridge columns offset by two
        between successive row gaps.  The default row lengths reproduce a
        64-qubit Manhattan-style coupling graph (the device used for the
        paper's hardware-aware evaluation).
        """
        row_start: List[int] = []
        edges: List[Tuple[int, int]] = []
        next_index = 0
        # Row qubits and intra-row edges.
        for length in row_lengths:
            row_start.append(next_index)
            for offset in range(length - 1):
                edges.append((next_index + offset, next_index + offset + 1))
            next_index += length
        # Bridge qubits between consecutive rows.
        for gap in range(len(row_lengths) - 1):
            columns = range(0, max(row_lengths), 4) if gap % 2 == 0 else range(2, max(row_lengths), 4)
            for column in columns:
                if column >= row_lengths[gap] or column >= row_lengths[gap + 1]:
                    continue
                bridge = next_index
                next_index += 1
                top = row_start[gap] + column
                bottom = row_start[gap + 1] + column
                edges.append((top, bridge))
                edges.append((bridge, bottom))
        return cls(next_index, edges, name=f"heavy-hex-{next_index}")

    @classmethod
    def ibm_manhattan(cls) -> "Topology":
        """The 64-qubit heavy-hex coupling graph used in the paper (Fig. 6)."""
        return cls.heavy_hex((10, 11, 11, 11, 10))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_all_to_all(self) -> bool:
        n = self.num_qubits
        return self.graph.number_of_edges() == n * (n - 1) // 2

    def are_connected(self, a: int, b: int) -> bool:
        return self.graph.has_edge(a, b)

    def neighbors(self, qubit: int) -> List[int]:
        return sorted(self.graph.neighbors(qubit))

    def edges(self) -> List[Tuple[int, int]]:
        return [(min(a, b), max(a, b)) for a, b in self.graph.edges()]

    def degree(self, qubit: int) -> int:
        return self.graph.degree(qubit)

    def fingerprint(self) -> str:
        """Content digest of the coupling graph (qubit count + edge set)."""
        hasher = hashlib.sha256()
        hasher.update(b"repro-topology-v1")
        hasher.update(self.num_qubits.to_bytes(8, "little"))
        for a, b in sorted(self.edges()):
            hasher.update(a.to_bytes(4, "little"))
            hasher.update(b.to_bytes(4, "little"))
        return hasher.hexdigest()

    def distance_matrix(self) -> np.ndarray:
        """All-pairs shortest-path distances (hops); unreachable pairs are inf.

        Memoized across instances in a content-addressed cache: the key is
        :meth:`fingerprint`, so mutations of :attr:`graph` are picked up on
        the next call and equal topologies never recompute.  The returned
        matrix is marked read-only because it may be shared.
        """
        key = self.fingerprint()
        if self._distances_key == key and self._distances is not None:
            return self._distances
        cached = _DISTANCE_CACHE.get(key)
        if cached is None:
            n = self.num_qubits
            dist = np.full((n, n), np.inf)
            lengths = dict(nx.all_pairs_shortest_path_length(self.graph))
            for a, targets in lengths.items():
                for b, d in targets.items():
                    dist[a, b] = d
            dist.setflags(write=False)
            if len(_DISTANCE_CACHE) >= _DISTANCE_CACHE_MAX_ENTRIES:
                _DISTANCE_CACHE.pop(next(iter(_DISTANCE_CACHE)))
            _DISTANCE_CACHE[key] = dist
            cached = dist
        self._distances = cached
        self._distances_key = key
        return cached

    def __repr__(self) -> str:
        return (
            f"Topology(name={self.name!r}, num_qubits={self.num_qubits}, "
            f"edges={self.graph.number_of_edges()})"
        )


# ----------------------------------------------------------------------
# Textual topology specs
# ----------------------------------------------------------------------
def _canonical_spec(spec: str) -> str:
    """The canonical spelling of a topology spec; raises on an unknown one."""
    if spec in ("heavy-hex", "manhattan"):
        return "heavy-hex"
    match = re.fullmatch(r"(line|ring)-(\d+)", spec)
    if match:
        return f"{match.group(1)}-{int(match.group(2))}"
    match = re.fullmatch(r"grid-(\d+)x(\d+)", spec)
    if match:
        return f"grid-{int(match.group(1))}x{int(match.group(2))}"
    raise ValueError(
        f"unknown topology spec {spec!r}; expected 'all-to-all', 'heavy-hex', "
        f"'manhattan', 'line-N', 'ring-N', or 'grid-RxC'"
    )


@functools.lru_cache(maxsize=_DISTANCE_CACHE_MAX_ENTRIES)
def _build_spec(canonical: str) -> Topology:
    if canonical == "heavy-hex":
        return Topology.ibm_manhattan()
    kind, _, size = canonical.partition("-")
    if kind == "grid":
        rows, _, cols = size.partition("x")
        return Topology.grid(int(rows), int(cols))
    return (Topology.line if kind == "line" else Topology.ring)(int(size))


def resolve_topology(spec: Optional[str]) -> Optional[Topology]:
    """Build a topology from a textual spec.

    Accepted specs: ``None`` / ``"all-to-all"`` (logical-level compilation),
    ``"line-N"``, ``"ring-N"``, ``"grid-RxC"``, ``"heavy-hex"`` and its alias
    ``"manhattan"`` (the paper's 64-qubit device).  Resolution is memoised
    (up to 64 specs): every spelling of one spec returns the *same*
    instance, so options built from equal plain data compare and hash
    equal (treat it as read-only).
    """
    if spec is None or spec == "all-to-all":
        return None
    return _build_spec(_canonical_spec(spec))


def topology_to_spec(topology: Optional[Topology]) -> Optional[str]:
    """The canonical spec string that rebuilds ``topology`` (``None`` for none).

    Raises ``ValueError`` for a topology no spec reproduces (callers that
    cannot ship such a topology as plain data should fall back to
    in-process compilation).  A topology that came from
    :func:`resolve_topology` is recognised by identity, without hashing.
    """
    if topology is None:
        return None
    candidate = "heavy-hex" if topology.name.startswith("heavy-hex") else topology.name
    try:
        resolved = resolve_topology(candidate)
    except ValueError:
        resolved = None
    if resolved is not None and (
        resolved is topology or resolved.fingerprint() == topology.fingerprint()
    ):
        return _canonical_spec(candidate)
    raise ValueError(f"topology {topology!r} matches no registered spec")
