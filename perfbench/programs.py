"""Seeded program sets for the benchmark workloads, as manifest-entry dicts.

Every program is a ``repro.workloads`` spec string whose ``seed`` parameter
derives from the run's ``--seed``.  The *shape* of each set (families,
qubit counts, term counts, compilers, topologies, ISAs) is fixed per
workload and only the content is drawn from the seed: UCCSD amplitudes,
random k-local supports, lattice disorder, and QAOA graphs.  That keeps
the cost of a run nearly independent of the seed, so runs with different
seeds measure the same thing, while the inputs still vary between runs.

Each compile set is listed cheapest first, and its costs rise in small
steps with no large gap near the middle or the top, so a latency
percentile over the programs does not jump between two programs of very
different cost when one of them gets faster.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

Entry = Dict[str, Any]


def _seeds(seed: int, salt: str, count: int) -> List[int]:
    """``count`` program seeds derived from the run seed and a set name."""
    rng = random.Random(f"{salt}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


def logical_entries(seed: int) -> List[Entry]:
    """PHOENIX at the logical level (all-to-all, CNOT ISA): UCCSD + k-local."""
    s = _seeds(seed, "compile-logical", 8)
    return [
        {"name": "kpauli-14q-48", "workload": f"kpauli:n=14,k=3,num_terms=48,seed={s[0]}"},
        {"name": "kpauli-14q-64", "workload": f"kpauli:n=14,k=3,num_terms=64,seed={s[1]}"},
        {"name": "kpauli-16q-48", "workload": f"kpauli:n=16,k=4,num_terms=48,seed={s[2]}"},
        {"name": "kpauli-16q-80", "workload": f"kpauli:n=16,k=4,num_terms=80,seed={s[3]}"},
        {"name": "uccsd-10q-jw", "workload": f"uccsd:electrons=2,orbitals=10,encoding=jw,seed={s[4]}"},
        {"name": "uccsd-10q-bk", "workload": f"uccsd:electrons=2,orbitals=10,encoding=bk,seed={s[5]}"},
        {"name": "uccsd-12q-jw", "workload": f"uccsd:electrons=2,orbitals=12,encoding=jw,seed={s[6]}"},
        {"name": "uccsd-12q-bk", "workload": f"uccsd:electrons=2,orbitals=12,encoding=bk,seed={s[7]}"},
    ]


def hardware_entries(seed: int) -> List[Entry]:
    """Baselines on UCCSD-10q plus PHOENIX on lattices and QAOA, on devices."""
    s = _seeds(seed, "compile-hardware", 9)
    uccsd = "uccsd:electrons=2,orbitals=10,encoding=jw,seed={}"
    return [
        {"name": "maxcut-reg3-12-hh", "topology": "heavy-hex",
         "workload": f"maxcut:n=12,graph=reg3,seed={s[0]}"},
        {"name": "heisenberg-3x3-grid", "topology": "grid-4x4",
         "workload": f"heisenberg:lattice=grid,n=9,rows=3,cols=3,seed={s[1]}"},
        {"name": "maxcut-reg3-14-grid-su4", "topology": "grid-4x4", "isa": "su4",
         "workload": f"maxcut:n=14,graph=reg3,seed={s[2]}"},
        {"name": "heisenberg-3x4-hh", "topology": "heavy-hex",
         "workload": f"heisenberg:lattice=grid,n=12,rows=3,cols=4,seed={s[3]}"},
        {"name": "tfim-4x4-hh-su4", "topology": "heavy-hex", "isa": "su4",
         "workload": f"tfim:lattice=grid,n=16,rows=4,cols=4,seed={s[4]}"},
        {"name": "xxz-4x4-grid-su4", "topology": "grid-4x4", "isa": "su4",
         "workload": f"xxz:lattice=grid,n=16,rows=4,cols=4,seed={s[5]}"},
        {"name": "tket-uccsd-10q-hh", "workload": uccsd.format(s[6]),
         "compiler": "tket", "topology": "heavy-hex"},
        {"name": "paulihedral-uccsd-10q-grid", "workload": uccsd.format(s[7]),
         "compiler": "paulihedral", "topology": "grid-4x4"},
        {"name": "tetris-uccsd-10q-hh", "workload": uccsd.format(s[8]),
         "compiler": "tetris", "topology": "heavy-hex"},
    ]
