"""Resource-cost ledgers for the entangling protocol and the per-qubit GHZ
baseline, plus the crossover table comparing the two."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .resources import NetworkShape, _integral


class Method(enum.Enum):
    ENTANGLING = "entangling"
    GHZ_BASELINE = "ghz_baseline"


@dataclass(frozen=True)
class ResourceReport:
    """Counted resources for one method on one network shape.

    ``classical_bits_per_agent`` has one entry per receiver (the baseline
    sends each receiver as many bits as it has message qubits).
    """

    method: Method
    aux_qubits: int
    qubits_per_agent: int
    hadamards_per_agent: int
    measurements_per_agent: int
    classical_bits_per_agent: tuple[int, ...]
    bell_measurements: int


def account(method: Method, shape: NetworkShape) -> ResourceReport:
    """Auxiliary-qubit, per-agent operation, and classical-bit counts.

    Message qubits themselves are excluded from ``aux_qubits`` for both
    methods.  An agent holds one qubit per GHZ state it shares and applies one
    Hadamard and one measurement to each, so one per-agent count gives all three.
    """
    total = shape.total_messages
    n = shape.num_agents
    if method is Method.ENTANGLING:
        aux, per_agent, bits = 2 * total + n + 1, 1, tuple(1 for _ in shape.message_counts)
    elif method is Method.GHZ_BASELINE:
        aux, per_agent, bits = total * (n + 2), total, tuple(shape.message_counts)
    else:
        raise ValueError(f"unknown method {method!r}")
    return ResourceReport(method, aux, per_agent, per_agent, per_agent, bits, total)


@dataclass(frozen=True)
class CrossoverRow:
    m: int
    aux_entangling: int
    aux_baseline: int
    ops_per_agent_entangling: int
    ops_per_agent_baseline: int
    aux_equal: bool
    aux_advantage: bool
    ops_advantage: bool

    @property
    def dominates(self) -> bool:
        """Strictly fewer auxiliary qubits and fewer per-agent operations."""
        return self.aux_advantage and self.ops_advantage


@dataclass(frozen=True)
class CrossoverTable:
    num_agents: int
    rows: tuple[CrossoverRow, ...]

    @property
    def first_dominating_m(self) -> int | None:
        for row in self.rows:
            if row.dominates:
                return row.m
        return None


def crossover_table(num_agents: int, m_range: Sequence[int]) -> CrossoverTable:
    """Compare both methods over a range of message counts (k = 1)."""
    ms = sorted(set(_integral(m, "m") for m in m_range))
    if not ms:
        raise ValueError("m_range must be nonempty")
    rows = []
    for m in ms:
        shape = NetworkShape.single(m, num_agents)
        new = account(Method.ENTANGLING, shape)
        old = account(Method.GHZ_BASELINE, shape)
        rows.append(CrossoverRow(
            m=m,
            aux_entangling=new.aux_qubits,
            aux_baseline=old.aux_qubits,
            ops_per_agent_entangling=new.hadamards_per_agent,
            ops_per_agent_baseline=old.hadamards_per_agent,
            aux_equal=new.aux_qubits == old.aux_qubits,
            aux_advantage=new.aux_qubits < old.aux_qubits,
            ops_advantage=new.hadamards_per_agent < old.hadamards_per_agent,
        ))
    return CrossoverTable(num_agents=int(num_agents), rows=tuple(rows))
