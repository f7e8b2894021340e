"""Seeded inputs for the benchmark workloads.

A workload is a fixed list of ops (one "pass"). Shapes are fixed per
workload; the seed chooses the message amplitudes, the sampling seeds and the
order of the ops in a pass, none of which changes the amount of work. This
module has no dependency on numpy or on the package under test, so the runner
can validate arguments without importing either.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

MAX_QUBITS = 23
# Peak resident memory of a sampled op at N qubits, measured when this
# benchmark was added: 1.28 GiB at 23 qubits, about ten 16-byte vectors of 2^N amplitudes
# plus the interpreter and numpy.
PEAK_VECTORS = 10
BASE_BYTES = 100 << 20


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.

    ``call`` is ``run``, ``compare`` or ``selftest`` (``teleportnet.cli.main``
    in-process) or the name of a library entry point. ``amps`` holds one
    (alpha, beta) pair per message qubit, flattened over receivers.
    """

    call: str
    counts: tuple[int, ...] = ()
    agents: int = 0
    mode: str = "enumerate"
    seed: int | None = None
    defector: int | None = None  # 1-based, as on the command line
    amps: tuple[tuple[complex, complex], ...] = ()
    m_range: tuple[int, int] | None = None  # compare --m LO..HI

    @property
    def qubits(self) -> int:
        """Width of the simulated register (0 for ops that simulate nothing)."""
        if self.call == "run":
            return 3 * sum(self.counts) + self.agents + 1
        if self.call in ("run_baseline_ghz", "analyze_baseline_defection"):
            return self.agents + 3  # one baseline copy: message + (n+2)-qubit GHZ
        if self.call == "selftest":
            return 10  # (2,2) networks inside the self-test
        return 0

    def label(self) -> str:
        parts = [self.call]
        if self.counts:
            parts.append("ml=" + ",".join(map(str, self.counts)))
            parts.append(f"n={self.agents}")
        if self.call in ("run", "run_baseline_ghz"):
            parts.append(self.mode)
        if self.defector is not None:
            parts.append(f"defector={self.defector}")
        if self.m_range is not None:
            parts.append(f"m={self.m_range[0]}..{self.m_range[1]} n={self.agents}")
        return " ".join(parts)


def _amplitudes(rng: random.Random, count: int) -> tuple[tuple[complex, complex], ...]:
    """Haar-random single-qubit states, normalized in double precision."""
    pairs = []
    for _ in range(count):
        theta = math.acos(1.0 - 2.0 * rng.random())
        phi = 2.0 * math.pi * rng.random()
        pairs.append((complex(math.cos(theta / 2), 0.0), cmath.exp(1j * phi) * math.sin(theta / 2)))
    return tuple(pairs)


def _run(rng, counts, agents, mode="enumerate", defector=None) -> Op:
    seed = rng.randrange(2**31) if mode == "sampled" else None
    return Op("run", tuple(counts), agents, mode, seed, defector, _amplitudes(rng, sum(counts)))


def _enumerate(rng):
    # 256 to 1,024 branches per op, reports of 0.1 to 0.4 MiB; the (3,3) ops
    # hold the run's tail op and the (2,5) ops its median
    shapes = [((2,), 5), ((3,), 3), ((3,), 3), ((1, 2), 2), ((2,), 4)]
    return [_run(rng, c, n) for c, n in shapes]


def _sampled_wide(rng):
    # 21 qubits, 32 MiB per state vector; one branch per op
    shapes = [((5,), 5), ((6,), 2), ((2, 3), 5)]
    return [_run(rng, c, n, "sampled") for c, n in shapes]


def _defection(rng):
    # The defector is fixed per op: which qubits the walk measures changes the
    # cost of each kernel call by up to 40%.
    ops = [
        _run(rng, c, n, defector=d)
        for c, n, d in [((3,), 3, 2), ((2,), 4, 1), ((2,), 3, 2), ((1, 2), 3, 3)]
    ]
    amps = _amplitudes(rng, 6)
    ops.append(Op("run_baseline_ghz", (6,), 6, "enumerate", amps=amps))
    ops.append(Op("run_baseline_ghz", (6,), 6, "sampled", rng.randrange(2**31), amps=amps))
    ops.append(Op("analyze_baseline_defection", (6,), 6, defector=3, amps=amps))
    return ops


def _small_sweep(rng):
    ops = [Op("selftest")]
    ops += [_run(rng, (m,), n) for m in (1, 2, 3) for n in (1, 2, 3)]
    ops += [_run(rng, (2,), 2, "sampled") for _ in range(33)]
    ops += [Op("compare", agents=n, m_range=(1, 12)) for n in (1, 2, 3, 4)]
    ops += [Op("compare", counts=c, agents=n) for c, n in [((1, 2), 1), ((2, 2), 2), ((3, 1), 3), ((1, 1, 1), 4)]]
    return ops


# name -> (make_ops, seconds of one pass at reference speed when this
# benchmark was added, MiB the reference kernel streams through: the size of
# the workload's state vectors where memory traffic dominates, else 0).
# Passes are short, so that a run holds many of them, and each pass repeats
# the ops near the run's median and tail, so that these rank statistics fall
# among repeats of one kind of op, not between two kinds.
WORKLOADS = {
    "enumerate": (_enumerate, 1.2, 0),
    "sampled_wide": (_sampled_wide, 1.55, 32),
    "defection": (_defection, 1.45, 0),
    "small_sweep": (_small_sweep, 1.05, 0),
}


def build(workload: str, seed: int) -> list[Op]:
    """The pass of ``workload`` for ``seed``; the same seed gives the same ops."""
    make_ops = WORKLOADS[workload][0]
    rng = random.Random(f"{workload}/{seed}")
    ops = make_ops(rng)
    rng.shuffle(ops)  # spread each kind of op over the pass, and so over the host's speed drift
    for op in ops:
        if op.qubits > MAX_QUBITS:
            raise ValueError(f"{op.label()} needs {op.qubits} qubits; the benchmark allows {MAX_QUBITS}")
    return ops


def warm_up(ops: list[Op]) -> Op:
    """The op run once, untimed, during set-up: the smallest shape, chosen by
    shape alone so that every seed warms up with the same work."""
    return min((op for op in ops if op.qubits), key=lambda op: (op.qubits, op.call, op.counts, op.agents, op.mode))


def passes_for(workload: str, seconds: float) -> int:
    """Passes in one run: as many nominal passes as fit ``seconds``.

    The count depends only on ``seconds``, so two commits compared at the
    same run length execute exactly the same ops.
    """
    return max(1, round(seconds / WORKLOADS[workload][1]))


def check_memory(ops: list[Op], meminfo: str = "/proc/meminfo") -> None:
    """Fail fast when MemAvailable does not cover the estimated peak."""
    need = BASE_BYTES + PEAK_VECTORS * 16 * (1 << max(op.qubits for op in ops))
    try:
        with open(meminfo) as fh:
            fields = dict(line.split(":", 1) for line in fh)
        available = int(fields["MemAvailable"].split()[0]) * 1024
    except (OSError, KeyError, ValueError):
        return  # no meminfo on this platform; nothing to compare against
    if available < need:
        raise MemoryError(
            f"estimated peak {need / 2**30:.2f} GiB exceeds MemAvailable "
            f"{available / 2**30:.2f} GiB; refusing to start"
        )
