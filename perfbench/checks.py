"""Closed-form correctness checks for every benchmark op.

Nothing here calls the package under test: expected values come from the
protocol's closed forms and from the amplitudes the benchmark generated.
Each check returns a list of problems; an empty list means the op is correct.
"""

from __future__ import annotations

from collections import Counter

FIDELITY_FLOOR = 1.0 - 1e-10
ATOL = 1e-12
PHI = ("phi_plus", "phi_minus")

# The paper's correction table: (Bell outcome, parity of agent bits XOR the
# sender's GHZ bit) -> Pauli applied by the receiver.
CORRECTION = {
    ("phi_plus", 0): "I", ("phi_plus", 1): "Z",
    ("phi_minus", 0): "Z", ("phi_minus", 1): "I",
    ("psi_plus", 0): "X", ("psi_plus", 1): "Y",
    ("psi_minus", 0): "Y", ("psi_minus", 1): "X",
}


def _transcript_problems(t: dict, n: int, outcomes: int, prob: float) -> list[str]:
    bits = list(t["agent_bits"])
    if len(bits) != n or len(t["bell_outcomes"]) != outcomes:
        return [f"transcript has {len(bits)} agent bits and {len(t['bell_outcomes'])} outcomes"]
    problems = []
    parity = (sum(bits) + (t["sender_ghz_bit"] or 0)) % 2
    want = [CORRECTION[(o, parity)] for o in t["bell_outcomes"]]
    if list(t["corrections"]) != want:
        problems.append(f"corrections {t['corrections']} != {want} for {t['bell_outcomes']} parity {parity}")
    if not t["fidelity"] >= FIDELITY_FLOOR:
        problems.append(f"fidelity {t['fidelity']!r} below {FIDELITY_FLOOR}")
    if not abs(t["branch_probability"] - prob) <= ATOL:
        problems.append(f"branch probability {t['branch_probability']!r} != {prob!r}")
    return problems


def _multiplicity_problems(keys: Counter, distinct: int, each: int, what: str) -> list[str]:
    if len(keys) != distinct or set(keys.values()) != {each}:
        return [f"{what}: {len(keys)} distinct branches (want {distinct}), multiplicities {sorted(set(keys.values()))} (want {each})"]
    return []


def protocol_problems(transcripts: list[dict], counts: tuple[int, ...], n: int, enumerate_mode: bool) -> list[str]:
    """Entangling protocol: each receiver has 4^M * 2^(n+1) equiprobable
    transcripts, every fidelity passes and every correction is the table's."""
    total = sum(counts)
    branches = 4**total * 2 ** (n + 1)
    per_receiver = branches if enumerate_mode else 1
    problems = []
    if len(transcripts) != per_receiver * len(counts):
        problems.append(f"{len(transcripts)} transcripts, want {per_receiver * len(counts)}")
    keys: list[Counter] = [Counter() for _ in counts]
    for t in transcripts:
        r = t["receiver"]
        if not 0 <= r < len(counts):
            problems.append(f"receiver {r} out of range")
            continue
        problems += _transcript_problems(t, n, counts[r], 1.0 / branches)
        keys[r][(tuple(t["bell_outcomes"]), tuple(t["agent_bits"]), t["sender_ghz_bit"])] += 1
    if enumerate_mode:
        for r, m in enumerate(counts):
            problems += _multiplicity_problems(keys[r], 4**m * 2 ** (n + 1), 4 ** (total - m), f"receiver {r}")
    return problems


def baseline_problems(transcripts: list[dict], m: int, n: int, enumerate_mode: bool) -> list[str]:
    """Per-qubit GHZ baseline: each of the m copies has 4 * 2^n equiprobable
    transcripts, corrected by the parity of the copy's agent bits."""
    branches = 4 * 2**n
    per_copy = branches if enumerate_mode else 1
    problems = []
    if len(transcripts) != per_copy * m:
        problems.append(f"{len(transcripts)} baseline transcripts, want {per_copy * m}")
    keys: list[Counter] = [Counter() for _ in range(m)]
    for t in transcripts:
        if t["sender_ghz_bit"] is not None or not 0 <= t["message_index"] < m:
            problems.append("baseline transcript has a sender GHZ bit or a bad copy index")
            continue
        problems += _transcript_problems(t, n, 1, 1.0 / branches)
        keys[t["message_index"]][(tuple(t["bell_outcomes"]), tuple(t["agent_bits"]))] += 1
    if enumerate_mode:
        for i in range(m):
            problems += _multiplicity_problems(keys[i], branches, 1, f"copy {i}")
    return problems


def _density_problems(b: dict, amps: list[tuple[complex, complex]]) -> list[str]:
    problems = []
    if not b["off_diagonal_norm"] < ATOL:
        problems.append(f"off-diagonal norm {b['off_diagonal_norm']!r}")
    if len(b["per_qubit"]) != len(amps) or len(b["bell_outcomes"]) != len(amps):
        return problems + [f"{len(b['per_qubit'])} per-qubit entries for {len(amps)} message qubits"]
    for q, ((alpha, beta), outcome) in enumerate(zip(amps, b["bell_outcomes"])):
        a2, b2 = abs(alpha) ** 2, abs(beta) ** 2
        want = (a2, b2) if outcome in PHI else (b2, a2)
        entry = b["per_qubit"][q]
        if any(not abs(got - w) <= ATOL for got, w in zip(entry["diag"], want)) or len(entry["diag"]) != 2:
            problems.append(f"qubit {q} diagonal {entry['diag']} != {want} for {outcome}")
        if not entry["max_recovery_fidelity"] <= max(a2, b2) + ATOL:
            problems.append(f"qubit {q} recovery fidelity {entry['max_recovery_fidelity']!r} above max(|a|^2,|b|^2)")
    return problems


def defection_problems(branches: list[dict], amps: list[tuple[complex, complex]], n: int) -> list[str]:
    """One agent withholds its bit: 4^M * 2^n equiprobable branches, each
    leaving the receiver diag(|a|^2, |b|^2) (phi) or its swap (psi)."""
    total = 4 ** len(amps) * 2**n
    problems = []
    if len(branches) != total:
        problems.append(f"{len(branches)} defection branches, want {total}")
    keys: Counter = Counter()
    for b in branches:
        if not abs(b["probability"] - 1.0 / total) <= ATOL:
            problems.append(f"defection branch probability {b['probability']!r} != {1.0 / total!r}")
        problems += _density_problems(b, amps)
        keys[(tuple(b["bell_outcomes"]), tuple(b["cooperator_bits"]))] += 1
    return problems + _multiplicity_problems(keys, total, 1, "defection")


def baseline_defection_problems(branches: list[dict], amps: list[tuple[complex, complex]], n: int) -> list[str]:
    """Baseline defection: per copy, 4 * 2^(n-1) equiprobable branches."""
    per_copy = 4 * 2 ** (n - 1)
    problems = []
    if len(branches) != per_copy * len(amps):
        problems.append(f"{len(branches)} baseline defection branches, want {per_copy * len(amps)}")
    keys: list[Counter] = [Counter() for _ in amps]
    for b in branches:
        i = b["message_index"]
        if not abs(b["probability"] - 1.0 / per_copy) <= ATOL:
            problems.append(f"baseline defection probability {b['probability']!r} != {1.0 / per_copy!r}")
        problems += _density_problems(b, [amps[i]])
        keys[i][(tuple(b["bell_outcomes"]), tuple(b["cooperator_bits"]))] += 1
    for i in range(len(amps)):
        problems += _multiplicity_problems(keys[i], per_copy, 1, f"copy {i}")
    return problems


def compare_problems(report: dict, n: int, ms: list[int] | None, counts: tuple[int, ...] = ()) -> list[str]:
    """Auxiliary qubits: 2M + n + 1 for the entangling protocol, M(n + 2)
    for the per-qubit GHZ baseline."""
    if ms is not None:
        rows = report["rows"]
        got = [(r["m"], r["aux_entangling"], r["aux_baseline"]) for r in rows]
        want = [(m, 2 * m + n + 1, m * (n + 2)) for m in ms]
    else:
        total = sum(counts)
        got = [(report["entangling"]["aux_qubits"], report["ghz_baseline"]["aux_qubits"])]
        want = [(2 * total + n + 1, total * (n + 2))]
    return [] if got == want else [f"aux qubit counts {got} != {want}"]
