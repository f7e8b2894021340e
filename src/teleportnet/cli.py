"""Command-line front end: protocol runs, resource comparisons, and a
self-test of the package invariants, judged on branch tables as ``run`` judges.

Exit codes: 0 success, 1 property violation, 2 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import sys
from collections.abc import Iterator
from dataclasses import asdict
from json.encoder import encode_basestring_ascii
from typing import Any, Sequence

import numpy as np

from .accounting import Method, account, crossover_table
from .defection import DiagonalForm, _DefectionTable, _form_for, _network_defection
from .protocol import (
    CORRECTIONS,
    FIDELITY_ATOL,
    Branch,
    _baseline_branches,
    _distinct,
    _network_table,
    _transcript_table,
    _TranscriptTable,
)
from .resources import MessageSpec, NetworkShape, ParityClass, QubitRegistry, _integral, parity_decompose, prepare_ghz
from .states import BellOutcome, PauliOp, apply_hadamard

SCHEMA_VERSION = 1
MAX_TOTAL_QUBITS = 26
MAX_M_RANGE = 10_000  # rows of a compare --m table, and receivers of a compare --ml shape
DEFAULT_MESSAGE_SEED = 2718  # fixed so enumerate-mode reports never depend on --seed
_SPEC_KEYS = ("m", "ml", "n", "k", "mode", "seed", "defector", "messages")  # a scenario file's top-level keys

PRESETS = {
    "zero": (1.0, 0.0),
    "one": (0.0, 1.0),
    "plus": (1 / np.sqrt(2), 1 / np.sqrt(2)),
    "minus": (1 / np.sqrt(2), -1 / np.sqrt(2)),
    "phase": (1 / np.sqrt(2), 1j / np.sqrt(2)),
}


class ConfigError(Exception):
    pass


# The stdlib encoder skips its C encoder when it indents, so one walk writes the
# report. Records stand as skeletons, whose varying leaves are columns of codes
# into their texts, each a hole by position among the walk's pieces; those pieces,
# cut at the holes, prefix each column's texts in one table, gathered by chunks.
_CHUNK = 512  # rows per written piece: the report is streamed, never held whole


class _Column:
    """A column of JSON texts: row i holds ``texts[codes[i]]``."""

    def __init__(self, texts: Sequence[str], codes: np.ndarray):
        self.texts, self.codes = texts, codes

    def __getitem__(self, rows) -> _Column:
        return _Column(self.texts, self.codes[rows])


def _float_text(x: float) -> str:
    """``json.dumps(x)``, ``x`` cut to 15 significant digits."""
    x = float(f"{x:.15g}")
    return float.__repr__(x) if x - x == 0 else json.dumps(x)  # NaN and +-Infinity


def _float_column(x: np.ndarray) -> _Column:
    """A column of the floats' texts, each made by ``_float_text`` once per
    distinct bit pattern, so that 0.0 and -0.0, and NaNs, never merge."""
    first, codes = _distinct(np.ascontiguousarray(x, dtype=np.float64).view(np.uint64))
    return _Column([_float_text(v) for v in x[first].tolist()], codes)


_BITS = ("0", "1")
_BELL_TEXT = [json.dumps(o.value) for o in BellOutcome]
_PAULI_TEXT = [json.dumps(op.value) for op in PauliOp]
_BRANCH_TEXT = [json.dumps(b.value) for b in Branch]  # indexed by parity
_FORM_TEXT = [json.dumps(_form_for(o).value) for o in BellOutcome]
_PRESERVED = np.array([_form_for(o) is DiagonalForm.PRESERVED for o in BellOutcome])


def _walk(node: Any, out: list, holes: list[int], pad: str = "\n") -> None:
    """Append ``node``'s text to ``out`` as the stdlib's indenting encoder writes it, in its type order, at
    the depth that ``pad`` breaks lines to; a ``_Column`` stays a hole, its position going to ``holes``."""
    if isinstance(node, str):
        out.append(encode_basestring_ascii(node))
    elif node is None or node is True or node is False:
        out.append("null" if node is None else "true" if node else "false")
    elif isinstance(node, int):
        out.append(int.__repr__(node))
    elif isinstance(node, float):
        out.append(_float_text(node))
    elif isinstance(node, (list, tuple)):
        inner = pad + "  "
        sep = "[" + inner
        for v in node:
            out.append(sep)
            sep = "," + inner
            _walk(v, out, holes, inner)
        out.append(pad + "]" if node else "[]")
    elif isinstance(node, dict):
        inner = pad + "  "
        sep = "{" + inner
        for k, v in sorted(node.items()):
            out.append(sep + encode_basestring_ascii(k) + ": ")
            sep = "," + inner
            _walk(v, out, holes, inner)
        out.append(pad + "}" if node else "{}")
    elif isinstance(node, _Column):
        holes.append(len(out))
        out.append(node)
    else:
        raise TypeError(f"Object of type {type(node).__name__} is not JSON serializable")


def _report_pieces(report: dict, key: str | None = None) -> Iterator[str]:
    """``json.dumps(report, indent=2, sort_keys=True)`` with floats cut to 15 significant
    digits, and a newline, in pieces; ``report[key]`` lists skeletons, and stands
    for one record per skeleton for each row of their columns."""
    frame, marks = [], []  # the records' place in the frame is its one hole
    _walk(report if key is None else {**report, key: _Column((), ())}, frame, marks)
    if key is None:
        yield "".join(frame) + "\n"
        return
    (at,) = marks
    body, holes = [], []
    _walk(report[key], body, holes, "\n  ")  # "[\n    ", the skeletons' pieces, "\n  ]"
    body[0] = "    "  # each row starts a line: "[\n" ends the head
    parts = ["".join(body[a + 1:b]) for a, b in itertools.pairwise([-1, *holes, len(body) - 1])]
    columns = [body[h] for h in holes]
    rows = len(columns[0].codes)
    columns.append(_Column([",\n", ""], np.arange(rows) == rows - 1))  # each record ends with a comma but the last
    table = np.array([part + t for part, c in zip(parts, columns) for t in c.texts], dtype=object)
    offsets = np.array([0, *itertools.accumulate(len(c.texts) for c in columns[:-1])])[:, None]
    yield "".join(frame[:at]) + "[\n"
    for first in range(0, rows, _CHUNK):  # one chunk takes the codes whole, sparing a one-row report a slice each
        codes = [c.codes if rows <= _CHUNK else c.codes[first:first + _CHUNK] for c in columns]
        block = (np.array(codes, order="F") + offsets).T  # a row per branch, in C order: ravel copies nothing
        yield "".join(table[block].ravel().tolist())
    yield body[-1] + "".join(frame[at + 1:]) + "\n"


def _emit_report(report: dict, out_path: str | None, key: str | None = None) -> None:
    try:
        with open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout) as fh:
            fh.writelines(_report_pieces(report, key))
    except OSError as exc:
        raise ConfigError(f"cannot write report: {exc}")


def _load_spec_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read spec file: {exc}")
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ConfigError(f"spec file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("spec file must hold a JSON object")
    unknown = [key for key in data if key not in _SPEC_KEYS]
    if unknown:
        raise ConfigError(f"unknown spec file key {unknown[0]!r}; choose from {list(_SPEC_KEYS)}")
    return data


def _as_int(value: Any, name: str) -> int:
    """``value`` as an int: a string read by ``int()``, anything else by ``states._integral``."""
    try:
        return int(value) if isinstance(value, str) else _integral(value, name)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def _as_seed(value: Any, name: str) -> int:
    seed = _as_int(value, name)
    if seed < 0:
        raise ConfigError(f"{name} must be non-negative, got {seed}")
    return seed


def _resolve_shape(args, config: dict, simulate: bool = True) -> NetworkShape:
    # a given --m or --ml replaces both of the file's message counts
    m, ml = (args.m, args.ml) if (args.m, args.ml) != (None, None) else (config.get("m"), config.get("ml"))
    k = args.k if args.k is not None else config.get("k")
    n = args.n if args.n is not None else config.get("n", 1)
    if ml is not None and m is not None:
        raise ConfigError("give either --m or --ml, not both")
    k = None if k is None else _as_int(k, "k")
    if ml is None and m is None:
        raise ConfigError("message count is required (--m or --ml)")
    if ml is not None and not isinstance(ml, list):
        raise ConfigError(f"ml must be a list of message counts, got {ml!r}")
    counts = [_as_int(m, "m")] if ml is None else [_as_int(x, "ml") for x in ml]
    if k is not None and len(counts) not in (1, k):
        raise ConfigError(f"--ml lists {len(counts)} receivers but --k is {k}")
    copies = k if k is not None and len(counts) == 1 else 1  # a lone count repeated; a huge k builds no list
    try:
        shape = NetworkShape(tuple(counts * min(copies, 1)), _as_int(n, "n"))
    except ValueError as exc:
        raise ConfigError(str(exc))
    qubits = QubitRegistry(NetworkShape((shape.total_messages * copies,), shape.num_agents)).num_qubits
    if simulate and qubits > MAX_TOTAL_QUBITS:
        raise ConfigError(f"shape exceeds simulator capacity: {qubits} qubits > {MAX_TOTAL_QUBITS}")
    if len(counts) * copies > MAX_M_RANGE:
        raise ConfigError(f"shape has {len(counts) * copies} receivers, more than {MAX_M_RANGE}")
    return NetworkShape(shape.message_counts * copies, shape.num_agents)


def _message_pairs(source: dict, total: int) -> list[tuple[complex, complex]]:
    if not isinstance(source, dict):
        raise ConfigError(f"messages must be a JSON object, got {source!r}")
    kind = source.get("kind", "random")
    if kind == "random":
        rng = np.random.default_rng(_as_seed(source.get("seed", DEFAULT_MESSAGE_SEED), "messages seed"))
        return list(MessageSpec.random(total, rng).qubits)
    if kind == "preset":
        name = source.get("name", "plus")
        if not isinstance(name, str) or name not in PRESETS:
            raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
        return [PRESETS[name]] * total
    if kind == "explicit":
        raw = source.get("amplitudes")
        if not isinstance(raw, list) or len(raw) != total:
            raise ConfigError(f"explicit amplitudes must list {total} qubits")
        pairs = []
        for entry in raw:
            try:
                (ar, ai), (br, bi) = entry
                pairs.append((complex(ar, ai), complex(br, bi)))
            except (TypeError, ValueError):
                raise ConfigError("each amplitude entry must be [[re, im], [re, im]]")
        return pairs
    raise ConfigError(f"unknown message source kind {kind!r}")


def _build_specs(config: dict, shape: NetworkShape) -> tuple[list[MessageSpec], dict]:
    source = config.get("messages", {"kind": "random", "seed": DEFAULT_MESSAGE_SEED})
    pairs = _message_pairs(source, shape.total_messages)
    try:
        spec, correction = MessageSpec.normalized(pairs)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if correction > 1e-9:
        print(
            f"warning: message amplitudes renormalized (largest correction {correction:.3e})",
            file=sys.stderr,
        )
    ends = np.cumsum(shape.message_counts).tolist()
    return [MessageSpec(spec.qubits[end - m:end]) for m, end in zip(shape.message_counts, ends)], source


def _transcript_records(t: _TranscriptTable) -> list[dict]:
    """One skeleton per receiver: a record per branch and receiver, interleaved by branch."""
    total = sum(t.counts)
    bells = [_Column(_BELL_TEXT, c) for c in t.outcomes[:, :total].T]
    corrections = [_Column(_PAULI_TEXT, c) for c in t.ops.T]
    shared = {
        "message_index": None,
        "agent_bits": [_Column(_BITS, c) for c in t.outcomes[:, total:-1].T],
        "sender_ghz_bit": _Column(_BITS, t.outcomes[:, -1]),
        "branch": _Column(_BRANCH_TEXT, t.parity),
        "branch_probability": _float_column(t.probs),
    }
    ends = np.cumsum(t.counts).tolist()
    return [
        {**shared, "receiver": r, "bell_outcomes": bells[end - m:end], "corrections": corrections[end - m:end],
         "fidelity": _float_column(t.fids[r])}
        for r, (m, end) in enumerate(zip(t.counts, ends))
    ]


def _defection_records(t: _DefectionTable, defector: int) -> list[dict]:
    """The skeleton of a record per cooperating branch; ``defector`` is 1-based."""
    total = len(t.operators)
    return [{
        "defector": defector,
        "bell_outcomes": [_Column(_BELL_TEXT, c) for c in t.outcomes[:, :total].T],
        "cooperator_bits": [_Column(_BITS, c) for c in t.outcomes[:, total:].T],
        "probability": _float_column(t.probs),
        "per_qubit": [
            {
                "diag": [_float_column(ops[:, 0, 0].real)[inverse], _float_column(ops[:, 1, 1].real)[inverse]],
                "max_off_diagonal": _float_column(t.off[:, i]),
                "conforms_to": _Column(_FORM_TEXT, t.outcomes[:, i]),
                "max_recovery_fidelity": _float_column(t.best[:, i]),
            }
            for i, (ops, inverse) in enumerate(t.operators)
        ],
        "off_diagonal_norm": _float_column(t.off.max(axis=1)),
    }]


def _diagonal_ok(t: _DefectionTable, qubits: Sequence[tuple[complex, complex]]) -> np.ndarray:
    """Per branch: the off-diagonal norm is under 1e-12 and every received
    qubit's diagonal is its message's, preserved or swapped as its Bell
    outcome says."""
    ok = t.off.max(axis=1) < 1e-12
    for i, ((ops, inverse), (alpha, beta)) in enumerate(zip(t.operators, qubits)):
        preserved = _PRESERVED[t.outcomes[:, i]]
        a2, b2 = abs(alpha) ** 2, abs(beta) ** 2
        ok &= np.abs(ops[inverse, 0, 0].real - np.where(preserved, a2, b2)) < 1e-12
        ok &= np.abs(ops[inverse, 1, 1].real - np.where(preserved, b2, a2)) < 1e-12
    return ok


# The summary of each table kind, whose last field is its verdict. The columns are reduced in
# record order, as a loop over the records would: the bytes of the report do not change.
def _transcript_summary(t: _TranscriptTable, mode: str = "enumerate") -> dict:
    k = len(t.counts)
    min_fid = min(np.stack(t.fids, axis=1).ravel().tolist())
    return {
        "num_transcripts": len(t.probs) * k,
        "min_fidelity": min_fid,
        "branch_probability_sum": sum(np.repeat(t.probs, k).tolist()) / k if mode == "enumerate" else None,
        "all_fidelities_pass": min_fid >= 1.0 - FIDELITY_ATOL,
    }


def _defection_summary(t: _DefectionTable, qubits: Sequence[tuple[complex, complex]]) -> dict:
    return {
        "num_branches": len(t.probs),
        "max_off_diagonal": max(t.off.max(axis=1).tolist()),
        "probability_sum": sum(t.probs.tolist()),
        "all_diagonal": bool(_diagonal_ok(t, qubits).all()),
    }


def cmd_run(args) -> int:
    config = _load_spec_file(args.spec) if args.spec else {}
    shape = _resolve_shape(args, config)
    specs, source = _build_specs(config, shape)

    defector = args.defector if args.defector is not None else config.get("defector")
    if defector is not None:
        defector = _as_int(defector, "defector")
        if not 1 <= defector <= shape.num_agents:
            raise ConfigError(f"defector must be in 1..{shape.num_agents}")
    if config.get("mode", "sampled") not in ("enumerate", "sampled"):
        raise ConfigError(f"mode must be \"enumerate\" or \"sampled\", got {config['mode']!r}")
    # defection analysis is exhaustive by construction
    enumerate_mode = args.enumerate or config.get("mode") == "enumerate" or defector is not None
    mode = "enumerate" if enumerate_mode else "sampled"
    seed = args.seed if args.seed is not None else config.get("seed")
    if seed is not None:  # checked in both modes, though only a sampled run draws from it
        seed = _as_seed(seed, "seed")
    elif mode == "sampled":
        raise ConfigError("sampled mode needs --seed (or use --enumerate)")
    scenario = {
        "message_counts": list(shape.message_counts),
        "num_agents": shape.num_agents,
        "mode": mode,
        "seed": None if mode == "enumerate" else seed,
        "defector": defector,
        "message_source": source,
    }
    report: dict[str, Any] = {"schema_version": SCHEMA_VERSION, "command": "run", "scenario": scenario}

    if defector is not None:
        table = _network_defection(specs, shape, defector - 1)[0]
        key, verdict = "branches", "all_diagonal"
        report["kind"] = "defection_analysis"
        report[key] = _defection_records(table, defector)
        report["summary"] = _defection_summary(table, [q for s in specs for q in s.qubits])
    else:
        table = _network_table(specs, shape, mode, seed)
        key, verdict = "transcripts", "all_fidelities_pass"
        report["kind"] = "protocol_run"
        report[key] = _transcript_records(table)
        report["summary"] = _transcript_summary(table, mode)
    _emit_report(report, args.out, key)
    return 0 if report["summary"][verdict] else 1


def _parse_m_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = (_as_int(x, "--m") for x in text.split("..", 1))
        if hi - lo >= MAX_M_RANGE:
            raise ConfigError(f"--m range {lo}..{hi} holds more than {MAX_M_RANGE} values")
        return list(range(lo, hi + 1))
    return [_as_int(text, "--m")]


def cmd_compare(args) -> int:
    n = args.n if args.n is not None else 1
    if args.m is not None and args.ml is not None:
        raise ConfigError("give either --m or --ml, not both")
    if args.m is not None:
        if args.k is not None:
            raise ConfigError("compare --m takes no --k; for k receivers give --ml COUNTS --k K")
        ms = _parse_m_range(args.m)
        if not ms:
            raise ConfigError("empty m range")
        try:
            table = crossover_table(n, ms)
        except ValueError as exc:
            raise ConfigError(str(exc))
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": "compare",
            "num_agents": n,
            "rows": [asdict(row) for row in table.rows],
            "first_dominating_m": table.first_dominating_m,
        }
        print(f"{'m':>3} {'aux(new)':>9} {'aux(base)':>10} {'ops/agent':>10} {'flags':>14}")
        for row in table.rows:
            marks = (("aux=", row.aux_equal), ("aux+", row.aux_advantage), ("ops+", row.ops_advantage))
            flags = [mark for mark, on in marks if on]
            print(
                f"{row.m:>3} {row.aux_entangling:>9} {row.aux_baseline:>10} "
                f"{row.ops_per_agent_entangling:>4} vs {row.ops_per_agent_baseline:<3} {','.join(flags):>14}"
            )
        if args.out:
            _emit_report(report, args.out)
        return 0

    if args.ml is None:
        raise ConfigError("compare needs --m RANGE or --ml COUNTS")
    shape = _resolve_shape(args, {}, simulate=False)
    new = account(Method.ENTANGLING, shape)
    old = account(Method.GHZ_BASELINE, shape)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "compare",
        "shape": {"message_counts": list(shape.message_counts), "num_agents": shape.num_agents},
        **{r.method.value: {k: v for k, v in asdict(r).items() if k != "method"} for r in (new, old)},
    }
    print(f"shape m_l={list(shape.message_counts)} n={shape.num_agents}")
    print(f"aux qubits:        {new.aux_qubits} vs {old.aux_qubits}")
    print(f"qubits/agent:      {new.qubits_per_agent} vs {old.qubits_per_agent}")
    print(f"hadamards/agent:   {new.hadamards_per_agent} vs {old.hadamards_per_agent}")
    print(f"measurements/agent:{new.measurements_per_agent} vs {old.measurements_per_agent}")
    print(f"bits/agent->recv:  {list(new.classical_bits_per_agent)} vs {list(old.classical_bits_per_agent)}")
    if args.out:
        _emit_report(report, args.out)
    return 0


def _selftest_checks():
    rng = np.random.default_rng(99)

    def reconstruction():
        for m in (1, 2):
            for n in (1, 2):
                shape = NetworkShape.single(m, n)
                for _ in range(3):
                    spec = MessageSpec.random(m, rng)
                    summary = _transcript_summary(_network_table([spec], shape, "enumerate", None))
                    if summary["num_transcripts"] != 4 ** m * 2 ** (n + 1):
                        return f"branch count {summary['num_transcripts']} wrong for m={m} n={n}"
                    if not summary["all_fidelities_pass"]:
                        return f"fidelity {summary['min_fidelity']} below bar at m={m} n={n}"
                    if abs(summary["branch_probability_sum"] - 1.0) > 1e-9:
                        return f"branch probabilities do not sum to 1 at m={m} n={n}"
        return None

    def parity_structure():
        for size in range(2, 8):
            for sign in (+1, -1):
                state = prepare_ghz(size, sign)
                for q in range(size):
                    state = apply_hadamard(state, q)
                weights = parity_decompose(state, list(range(size)))
                total_parity = ParityClass.EVEN if sign == +1 else ParityClass.ODD
                if abs(weights[total_parity] - 1.0) > 1e-12:
                    return f"parity mass off for size={size} sign={sign}"
        return None

    def defection_diagonality():
        for m in (1, 2):
            for n in (1, 2):
                spec = MessageSpec.random(m, rng)
                for defector in range(n):
                    table = _network_defection([spec], NetworkShape.single(m, n), defector)[0]
                    if not _defection_summary(table, spec.qubits)["all_diagonal"]:
                        return f"defection leaves a non-diagonal or wrong diagonal at m={m} n={n}"
        return None

    def baseline_equivalence():
        for m in (1, 2):
            for n in (1, 2):
                spec = MessageSpec.random(m, rng)
                branches = _baseline_branches(spec, NetworkShape.single(m, n))
                table = _transcript_table(*branches, [spec], copies=len(spec))
                summary = _transcript_summary(table)
                if not summary["all_fidelities_pass"]:
                    return f"baseline fidelity {summary['min_fidelity']} below bar at m={m} n={n}"
        return None

    def corrupted_table_detected():
        swapped = dict(CORRECTIONS)
        swapped[BellOutcome.PHI_PLUS] = (PauliOp.Z, PauliOp.I)
        swapped[BellOutcome.PHI_MINUS] = (PauliOp.I, PauliOp.Z)
        spec = MessageSpec.random(1, rng)
        table = _network_table([spec], NetworkShape.single(1, 1), "enumerate", None, table=swapped)
        if _transcript_summary(table)["min_fidelity"] >= 1.0 - 1e-6:
            return "reconstruction did not fail under a corrupted correction table"
        return None

    def enumerate_determinism():
        spec = MessageSpec.random(2, rng)
        a, b = ([t.outcomes, t.parity, t.ops, t.probs, *t.fids]
                for t in (_network_table([spec], NetworkShape.single(2, 1), "enumerate", None) for _ in range(2)))
        same = len(a) == len(b) and all(
            (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()) for x, y in zip(a, b))
        return None if same else "enumerate mode is not deterministic"

    return [
        ("reconstruction", reconstruction),
        ("ghz_parity_decomposition", parity_structure),
        ("defection_diagonality", defection_diagonality),
        ("baseline_equivalence", baseline_equivalence),
        ("corrupted_table_detected", corrupted_table_detected),
        ("enumerate_determinism", enumerate_determinism),
    ]


def cmd_selftest(args) -> int:
    failures = []
    for name, check in _selftest_checks():
        problem = check()
        if problem is None:
            print(f"[selftest] {name}: ok")
        else:
            print(f"[selftest] {name}: FAIL ({problem})")
            failures.append(name)
    if failures:
        print(f"[selftest] failed: {', '.join(failures)}")
        return 1
    print("[selftest] all checks passed")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="teleportnet",
        description="Controlled teleportation of multi-qubit messages: runs, comparisons, self-test.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a protocol run or defection analysis")
    run.add_argument("--m", type=int, help="message qubits (single receiver)")
    run.add_argument("--ml", type=int, nargs="+", help="per-receiver message counts")
    run.add_argument("--n", type=int, help="number of agents (default 1)")
    run.add_argument("--k", type=int, help="number of receivers")
    run.add_argument("--seed", type=int, help="RNG seed (sampled mode)")
    run.add_argument("--enumerate", action="store_true", help="enumerate every branch")
    run.add_argument("--defector", type=int, help="1-based agent that withholds cooperation")
    run.add_argument("--spec", help="JSON scenario file")
    run.add_argument("--out", help="report file (default: stdout)")
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser("compare", help="resource comparison tables")
    compare.add_argument("--m", help="message count or range, e.g. 3 or 1..5")
    compare.add_argument("--ml", type=int, nargs="+", help="per-receiver message counts")
    compare.add_argument("--n", type=int, help="number of agents (default 1)")
    compare.add_argument("--k", type=int, help="number of receivers")
    compare.add_argument("--out", help="JSON table file")
    compare.set_defaults(func=cmd_compare)

    selftest = sub.add_parser("selftest", help="run the invariant suite at desk scale")
    selftest.set_defaults(func=cmd_selftest)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
