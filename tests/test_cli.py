import json
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from teleportnet import CORRECTIONS, MessageSpec, NetworkShape, cli, defection, protocol
from teleportnet.cli import MAX_M_RANGE, ConfigError, _as_int, _diagonal_ok, main
from teleportnet.defection import _network_defection, _reports
from teleportnet.protocol import _distinct, _TranscriptTable

from _oracles import diag_matches
from conftest import row_keys


DATA = Path(__file__).parent / "data"


def run_cli(*argv):
    return main(list(argv))


@pytest.mark.parametrize("argv, name", [
    ("run --m 2 --n 1 --defector 1", "run_m2_n1_defector1.json"),
    ("run --m 2 --n 1 --enumerate", "run_m2_n1_enumerate.json"),
    ("compare --n 2 --m 1..6", "compare_n2_m1-6.json"),
    ("compare --k 2 --ml 1 --n 2", "compare_k2_ml1_n2.json"),
    ("run --ml 2 1 --n 2 --seed 9", "run_ml21_n2_seed9.json"),
    ("run --m 2 --n 2 --seed 5", "run_m2_n2_seed5.json"),
    # message_source holds NUL strings, "%s" and a "transcripts" key, all sorted before the records
    ("run --spec {data}/spec_hostile_strings.json", "run_spec_hostile_strings.json"),
    ("run --ml 1 2 --n 2 --enumerate", "run_ml12_n2_enumerate.json"),
    ("run --ml 1 2 --n 3 --defector 3", "run_ml12_n3_defector3.json"),
    # preset "zero" messages: exact 0.0 diagonals and off-diagonal norms
    ("run --spec {data}/spec_preset_zero_defector.json", "run_spec_preset_zero_defector.json"),
    # 21 qubits: the drawn branch and its floats at benchmark width
    ("run --m 5 --n 5 --seed 3", "run_m5_n5_seed3.json"),
    ("run --ml 2 3 --n 5 --seed 4", "run_ml23_n5_seed4.json"),
], ids=["defection", "enumerate", "compare-sweep", "compare-shape", "sampled-two-receivers",
        "sampled", "hostile-spec-strings", "enumerate-two-receivers", "defection-two-receivers",
        "defection-preset-zero", "sampled-wide", "sampled-wide-two-receivers"])
def test_reports_match_stored_bytes(tmp_path, argv, name):
    out = tmp_path / name
    assert run_cli(*argv.format(data=DATA).split(), "--out", str(out)) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


def test_main_runs_repeatedly_in_one_process(tmp_path):
    """``main`` reuses one parser: no flag of one call leaks into the next."""
    enum_out, sampled_out, again_out, compare_out = (tmp_path / f"{i}.json" for i in range(4))
    assert run_cli("run", "--m", "1", "--n", "1", "--enumerate", "--out", str(enum_out)) == 0
    assert run_cli("run", "--m", "1", "--n", "1", "--seed", "1", "--out", str(sampled_out)) == 0
    assert run_cli("compare", "--m", "2", "--n", "1", "--out", str(compare_out)) == 0
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--m", "x")
    assert exc.value.code == 2
    assert run_cli("run", "--m", "1", "--n", "1", "--seed", "1", "--out", str(again_out)) == 0

    enum_report, sampled = json.loads(enum_out.read_text()), json.loads(sampled_out.read_text())
    assert (enum_report["scenario"]["mode"], enum_report["summary"]["num_transcripts"]) == ("enumerate", 16)
    assert (sampled["scenario"]["mode"], sampled["scenario"]["seed"]) == ("sampled", 1)
    assert sampled["summary"]["num_transcripts"] == 1
    assert json.loads(compare_out.read_text())["command"] == "compare"
    assert again_out.read_bytes() == sampled_out.read_bytes()


class TestRunCommand:
    def test_enumerate_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("run", "--m", "2", "--n", "2", "--enumerate", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == 1
        assert report["kind"] == "protocol_run"
        assert report["summary"]["num_transcripts"] == 128
        assert report["summary"]["all_fidelities_pass"] is True
        assert report["summary"]["min_fidelity"] == pytest.approx(1.0, abs=1e-10)
        assert report["summary"]["branch_probability_sum"] == pytest.approx(1.0, abs=1e-9)
        first = report["transcripts"][0]
        assert set(first) == {
            "receiver", "message_index", "bell_outcomes", "agent_bits",
            "sender_ghz_bit", "branch", "corrections", "fidelity", "branch_probability",
        }

    def test_reports_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("run", "--m", "1", "--n", "2", "--enumerate", "--out", str(a))
        run_cli("run", "--m", "1", "--n", "2", "--enumerate", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_enumerate_reports_ignore_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("run", "--m", "1", "--n", "1", "--enumerate", "--seed", "1", "--out", str(a))
        run_cli("run", "--m", "1", "--n", "1", "--enumerate", "--seed", "999", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_enumerate_run_checks_its_seed(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli("run", "--m", "1", "--n", "1", "--enumerate", "--seed", "-5", "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: seed must be non-negative, got -5\n"
        assert not out.exists()
        assert run_cli("run", "--m", "1", "--n", "1", "--enumerate", "--seed", "5", "--out", str(out)) == 0
        assert json.loads(out.read_text())["scenario"]["seed"] is None

    def test_sampled_mode_roundtrip(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("run", "--m", "2", "--n", "1", "--seed", "7", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["scenario"]["mode"] == "sampled"
        assert report["summary"]["num_transcripts"] == 1

    def test_sampled_without_seed_is_config_error(self, capsys):
        assert run_cli("run", "--m", "1", "--n", "1") == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, qubits", [
        ("--m 1 --n 30", 34), ("--m 8 --n 2", 27), ("--ml 1 2 --n 17", 27), ("--ml 2 --k 3 --n 8", 27),
    ])
    def test_capacity_guard(self, argv, qubits, capsys, monkeypatch):
        # one qubit over the cap, with receivers and copies counted; refused before any simulation
        monkeypatch.setattr(cli, "_network_table", lambda *a, **k: pytest.fail("simulated past the cap"))
        assert run_cli("run", *argv.split(), "--enumerate") == 2
        assert capsys.readouterr().err == f"error: shape exceeds simulator capacity: {qubits} qubits > 26\n"

    @pytest.mark.parametrize("source", ["m", "ml", "spec"])
    def test_huge_receiver_count_is_refused_before_any_list_is_built(self, source, tmp_path, capsys):
        # a million receivers of one qubit: the refusal must not grow with k
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({"m": 1, "n": 1, "k": 10**6}))
        argv = {"m": ["--m", "1", "--n", "1", "--k", "1000000"], "ml": ["--ml", "1", "--n", "1", "--k", "1000000"],
                "spec": ["--spec", str(spec)]}[source]
        tracemalloc.start()
        try:
            code = run_cli("run", *argv, "--enumerate")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err == "error: shape exceeds simulator capacity: 3000002 qubits > 26\n"
        assert peak < 1 << 20

    def test_unwritable_out_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        assert run_cli("run", "--m", "1", "--n", "1", "--enumerate", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write report: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_defection_at_six_message_qubits_runs(self, tmp_path):
        # (6,2): 2^14 branches whose 64x64 joint operators would take 1 GiB; none is built
        out = tmp_path / "r.json"
        assert run_cli("run", "--m", "6", "--n", "2", "--defector", "1", "--out", str(out)) == 0
        summary = json.loads(out.read_text())["summary"]
        assert summary["all_diagonal"] is True
        assert summary["num_branches"] == 1 << 14

    def test_missing_message_count(self):
        assert run_cli("run", "--n", "1", "--enumerate") == 2

    def test_multi_receiver_run(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("run", "--ml", "1", "1", "--n", "1", "--enumerate", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        receivers = {t["receiver"] for t in report["transcripts"]}
        assert receivers == {0, 1}

    def test_defection_run(self, tmp_path):
        out = tmp_path / "d.json"
        assert run_cli("run", "--m", "1", "--n", "1", "--defector", "1", "--enumerate", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["kind"] == "defection_analysis"
        assert report["summary"]["all_diagonal"] is True
        branch = report["branches"][0]
        diag = branch["per_qubit"][0]["diag"]
        assert sum(diag) == pytest.approx(1.0, abs=1e-9)
        assert branch["per_qubit"][0]["conforms_to"] in ("preserved", "swapped")

    def test_defector_out_of_range(self, capsys):
        assert run_cli("run", "--m", "1", "--n", "1", "--defector", "2", "--enumerate") == 2
        assert "defector" in capsys.readouterr().err

    def test_defector_implies_enumerate(self, tmp_path):
        out = tmp_path / "d.json"
        assert run_cli("run", "--m", "1", "--n", "1", "--defector", "1", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["scenario"]["mode"] == "enumerate"

    def test_sampled_multi_receiver(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("run", "--ml", "1", "1", "--n", "1", "--seed", "3", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["summary"]["num_transcripts"] == 2

    def test_multi_receiver_defection(self, tmp_path):
        out = tmp_path / "d.json"
        code = run_cli("run", "--ml", "1", "1", "--n", "2", "--defector", "2",
                       "--enumerate", "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["summary"]["all_diagonal"] is True
        assert len(report["branches"][0]["per_qubit"]) == 2

    def test_spec_file_explicit_amplitudes(self, tmp_path, capsys):
        spec = {
            "m": 1,
            "n": 1,
            "messages": {"kind": "explicit", "amplitudes": [[[1.0, 0.0], [1.0, 0.0]]]},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "r.json"
        assert run_cli("run", "--spec", str(path), "--enumerate", "--out", str(out)) == 0
        assert "renormalized" in capsys.readouterr().err
        report = json.loads(out.read_text())
        assert report["summary"]["all_fidelities_pass"] is True

    def test_spec_file_preset(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"m": 2, "n": 1, "messages": {"kind": "preset", "name": "phase"}}))
        assert run_cli("run", "--spec", str(path), "--enumerate", "--out", str(tmp_path / "r.json")) == 0

    @pytest.mark.parametrize("scenario, flags, counts", [
        ({"ml": [1, 2], "n": 2, "mode": "enumerate"}, ["--m", "1"], [1]),
        ({"m": 2, "n": 1, "defector": 1}, ["--ml", "1", "1", "--n", "2"], [1, 1]),
    ], ids=["m-over-ml", "ml-over-m"])
    def test_flag_replaces_both_of_the_files_message_counts(self, tmp_path, scenario, flags, counts):
        path, out = tmp_path / "scenario.json", tmp_path / "r.json"
        path.write_text(json.dumps(scenario))
        assert run_cli("run", "--spec", str(path), *flags, "--out", str(out)) == 0
        assert json.loads(out.read_text())["scenario"]["message_counts"] == counts

    def test_m_and_ml_together_are_refused(self, tmp_path, capsys):
        assert run_cli("run", "--m", "1", "--ml", "1", "1", "--n", "1", "--enumerate") == 2
        assert capsys.readouterr().err == "error: give either --m or --ml, not both\n"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"m": 1, "ml": [1, 1], "n": 1, "mode": "enumerate"}))
        assert run_cli("run", "--spec", str(path)) == 2
        assert capsys.readouterr().err == "error: give either --m or --ml, not both\n"

    def test_bad_spec_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert run_cli("run", "--spec", str(path), "--m", "1", "--enumerate") == 2
        assert "JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b"\xff\xfe\x00{}", b"[" * 200_000 + b"]" * 200_000],
                             ids=["not-utf-8", "nested-too-deep"])
    def test_unreadable_spec_file_is_a_config_error(self, tmp_path, capsys, content):
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        assert run_cli("run", "--spec", str(path), "--m", "1", "--enumerate") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: spec file is not valid JSON: ") and err.count("\n") == 1

    def test_unknown_spec_file_key_is_refused(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"m": 1, "n": 1, "mode": "enumerate", "defectr": 1}))
        assert run_cli("run", "--spec", str(path), "--out", str(tmp_path / "r.json")) == 2
        assert capsys.readouterr().err == ("error: unknown spec file key 'defectr'; choose from "
                                           "['m', 'ml', 'n', 'k', 'mode', 'seed', 'defector', 'messages']\n")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("scenario", [
        {"m": "abc", "n": 1, "mode": "enumerate"},
        {"m": 1, "n": 1, "defector": "x"},
        {"m": 1, "n": 1, "seed": "s"},
        {"ml": 3, "n": 1, "mode": "enumerate"},
        {"m": 1, "n": 1, "seed": -1},
        {"m": 1, "n": 1, "mode": "enumerate", "messages": "abc"},
        {"m": 1, "n": 1, "mode": "enumerate", "messages": {"kind": "random", "seed": -3}},
        {"m": 1, "n": 1, "mode": "enumerate", "messages": {"kind": "preset", "name": []}},
        {"m": 1.7, "n": 1, "mode": "enumerate"},
        {"m": 1, "n": True, "mode": "enumerate"},
        {"m": 1, "n": 1, "defector": 1.5},
        {"m": 1, "n": 1, "k": 0, "mode": "enumerate"},
        {"m": 1, "n": 1, "mode": "enumrate", "seed": 3},
        {"m": 1, "n": 1, "mode": 7},
        {"m": 1, "n": 1, "mode": "enumerate", "seed": "abc"},
        {"m": 1, "n": 1, "defector": 1, "seed": -5},
    ], ids=["m", "defector", "seed", "ml", "negative-seed", "messages", "messages-seed", "preset-name",
            "m-fraction", "n-bool", "defector-fraction", "k-zero", "mode-misspelled", "mode-number",
            "enumerate-seed", "defector-negative-seed"])
    def test_malformed_spec_values_are_config_errors(self, tmp_path, capsys, scenario):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        assert run_cli("run", "--spec", str(path), "--out", str(tmp_path / "r.json")) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv, scenario, err", [
        ("run --ml 1 2 --k 3", None, "--ml lists 2 receivers but --k is 3\n"),
        ("run --spec {missing}", None, "cannot read spec file: [Errno 2] "),
        ("run --spec {spec}", [1, 2], "spec file must hold a JSON object\n"),
        ("run --spec {spec}", {"m": 2, "messages": {"kind": "explicit", "amplitudes": [[[1, 0], [0, 0]]]}},
         "explicit amplitudes must list 2 qubits\n"),
        ("run --spec {spec}", {"m": 1, "messages": {"kind": "explicit", "amplitudes": [[[1, 0]]]}},
         "each amplitude entry must be [[re, im], [re, im]]\n"),
        ("run --spec {spec}", {"m": 1, "messages": {"kind": "given"}}, "unknown message source kind 'given'\n"),
        ("run --spec {spec}", {"m": 1, "messages": {"kind": "explicit", "amplitudes": [[[0, 0], [0, 0]]]}},
         "amplitude pair has zero norm\n"),
        ("compare --m 1..3 --ml 1", None, "give either --m or --ml, not both\n"),
        ("compare --m 3..1", None, "empty m range\n"),
    ], ids=["ml-count-against-k", "spec-missing", "spec-array", "amplitude-count", "amplitude-entry",
            "message-kind", "zero-pair", "compare-m-and-ml", "compare-empty-range"])
    def test_each_refusal_names_its_fault(self, tmp_path, capsys, argv, scenario, err):
        spec = tmp_path / "scenario.json"
        spec.write_text(json.dumps(scenario if not isinstance(scenario, dict) else {**scenario, "mode": "enumerate"}))
        assert run_cli(*argv.format(spec=spec, missing=tmp_path / "missing.json").split()) == 2
        got = capsys.readouterr().err
        assert got.startswith(f"error: {err}") and got.count("\n") == 1

    @pytest.mark.parametrize("huge, unit", [([[[1.7e308, 1.7e308], [0, 0]]], [[[1, 1], [0, 0]]]),
                                            ([[[1e308, 1e308], [1e308, 1e308]]], [[[1, 1], [1, 1]]])],
                             ids=["abs-overflows", "hypot-overflows"])
    def test_amplitudes_whose_norm_overflows_are_rescaled(self, tmp_path, capsys, huge, unit):
        # the norm of each huge pair overflows: it once escaped as an OverflowError (exit 1) or was refused
        reports = []
        for amplitudes in (huge, unit):
            path, out = tmp_path / "scenario.json", tmp_path / "r.json"
            path.write_text(json.dumps({"m": 1, "messages": {"kind": "explicit", "amplitudes": amplitudes}}))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run_cli("run", "--spec", str(path), "--enumerate", "--out", str(out)) == 0
            err = capsys.readouterr().err
            assert err.startswith("warning: message amplitudes renormalized") and err.count("\n") == 1
            reports.append(json.loads(out.read_text()))
        got, want = ((r["transcripts"], r["summary"]) for r in reports)
        assert got == want

    def test_phase_preset_is_an_equal_superposition(self, tmp_path, capsys):
        # |alpha|^2 = |beta|^2 = 1/2 as written: no renormalization, and every diagonal a defector leaves is 1/2
        path, out = tmp_path / "scenario.json", tmp_path / "r.json"
        path.write_text(json.dumps({"m": 2, "n": 2, "defector": 1, "messages": {"kind": "preset", "name": "phase"}}))
        assert run_cli("run", "--spec", str(path), "--out", str(out)) == 0
        assert capsys.readouterr().err == ""
        branches = json.loads(out.read_text())["branches"]
        assert {d for b in branches for q in b["per_qubit"] for d in q["diag"]} == {0.5}

    def test_spec_defector_string_is_written_as_an_integer(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        out = tmp_path / "d.json"
        path.write_text(json.dumps({"m": 1, "n": 1, "defector": "1"}))
        assert run_cli("run", "--spec", str(path), "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["scenario"]["defector"] == 1
        assert type(report["scenario"]["defector"]) is int
        assert {b["defector"] for b in report["branches"]} == {1}
        path.write_text(json.dumps({"m": 1, "n": 1, "defector": "x"}))
        assert run_cli("run", "--spec", str(path), "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: defector")

    @pytest.mark.parametrize("gap, passes", [(1e-9, False), (1e-11, True)])
    def test_fidelity_verdict_holds_its_bar(self, gap, passes):
        """A fabricated table whose lowest fidelity is 1 - gap, against the
        reconstruction bar of 1e-10."""
        table = _TranscriptTable(outcomes=np.zeros((2, 3), dtype=np.int64), parity=np.zeros(2, dtype=np.int64),
                                 ops=np.zeros((2, 1), dtype=np.int64), probs=np.full(2, 0.5),
                                 fids=[np.array([1.0, 1.0 - gap])], counts=(1,), copies=None)
        assert cli._transcript_summary(table)["all_fidelities_pass"] is passes

    def test_fidelity_verdict_reads_every_receiver(self, tmp_path, monkeypatch):
        """A fabricated two-receiver table whose receiver 1 has fidelity 0.5
        on one branch, while receiver 0 has 1 on every branch: the summary
        and ``run``'s verdict both fail."""
        table = _TranscriptTable(outcomes=np.zeros((2, 4), dtype=np.int64), parity=np.zeros(2, dtype=np.int64),
                                 ops=np.zeros((2, 2), dtype=np.int64), probs=np.full(2, 0.5),
                                 fids=[np.ones(2), np.array([1.0, 0.5])], counts=(1, 1), copies=None)
        summary = cli._transcript_summary(table)
        assert (summary["min_fidelity"], summary["all_fidelities_pass"]) == (0.5, False)
        monkeypatch.setattr(cli, "_network_table", lambda *args: table)
        out = tmp_path / "r.json"
        assert run_cli("run", "--ml", "1", "1", "--n", "1", "--enumerate", "--out", str(out)) == 1
        report = json.loads(out.read_text())
        assert (report["summary"]["min_fidelity"], report["summary"]["all_fidelities_pass"]) == (0.5, False)

    def test_diagonal_check_matches_the_per_report_check(self):
        """The run summary's column check against ``diag_matches`` on the
        reports of the same table, with entries nudged past the 1e-12 bar."""
        spec = MessageSpec.random(2, np.random.default_rng(3))
        table, kept = _network_defection([spec], NetworkShape.single(2, 2), 1)
        stacks = [ops[inverse] for ops, inverse in table.operators]
        stacks[0][5, 0, 0] += 3e-12
        stacks[1][9, 1, 1] -= 3e-12
        stacks[1][20, 0, 0] += 5e-13
        table.off[12, 1] = 2e-12
        # the nudged operators' own distinct operators and indices
        table = table._replace(operators=[(m[first], inverse)
                                          for m in stacks for first, inverse in [_distinct(row_keys(m))]])
        want = [r.off_diagonal_norm < 1e-12 and all(diag_matches(r, q, spec) for q in range(2))
                for r in _reports(table, kept, 1)]
        assert _diagonal_ok(table, spec.qubits).tolist() == want
        assert want.count(False) == 3

    def test_fidelities_have_at_most_15_significant_digits(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli("run", "--m", "1", "--n", "1", "--enumerate", "--out", str(out))
        report = json.loads(out.read_text())
        for t in report["transcripts"]:
            assert t["fidelity"] == float(f"{t['fidelity']:.15g}")


@pytest.mark.parametrize("value,want", [
    (True, None), (2.0, 2), (1.7, None), (None, None), (10**20, 10**20), (float("inf"), None), (float("nan"), None),
])
def test_the_cli_and_the_shape_take_integers_by_one_rule(value, want):
    if want is None:
        with pytest.raises(ValueError, match="^num_agents takes integers"):
            NetworkShape.single(1, value)
        with pytest.raises(ConfigError, match=rf"^n must be an integer, got {re.escape(repr(value))}$"):
            _as_int(value, "n")
    else:
        assert NetworkShape.single(1, value).num_agents == _as_int(value, "n") == want
        assert type(_as_int(value, "n")) is int


class TestCompareCommand:
    def test_sweep_table(self, tmp_path, capsys):
        out = tmp_path / "table.json"
        assert run_cli("compare", "--n", "1", "--m", "1..5", "--out", str(out)) == 0
        table = json.loads(out.read_text())
        assert table["first_dominating_m"] == 3
        row1 = table["rows"][0]
        assert (row1["m"], row1["aux_entangling"], row1["aux_baseline"]) == (1, 4, 3)
        text = capsys.readouterr().out
        assert "aux(new)" in text

    def test_two_receiver_comparison(self, tmp_path):
        out = tmp_path / "cmp.json"
        assert run_cli("compare", "--k", "2", "--ml", "1", "--n", "2", "--out", str(out)) == 0
        table = json.loads(out.read_text())
        assert table["entangling"]["aux_qubits"] == 7
        assert table["ghz_baseline"]["aux_qubits"] == 8

    def test_equal_aux_flags_at_two_messages(self, tmp_path):
        out = tmp_path / "t.json"
        run_cli("compare", "--n", "1", "--m", "2", "--out", str(out))
        row = json.loads(out.read_text())["rows"][0]
        assert row["aux_equal"] is True
        assert row["ops_advantage"] is True

    def test_compare_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("compare", "--n", "2", "--m", "1..6", "--out", str(a))
        run_cli("compare", "--n", "2", "--m", "1..6", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_out_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert run_cli("compare", "--n", "1", "--m", "1..3", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write report: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_huge_m_range_is_refused_before_any_list_is_built(self, capsys):
        tracemalloc.start()
        try:
            code = run_cli("compare", "--n", "1", "--m", "1..10000000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err == f"error: --m range 1..10000000000 holds more than {MAX_M_RANGE} values\n"
        assert peak < 1 << 20

    def test_ml_shape_is_not_held_to_the_simulator_capacity(self, capsys):
        # 36 qubits to simulate, but compare only counts: the same ledger as --m 10
        assert run_cli("compare", "--ml", "10", "--n", "5") == 0
        assert "aux qubits:        26 vs 70\n" in capsys.readouterr().out

    def test_huge_ml_receiver_count_is_refused_before_any_list_is_built(self, capsys):
        tracemalloc.start()
        try:
            code = run_cli("compare", "--ml", "1", "--k", "3000000", "--n", "1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err == f"error: shape has 3000000 receivers, more than {MAX_M_RANGE}\n"
        assert peak < 1 << 20

    def test_m_range_at_the_limit_runs(self, tmp_path):
        out = tmp_path / "t.json"
        assert run_cli("compare", "--n", "1", "--m", f"1..{MAX_M_RANGE}", "--out", str(out)) == 0
        assert len(json.loads(out.read_text())["rows"]) == MAX_M_RANGE

    def test_compare_needs_m_or_ml(self):
        assert run_cli("compare", "--n", "1") == 2

    @pytest.mark.parametrize("argv", [
        ["--m", "abc"], ["--m", "1..x"], ["--n", "0", "--m", "1..3"], ["--n", "2", "--m", "0..3"],
        ["--m", "3", "--k", "5", "--n", "1"], ["--m", "3", "--k", "0", "--n", "1"],
    ], ids=["abc", "1..x", "n-zero", "m-zero", "k-with-m-range", "k-zero-with-m"])
    def test_malformed_m_range_is_config_error(self, capsys, argv):
        assert run_cli("compare", *argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestSelftest:
    def test_passes_and_prints_lines(self, capsys):
        assert run_cli("selftest") == 0
        out = capsys.readouterr().out
        for name in (
            "reconstruction",
            "ghz_parity_decomposition",
            "defection_diagonality",
            "baseline_equivalence",
            "corrupted_table_detected",
            "enumerate_determinism",
        ):
            assert f"[selftest] {name}: ok" in out

    def test_wrong_correction_table_fails_with_its_lines(self, capsys, monkeypatch):
        # each outcome's EVEN and ODD corrections swapped: every odd-parity branch is corrected wrong
        monkeypatch.setattr(protocol, "CORRECTIONS", {o: (odd, even) for o, (even, odd) in CORRECTIONS.items()})
        assert run_cli("selftest") == 1
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if ": FAIL (" in line]
        assert [line.split(":")[0] for line in failed] == ["[selftest] reconstruction",
                                                           "[selftest] baseline_equivalence"]
        assert all(line.endswith("below bar at m=1 n=1)") for line in failed)
        assert lines[-1] == "[selftest] failed: reconstruction, baseline_equivalence"

    @staticmethod
    def _verdict(capsys, name):
        code = run_cli("selftest")
        line, = [line for line in capsys.readouterr().out.splitlines() if line.startswith(f"[selftest] {name}: ")]
        return code, line.split(": ", 1)[1].split(" ")[0]

    @pytest.mark.parametrize("offset, want", [(2e-9, (1, "FAIL")), (5e-10, (0, "ok"))])
    def test_reconstruction_holds_the_probability_sum_bar(self, capsys, monkeypatch, offset, want):
        summary = cli._transcript_summary

        def shifted(*args):
            out = summary(*args)
            out["branch_probability_sum"] += offset
            return out

        monkeypatch.setattr(cli, "_transcript_summary", shifted)
        assert self._verdict(capsys, "reconstruction") == want

    @pytest.mark.parametrize("weight, want", [(1 - 2e-12, (1, "FAIL")), (1 - 5e-13, (0, "ok"))])
    def test_parity_decomposition_holds_its_bar(self, capsys, monkeypatch, weight, want):
        decompose = cli.parity_decompose

        def moved(*args):
            weights = decompose(*args)
            weights[max(weights, key=weights.get)] = weight  # the expected class holds all the mass
            return weights

        monkeypatch.setattr(cli, "parity_decompose", moved)
        assert self._verdict(capsys, "ghz_parity_decomposition") == want

    def test_builds_no_library_record(self, capsys, monkeypatch):
        # selftest judges on branch tables: no transcript or defection report is built
        def refuse(*args):
            raise AssertionError("selftest built a library record")

        monkeypatch.setattr(protocol, "_record", refuse)
        monkeypatch.setattr(defection, "_record", refuse)
        assert run_cli("selftest") == 0
        assert capsys.readouterr().out.endswith("[selftest] all checks passed\n")

    @pytest.mark.parametrize("check, name, fake, problem", [
        ("reconstruction", "_transcript_summary", lambda real: lambda *a: real(*a) | {"num_transcripts": 17},
         "branch count 17 wrong for m=1 n=1"),
        # the odd GHZ built as the even one: its parity mass sits on the other class
        ("ghz_parity_decomposition", "prepare_ghz", lambda real: lambda size, sign: real(size, +1),
         "parity mass off for size=2 sign=-1"),
        ("defection_diagonality", "_diagonal_ok", lambda real: lambda *a: ~real(*a),
         "defection leaves a non-diagonal or wrong diagonal at m=1 n=1"),
        ("corrupted_table_detected", "_network_table", lambda real: lambda *a, table=None: real(*a),
         "reconstruction did not fail under a corrupted correction table"),
    ], ids=["branch-count", "odd-ghz", "defection-diagonal", "corrupted-table-ignored"])
    def test_each_check_names_its_failure(self, capsys, monkeypatch, check, name, fake, problem):
        monkeypatch.setattr(cli, name, fake(getattr(cli, name)))
        assert run_cli("selftest") == 1
        lines = capsys.readouterr().out.splitlines()
        assert f"[selftest] {check}: FAIL ({problem})" in lines
        assert lines[-1] == f"[selftest] failed: {check}"

    def test_each_check_runs_at_its_shapes(self, capsys, monkeypatch):
        calls = []
        for name in ("_network_table", "_network_defection", "_baseline_branches"):
            def spy(spec, shape, *args, _name=name, _real=getattr(cli, name), **kwargs):
                calls.append((_name, shape.total_messages, shape.num_agents, *args))
                return _real(spec, shape, *args, **kwargs)

            monkeypatch.setattr(cli, name, spy)
        assert run_cli("selftest") == 0
        shapes = [(m, n) for m in (1, 2) for n in (1, 2)]
        assert calls == ([("_network_table", m, n, "enumerate", None) for m, n in shapes for _ in range(3)]
                         + [("_network_defection", m, n, defector) for m, n in shapes for defector in range(n)]
                         + [("_baseline_branches", m, n) for m, n in shapes]
                         + [("_network_table", m, n, "enumerate", None) for m, n in ((1, 1), (2, 1), (2, 1))])
