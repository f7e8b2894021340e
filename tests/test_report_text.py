"""The CLI's report writer, which walks the report once with each record shape
in place of its records and writes that shape's records from code columns,
against one stdlib dump of the whole report; and the report of ``run`` against
the same report built from the library's objects."""

import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from teleportnet import NetworkShape, cli
from teleportnet.cli import _BITS, _Column, _float_column, _report_pieces
from teleportnet.protocol import _network_table

from _oracles import _round_floats, report_text, run_report

# pieces that a fill-in-the-frame writer could mistake for its own syntax
PIECES = ["%", "%s", "%%", "\x00", '"', "\\", "\n", '\n  "transcripts": ', "a", "é", "→", "😀"]

texts = st.one_of(st.text(max_size=6), st.lists(st.sampled_from(PIECES), max_size=4).map("".join))
floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf, -math.inf,
                     0.1 + 0.2, 1 - 2**-53, 1 + 2**-52, 2 / 3, 5e-324, 1.2345678901234567e300]),
    st.floats(allow_nan=True, allow_infinity=True),
)
leaves = st.one_of(st.sampled_from([1, True, False, None, 0]), st.integers(-2**70, 2**70), floats, texts)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(texts, inner, max_size=3),
    ),
    max_leaves=8,
)


class Col:
    """A column's place in a drawn record shape."""

    def __init__(self, kind):
        self.kind = kind


shape_leaves = st.one_of(
    st.sampled_from(["float", "bits", "lookup"]).map(Col),
    st.one_of(st.sampled_from([1, True, False, None, 0]), st.integers(-2**70, 2**70), floats, texts),
)
record_shapes = st.dictionaries(texts, st.recursive(
    shape_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(texts, inner, max_size=3)),
    max_leaves=8,
), max_size=5)


@st.composite
def record_lists(draw):
    """One to three record shapes filled from columns of 1 to 8 rows: the
    writer's skeletons and the records they stand for, row by row."""
    shapes = draw(st.lists(record_shapes, min_size=1, max_size=3))
    rows = draw(st.integers(1, 8))
    column_values = {}

    def column(kind):
        if kind == "float":
            xs = draw(st.lists(floats, min_size=rows, max_size=rows))
            return _float_column(np.array(xs, dtype=float)), xs
        if kind == "bits":
            bits = draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows))
            return _Column(_BITS, np.array(bits)), bits
        choices = draw(st.lists(st.one_of(texts, st.integers(-2**70, 2**70), st.booleans(), st.none()),
                                min_size=1, max_size=4))
        codes = draw(st.lists(st.integers(0, len(choices) - 1), min_size=rows, max_size=rows))
        return _Column([json.dumps(c) for c in choices], np.array(codes)), [choices[c] for c in codes]

    def fill(node):
        if isinstance(node, dict):
            return {k: fill(v) for k, v in node.items()}
        if isinstance(node, list):
            return [fill(v) for v in node]
        if not isinstance(node, Col):
            return node
        col, vals = column(node.kind)
        column_values[id(col)] = vals
        return col

    def row(node, i):
        if isinstance(node, dict):
            return {k: row(v, i) for k, v in node.items()}
        if isinstance(node, list):
            return [row(v, i) for v in node]
        return column_values[id(node)][i] if isinstance(node, _Column) else node

    skeletons = [fill(s) for s in shapes]
    assume(column_values)
    return skeletons, [row(s, i) for i in range(rows) for s in skeletons]


@settings(max_examples=150, deadline=None)
@given(record_lists(), st.dictionaries(texts, values, max_size=4),
       st.sampled_from(["transcripts", "branches"]), st.integers(1, 4))
def test_report_text_matches_one_stdlib_dump(recs, envelope, key, chunk):
    skeletons, records = recs
    scenario = {"note": "\x00", "%s": "%", key: "\x00"}
    with mock.patch.object(cli, "_CHUNK", chunk):
        got = "".join(_report_pieces({**envelope, "scenario": scenario, key: skeletons}, key))
    assert got == report_text({**envelope, "scenario": scenario, key: records}) + "\n"


def test_zero_signs_and_bool_int_float_stay_apart():
    xs = [0.0, -0.0, 0.0, 1.0, -0.0, 1.0]
    choices = [1, True, False, 0, 1.0]
    codes = [0, 1, 0, 2, 3, 4]
    skeleton = {"x": _float_column(np.array(xs)), "y": _Column([json.dumps(c) for c in choices], np.array(codes)),
                "z": -0.0}
    records = [{"x": x, "y": choices[c], "z": -0.0} for x, c in zip(xs, codes)]
    assert "".join(_report_pieces({"branches": [skeleton]}, "branches")) == report_text({"branches": records}) + "\n"


def test_a_value_json_cannot_hold_raises_the_stdlib_error():
    with pytest.raises(TypeError) as want:
        json.dumps(np.int64(1))
    assert str(want.value) == "Object of type int64 is not JSON serializable"
    skeleton = {"b": _Column(_BITS, np.array([0, 1])), "x": np.int64(1)}
    for report, key in (({"x": np.int64(1)}, None), ({"branches": [skeleton]}, "branches")):
        with pytest.raises(TypeError, match=f"^{want.value}$"):
            "".join(_report_pieces(report, key))


def test_a_nul_in_a_key_or_constant_is_written_as_the_stdlib_writes_it():
    # columns are holes by position among the walk's pieces, so no character of the text is reserved
    bits = [0, 1, 1]
    skeleton = {'"\x00': _Column(_BITS, np.array(bits)), "\x00": ["\x00", {"k": '\x00"'}]}
    records = [{'"\x00': b, "\x00": ["\x00", {"k": '\x00"'}]} for b in bits]
    report = {"scenario": {"\x00": "\x00"}, "branches": [skeleton]}
    got = "".join(_report_pieces(report, "branches"))
    assert got == report_text({**report, "branches": records}) + "\n"


@pytest.mark.parametrize("rows", [2, 3, 4, 6, 7])
def test_each_chunk_holds_whole_records_and_only_the_last_lacks_the_comma(rows):
    # two records a row, as a run with two receivers writes them, in chunks of three rows
    xs, bits, names = [i / 4 for i in range(rows)], [i % 2 for i in range(rows)], ["a", "%s", "\n"]
    shared = _Column(_BITS, np.array(bits))
    skeletons = [{"x": _float_column(np.array(xs)), "bit": shared, "k": 0},
                 {"bit": shared, "name": _Column([json.dumps(s) for s in names], np.arange(rows) % 3)}]
    records = [r for i in range(rows) for r in ({"x": xs[i], "bit": bits[i], "k": 0},
                                                 {"bit": bits[i], "name": names[i % 3]})]
    with mock.patch.object(cli, "_CHUNK", 3):
        pieces = list(_report_pieces({"scenario": {}, "transcripts": skeletons, "summary": {}}, "transcripts"))
    assert "".join(pieces) == report_text({"scenario": {}, "transcripts": records, "summary": {}}) + "\n"
    chunks = pieces[1:-1]
    assert [c.count('"bit"') for c in chunks] == [2 * min(3, rows - first) for first in range(0, rows, 3)]
    assert [c.endswith(",\n") for c in chunks] == [True] * (len(chunks) - 1) + [False]


def test_the_writer_holds_a_fraction_of_the_report():
    # the table is built first: what is traced is what the records, the summary and the writer hold
    shape = NetworkShape.single(5, 3)
    specs, _ = cli._build_specs({}, shape)
    table = _network_table(specs, shape, "enumerate", None)
    tracemalloc.start()
    try:
        report = {"schema_version": 1, "command": "run", "kind": "protocol_run",
                  "transcripts": cli._transcript_records(table), "summary": cli._transcript_summary(table)}
        size = sum(map(len, _report_pieces(report, "transcripts")))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 7_000_000
    assert peak < 0.2 * size


def test_float_column_texts_match_the_stdlib():
    other_nan = (np.array([math.nan]).view(np.uint64) ^ 1).view(np.float64)[0]
    xs = np.array([
        0.0, -0.0, math.nan, other_nan, math.inf, -math.inf, 0.0, -0.0, math.nan, -math.inf,
        0.1 + 0.2, 0.1 + 0.2, 1 - 2**-53, 1 + 2**-52, 2 / 3, 5e-324, -5e-324, 1.2345678901234567e300,
        # these round at the 15th significant digit
        1.0000000000000049, 0.99999999999999951, 0.12345678901234549, 0.12345678901234551,
        123456789012345.67, 2.0000000000000004, -1.2345678901234549e-7, 1e16 + 2,
    ])
    with mock.patch.object(cli, "_float_text", wraps=cli._float_text) as float_text:
        col = _float_column(xs)
    assert [col.texts[c] for c in col.codes.tolist()] == [json.dumps(_round_floats(x)) for x in xs.tolist()]
    assert float_text.call_count == len(set(xs.view(np.uint64).tolist()))  # once per bit pattern
    for x in [0.0, -0.0, math.nan, other_nan, math.inf, -math.inf, 5e-324]:  # a one-row table's columns
        with mock.patch.object(cli, "_float_text", wraps=cli._float_text) as float_text:
            col = _float_column(np.array([x]))
        assert [col.texts[c] for c in col.codes.tolist()] == [json.dumps(_round_floats(x))]
        assert float_text.call_count == 1


@st.composite
def run_scenarios(draw):
    """A small ``run`` as a spec file's object and the report's ``scenario``."""
    counts = draw(st.sampled_from([(1,), (2,), (1, 1), (1, 2), (2, 1)]))
    n = draw(st.integers(1, 3))
    qubit = st.lists(st.lists(st.floats(-1, 1), min_size=2, max_size=2), min_size=2, max_size=2).filter(
        lambda q: sum(x * x for pair in q for x in pair) > 1e-6)
    source = draw(st.one_of(
        st.integers(0, 2**32 - 1).map(lambda seed: {"kind": "random", "seed": seed}),
        st.sampled_from(["zero", "one"]).map(lambda name: {"kind": "preset", "name": name}),
        st.lists(qubit, min_size=sum(counts), max_size=sum(counts)).map(
            lambda amps: {"kind": "explicit", "amplitudes": amps}),
    ))
    kind = draw(st.sampled_from(["enumerate", "sampled", "defector"]))
    seed = draw(st.integers(0, 2**31)) if kind == "sampled" else None
    defector = draw(st.integers(1, n)) if kind == "defector" else None
    spec = {"ml": list(counts), "n": n, "messages": source}
    if kind == "enumerate":
        spec["mode"] = "enumerate"
    elif kind == "sampled":
        spec["seed"] = seed
    else:
        spec["defector"] = defector
    scenario = {
        "message_counts": list(counts), "num_agents": n, "mode": "sampled" if kind == "sampled" else "enumerate",
        "seed": seed, "defector": defector, "message_source": source,
    }
    return spec, scenario


@settings(max_examples=25, deadline=None)
@given(run_scenarios())
def test_run_report_matches_library_objects(tmp_path_factory, scenario):
    spec, want = scenario
    work = tmp_path_factory.mktemp("run")
    (work / "spec.json").write_text(json.dumps(spec))
    code = cli.main(["run", "--spec", str(work / "spec.json"), "--out", str(work / "report.json")])
    shape = NetworkShape(tuple(spec["ml"]), spec["n"])
    specs, _ = cli._build_specs(spec, shape)
    report, want_code = run_report(specs, shape, want)
    assert code == want_code
    assert (work / "report.json").read_text() == report_text(report) + "\n"


# nested record keys and a string that spells the end of the records, were a
# string's newline not escaped
HOSTILE_SOURCE = {
    "kind": "preset", "name": "plus", "end": "\n  ]",
    "transcripts": [["\n  ]", {"branches": ["\n  ]\n", "  ]"]}]], "branches": [{"transcripts": [[]]}, "]"],
}


@pytest.mark.parametrize("defector", [None, 2], ids=["enumerate", "defection"])
def test_nested_record_keys_in_the_spec_stay_in_the_scenario(tmp_path, defector):
    # a defection report's "branches" sorts before the scenario, a run's "transcripts" after it
    spec = {"ml": [1, 1], "n": 2, "messages": HOSTILE_SOURCE, "mode": "enumerate", "defector": defector}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    code = cli.main(["run", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "report.json")])
    shape = NetworkShape((1, 1), 2)
    specs, _ = cli._build_specs(spec, shape)
    report, want_code = run_report(specs, shape, {
        "message_counts": [1, 1], "num_agents": 2, "mode": "enumerate", "seed": None, "defector": defector,
        "message_source": HOSTILE_SOURCE,
    })
    assert code == want_code == 0
    assert (tmp_path / "report.json").read_text() == report_text(report) + "\n"


@pytest.mark.parametrize("argv", [
    ["run", "--m", "2", "--n", "2", "--seed", "5"], ["run", "--ml", "1", "2", "--n", "2", "--enumerate"],
    ["run", "--m", "2", "--n", "1", "--defector", "1"], ["compare", "--n", "2", "--m", "1..6"],
    ["compare", "--k", "2", "--ml", "1", "--n", "2"],
], ids=["sampled", "enumerate-two-receivers", "defection", "compare-sweep", "compare-shape"])
def test_each_report_is_one_indented_dump(tmp_path, capsys, argv):
    # one walk writes the report, indented; no json.dumps call indents
    with mock.patch.object(json, "dumps", wraps=json.dumps) as dumps, \
            mock.patch.object(cli, "_report_pieces", wraps=cli._report_pieces) as pieces:
        assert cli.main([*argv, "--out", str(tmp_path / "report.json")]) == 0
    assert pieces.call_count == 1
    assert not [c for c in dumps.call_args_list if c.kwargs.get("indent") is not None]
