"""The CLI's report writer, which lays out each record shape once and fills
it per record, against one stdlib dump of the whole report."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from teleportnet.cli import _report_text

from _oracles import report_text

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
records = st.dictionaries(texts, values, max_size=5)


def _refill(template, draw):
    """A record of the template's shape with newly drawn leaves."""
    if isinstance(template, dict):
        return {k: _refill(v, draw) for k, v in template.items()}
    if isinstance(template, (list, tuple)):
        return [_refill(v, draw) for v in template]
    return draw(leaves)


@st.composite
def record_lists(draw):
    """Up to 8 records drawn from two or three shapes, each record with its own leaves."""
    shapes = draw(st.lists(records, min_size=2, max_size=3))
    return [_refill(draw(st.sampled_from(shapes)), draw) for _ in range(draw(st.integers(0, 8)))]


@settings(max_examples=150, deadline=None)
@given(record_lists(), st.dictionaries(texts, values, max_size=4),
       st.sampled_from(["transcripts", "branches"]))
def test_report_text_matches_one_stdlib_dump(recs, envelope, key):
    report = {**envelope, "scenario": {"note": "\x00", "%s": "%", key: "\x00"}, key: recs}
    assert _report_text(report) == report_text(report)


def test_zero_signs_and_bool_int_float_stay_apart():
    recs = [{"x": v} for v in (0.0, -0.0, 0.0, 1, True, 1.0, 1, False, 0, -0.0)]
    assert _report_text({"branches": recs}) == report_text({"branches": recs})
