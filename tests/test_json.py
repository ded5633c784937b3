"""``formats.write_json`` against the text of ``json.dumps(obj, indent=2)``.

The writer joins the ``float.__repr__`` strings of a flat list of finite
floats itself and writes every other value through ``json.dumps`` of that
value alone, so its output must match the pure-Python encoder that
``indent`` selects byte for byte.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from panoroom import formats

FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-7]),
)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, st.text())
KEYS = st.one_of(st.text(), st.integers(), FLOATS, st.booleans(), st.none())
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=4),
        # the writer's own path: flat lists of floats, finite or not
        st.lists(FLOATS, max_size=8),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_write_json_matches_json_dumps(tmp_path_factory, obj):
    path = tmp_path_factory.getbasetemp() / "o.json"
    formats.write_json(obj, str(path))
    assert path.read_bytes() == (json.dumps(obj, indent=2) + "\n").encode("ascii")


def test_layout_dict_matches_json_dumps(tmp_path):
    """A layout's lists of 1024 floats: the writer's joined form."""
    obj = {
        "width": 1024,
        "height": 512,
        "ceil": [100.0 + k / 7.0 for k in range(1024)],
        "floor": [400.0 - k / 3.0 for k in range(1024)],
        "corner_prob": [0.0] * 1020 + [1.0, 0.5, 5e-324, -0.0],
    }
    path = tmp_path / "layout.json"
    formats.write_json(obj, str(path))
    assert path.read_bytes() == (json.dumps(obj, indent=2) + "\n").encode("ascii")
