"""Fuzzed inputs for every file-reading subcommand, and ``synth``'s options.

Each example breaks one input file of a subcommand: it truncates it,
replaces a PFM header token, pokes a non-finite or negative value into a
PFM payload, or drops, retypes or pushes out of range one key of a JSON
document. Every mutation is invalid by construction, so the CLI must exit
with status 2 and write exactly one ``error: <code>: <message>`` line, and
no warning. ``synth`` runs on small option values, valid or not: a valid
set exits 0 and writes nothing to stderr, an invalid one fails as above.
"""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from panoroom.cli import main

H, W = 8, 16
PFM_HEADER = f"Pf\n{W} {H}\n-1.0\n".encode("ascii")

LAYOUT = {
    "width": W,
    "height": H,
    "ceil": [2.5] * W,
    "floor": [5.5] * W,
    "corner_prob": [1.0 if c in (2, 6, 10, 14) else 0.0 for c in range(W)],
}
ROOM = {
    "vertices": [[-2.0, -1.5], [2.5, -1.5], [2.5, 1.8], [-2.0, 1.8]],
    "cam_to_floor": 1.4,
    "cam_to_ceil": 1.1,
}

# subcommand: its options, each naming a PFM map ("pfm"), a segmentation
# map in [0, 1] ("seg"), a layout or a room
SUBCOMMANDS = {
    "bg": {"--layout": "layout", "--coarse": "pfm"},
    "fuse": {"--coarse": "pfm", "--bg": "pfm", "--seg": "seg"},
    "seglabel": {"--gt": "pfm", "--bg": "pfm"},
    "denoise": {"--gt": "pfm", "--bg": "pfm", "--room": "room"},
    "eval": {"--pred": "pfm", "--gt": "pfm", "--mask": "seg"},
    "pointcloud": {"--depth": "pfm"},
}
OUTPUT_OPTION = {"eval": "--json"}


def _pfm_bytes(values):
    return PFM_HEADER + np.flipud(values).astype("<f4").tobytes()


VALID = {
    "pfm": _pfm_bytes(np.full((H, W), 2.0)),
    "seg": _pfm_bytes(np.full((H, W), 0.5)),
    "layout": json.dumps(LAYOUT).encode("ascii"),
    "room": json.dumps(ROOM).encode("ascii"),
}


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _parses(parse, token):
    try:
        return parse(token)
    except ValueError:
        return None


@st.composite
def broken_pfm(draw, valid):
    kind = draw(st.sampled_from(["truncate", "token", "value"]))
    if kind == "truncate":
        return valid[: draw(st.integers(0, len(valid) - 1))]
    if kind == "token":
        tokens = PFM_HEADER.split()
        k = draw(st.integers(0, 3))
        tokens[k] = draw(st.binary(min_size=1, max_size=6).filter(lambda b: not any(c in b for c in b" \t\r\n")))
        if k == 0:
            assume(tokens[0] != b"Pf")
        elif k == 3:
            assume(_parses(float, tokens[3]) in (None, 0.0))
        else:
            w, h = (_parses(int, t) for t in tokens[1:3])
            # a header that still reads a 2:1 grid from the payload is valid
            assume(w is None or h is None or h <= 0 or w != 2 * h or w * h > W * H)
        return b"\n".join(tokens) + b"\n" + valid[len(PFM_HEADER) :]
    values = np.frombuffer(valid[len(PFM_HEADER) :], dtype="<f4").copy()
    values[draw(st.integers(0, H * W - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf, -1.0, -1e-3]))
    return PFM_HEADER + values.tobytes()


_WRONG_TYPE = st.one_of(
    st.text(max_size=4), st.none(), st.booleans(),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])


@st.composite
def broken_json(draw, doc, out_of_range):
    kind = draw(st.sampled_from(["truncate", "drop", "retype", "range"]))
    if kind == "truncate":
        text = json.dumps(doc)
        return text[: draw(st.integers(0, len(text) - 1))].encode("ascii")
    doc = json.loads(json.dumps(doc))
    key = draw(st.sampled_from(sorted(doc)))
    if kind == "drop":
        del doc[key]
    elif kind == "retype":
        doc[key] = draw(_WRONG_TYPE)
    else:
        key, strategy = draw(st.sampled_from(sorted(out_of_range.items())))
        if isinstance(doc[key], list):
            i = draw(st.integers(0, len(doc[key]) - 1))
            if isinstance(doc[key][i], list):
                doc[key][i][draw(st.integers(0, 1))] = draw(strategy)
            else:
                doc[key][i] = draw(strategy)
        else:
            doc[key] = draw(strategy)
    return json.dumps(doc).encode("utf-8")


LAYOUT_OUT_OF_RANGE = {
    "width": st.integers(-4, 40).filter(lambda w: w != W),
    "height": st.integers(-4, 40).filter(lambda h: h != H),
    "ceil": st.one_of(st.floats(max_value=0.0), st.floats(min_value=H / 2), _NON_FINITE),
    "floor": st.one_of(st.floats(max_value=H / 2), st.floats(min_value=H), _NON_FINITE),
    "corner_prob": st.one_of(st.floats(max_value=-1e-9), st.floats(min_value=1.0 + 1e-9), _NON_FINITE),
}
ROOM_OUT_OF_RANGE = {
    "cam_to_floor": st.one_of(st.floats(max_value=0.0), _NON_FINITE, st.just(10**400)),
    "cam_to_ceil": st.one_of(st.floats(max_value=0.0), _NON_FINITE, st.just(10**400)),
    "vertices": st.one_of(_NON_FINITE, st.just(10**400)),
}


def broken(kind):
    if kind in ("pfm", "seg"):
        return broken_pfm(VALID[kind])
    if kind == "layout":
        return broken_json(LAYOUT, LAYOUT_OUT_OF_RANGE)
    return broken_json(ROOM, ROOM_OUT_OF_RANGE)


@st.composite
def broken_input(draw, command):
    option = draw(st.sampled_from(sorted(SUBCOMMANDS[command])))
    return option, draw(broken(SUBCOMMANDS[command][option]))


def run(command, work_dir, option=None, payload=None):
    """Exit status and stderr lines (warnings included) of ``command`` with
    ``payload`` as the file of ``option`` and valid files for the rest."""
    argv = [command]
    for opt, kind in SUBCOMMANDS[command].items():
        path = work_dir / f"{command}{opt}"
        path.write_bytes(payload if opt == option else VALID[kind])
        argv += [opt, str(path)]
    argv += [OUTPUT_OPTION.get(command, "--out"), str(work_dir / f"{command}.out")]
    return run_argv(argv)


def run_argv(argv):
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(argv)
    return rc, err.getvalue().splitlines() + [str(w.message) for w in caught]


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_broken_input_gives_one_error_line(work_dir, command):
    assert run(command, work_dir) == (0, [])

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(broken_input(command))
    def check(case):
        rc, lines = run(command, work_dir, *case)
        assert rc == 2, case
        assert len(lines) == 1 and lines[0].startswith("error: "), (case, lines)

    check()


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    count=st.integers(-2, 2),
    height=st.integers(-2, 40),
    boxes=st.tuples(st.integers(-2, 6), st.integers(-2, 6)),
)
def test_synth_options(tmp_path_factory, count, height, boxes):
    out = tmp_path_factory.mktemp("synth")
    argv = ["synth", "--seed", "0", "--count", str(count), "--height", str(height),
            "--boxes", *map(str, boxes), "--out-dir", str(out)]
    rc, lines = run_argv(argv)
    if count >= 1 and height >= 1 and 0 <= boxes[0] <= boxes[1]:
        assert (rc, lines) == (0, [])
        assert len(list(out.iterdir())) == count
    else:
        assert rc == 2, argv
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
