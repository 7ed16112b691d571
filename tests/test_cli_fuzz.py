"""Fuzz the command line: bad input ends in exit code 2, never a traceback.

Spec files are drawn as raw bytes and as valid spec JSON with one field
replaced, deleted or descended into, optionally with a few bytes spliced in;
ring arguments as catalog names with a character changed, products,
GF(q) aliases and free text; ideal selectors as free text and as '#k' and
'gen:...' shapes.
"""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from zdgenus.catalog import catalog_entries
from zdgenus.cli import main

SEED_SPECS = [
    {"kind": "zmod", "n": 6},
    {"kind": "gf", "p": 2, "k": 2, "name": "F_4"},
    {"kind": "product", "name": "Z_2×Z_3",
     "factors": [{"kind": "zmod", "n": 2}, {"kind": "zmod", "n": 3}]},
    {"kind": "quotient", "base": 2, "variables": ["x", "y"],
     "relations": [["x^2", "0"], ["x*y", "0"], ["y^2", "0"]],
     "expected_order": 8, "name": "Z_2[x,y]/(x²,xy,y²)"},
]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70)
    | st.floats(allow_nan=False) | st.text(max_size=4)
    | st.sampled_from(["x", "y", "0", "x^2", "zmod", "quotient"]),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "n", "name", "x"]), kids,
                      max_size=3),
    max_leaves=6,
)


def _mutate(draw, node):
    """node with one drawn position replaced, deleted or descended into."""
    if isinstance(node, dict) and node:
        key = draw(st.sampled_from(sorted(node)))
        action = draw(st.sampled_from(["replace", "delete", "descend"]))
        out = dict(node)
        if action == "delete":
            del out[key]
        else:
            out[key] = (draw(JSON_VALUES) if action == "replace"
                        else _mutate(draw, node[key]))
        return out
    if isinstance(node, list) and node and draw(st.booleans()):
        i = draw(st.integers(0, len(node) - 1))
        return node[:i] + [_mutate(draw, node[i])] + node[i + 1:]
    return draw(JSON_VALUES)


@st.composite
def mutated_specs(draw) -> bytes:
    spec = _mutate(draw, draw(st.sampled_from(SEED_SPECS)))
    data = json.dumps(spec, ensure_ascii=draw(st.booleans())).encode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
    return data


def _exit_code(argv: list[str]) -> int:
    """main's exit code, with stdout and stderr discarded; argparse reports
    a bad command line by raising SystemExit."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=80)
@given(st.binary(max_size=40) | mutated_specs())
def test_ring_spec_file_exits_0_or_2(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz-ring.json"
    path.write_bytes(data)
    assert _exit_code(["ring", str(path)]) in (0, 2)


NAMES = [e.name for e in catalog_entries()]
GF_ALIASES = st.builds("{}({})".format, st.sampled_from(["GF", "gf", "Gf"]),
                       st.integers(0, 130))
NAME_CHARS = st.sampled_from("Z_F[]()x×,²³^+-0123456789 ") | st.characters()


@st.composite
def mutated_names(draw) -> str:
    """A catalog name with one character replaced, inserted or deleted."""
    name = draw(st.sampled_from(NAMES))
    at = draw(st.integers(0, len(name) - 1))
    action = draw(st.sampled_from(["replace", "insert", "delete"]))
    if action == "delete":
        return name[:at] + name[at + 1:]
    char = draw(NAME_CHARS)
    return name[:at] + char + name[at + (action == "replace"):]


RING_ARGS = (
    mutated_names()
    | st.builds(str.join, st.sampled_from(["×", "x"]),
                st.lists(st.sampled_from(NAMES) | GF_ALIASES, min_size=2,
                         max_size=3))
    | GF_ALIASES
    | st.text(max_size=12)
    | st.builds("{}.json".format, st.text(max_size=8))
)


@settings(max_examples=150)
@given(RING_ARGS)
@example("\x00.json").via("a NUL in a spec path")
def test_ring_argument_exits_0_or_2(arg):
    assert _exit_code(["ring", arg]) in (0, 2)


SELECTORS = (
    st.text(max_size=8)
    | st.from_regex(r"#-?[0-9]{1,3}", fullmatch=True)
    | st.builds("gen:{}".format, st.text(alphabet="0123456789(), x-",
                                         max_size=8))
)


@settings(max_examples=60)
@given(st.sampled_from(["Z_6", "Z_8", "Z_2×Z_2", "F_4"]), SELECTORS)
def test_graph_selector_exits_0_or_2(ring, selector):
    assert _exit_code(["graph", ring, selector]) in (0, 2)
