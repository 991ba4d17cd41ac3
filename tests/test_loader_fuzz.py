"""Hypothesis fuzzing of the four JSON loaders (group pair, bare matrix,
character table, Hopf algebra) through the CLI.

Each example starts from a valid input file, replaces one field or one nested
entry with a drawn JSON value, and runs the command in-process.  The run must
end in exit 0, or in exit 1 with an `error:` line on stderr; it must never
raise.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subdepth.chartab import compute_character_table
from subdepth.cli import main
from subdepth.permgroup import group_from_json

GOLDEN = Path(__file__).resolve().parent / "golden"

S2S3 = {"degree": 3, "generators": [[2, 1, 3], [2, 3, 1]],
        "subgroups": {"H": [[2, 1, 3]], "K": [[2, 3, 1]]}}

# Integers stay in [-3, 12] and strings come from a fixed list, so no draw
# asks for a large group, algebra or matrix.
STRINGS = ["", "H", "x", "0", "1", "-1", "2", "1/2", "-3/4", "1/0", "3:[0,1]",
           "3:[1]", "4:[0,1]", "0:[1]", "-2:[1]", "x:[1]", "3:[1,0", "3:[a]"]
leaves = (st.none() | st.booleans() | st.integers(-3, 12)
          | st.floats(-3, 12) | st.sampled_from(STRINGS))
json_values = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(STRINGS), inner, max_size=3)),
    max_leaves=8)


@st.composite
def mutations(draw, doc):
    """doc with one top-level field, or an entry nested in it, replaced: the
    walk picks a field and then descends one level further with probability
    one half, so every field is drawn about equally often."""
    out = copy.deepcopy(doc)
    parent, key = out, draw(st.sampled_from(sorted(out)))
    while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.booleans()):
        node = parent[key]
        parent, key = node, draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
    parent[key] = draw(json_values)
    return out


def run_cli(args):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in args])
    assert rc == 0 or (rc == 1 and err.getvalue().startswith("error:")), \
        (rc, err.getvalue())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "s2s3.json").write_text(json.dumps(S2S3))
    return path


def write(path, doc):
    path.write_text(json.dumps(doc))
    return path


@given(mutations(S2S3),
       st.sampled_from([["depth", "group"], ["mackey"], ["hecke"], ["chartab"]]))
@settings(max_examples=40, deadline=None)
def test_group_loader_never_raises(workdir, doc, command):
    run_cli([*command, write(workdir / "group.json", doc)])


@given(mutations(json.loads((GOLDEN / "path_matrix.json").read_text())))
@settings(max_examples=40, deadline=None)
def test_matrix_loader_never_raises(workdir, doc):
    run_cli(["depth", "matrix", write(workdir / "matrix.json", doc)])


def s2s3_table():
    # the table `subdepth chartab --json` writes for S3
    G, _ = group_from_json(S2S3)
    return json.loads(json.dumps(compute_character_table(G).to_json()))


@given(mutations(s2s3_table()))
@settings(max_examples=40, deadline=None)
def test_table_loader_never_raises(workdir, doc):
    run_cli(["chartab", workdir / "s2s3.json", "--import",
             write(workdir / "table.json", doc)])


UQ2 = json.loads((GOLDEN / "uq2.json").read_text())


@given(mutations(UQ2))
# a subalgebra with no rows has dimension 0 and does not contain the unit
@example(dict(UQ2, subalgebras={"R2": []}))
@settings(max_examples=40, deadline=None)
def test_hopf_loader_never_raises(workdir, doc):
    run_cli(["hopf", write(workdir / "hopf.json", doc)])
