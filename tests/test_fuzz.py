"""The file loaders, the expression parser and the example names under
fuzzing: whatever bytes a graph, morphism, inclusion or instance file holds,
whatever text an expression is and whatever name ``examples`` is given,
``pathalg`` keeps its exit-code contract.  The exit code is 0, 1 or 2 (0 or
2 for ``eval`` and ``examples``), nothing escapes as a traceback, and exit
2 comes with an ``error:`` line.

The file bytes are random, truncated or mutated copies of the bundled
fixtures, byte-level or after a JSON-level edit, with and without bytes
that are not UTF-8.  The expressions are runs of grammar tokens, long
digit runs, unbalanced parentheses and non-ASCII text.  The example names
are random text, near-misses of real names and non-ASCII text.  Runs are
derandomized and keep no example database.
"""
import contextlib
import io
import json
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathalg.cli import main
from pathalg.registry import EXAMPLES

from helpers import expressions

FIXTURES = resources.files("pathalg") / "fixtures"


def _argv(path: str, kind: str) -> list:
    if kind == "graph":
        return ["eval", f"L({path})", "v"]
    if kind == "morphism":
        return ["classify", path, "--json"]
    if kind == "inclusion":
        return ["admissible", path, "--json"]
    # the file's own length bound may be anything, so the run's is fixed
    return ["pullback", path, "--bound", "2", "--json"]


KINDS = {
    "graph": "rp2.json",
    "morphism": "phi_rp2.json",
    "inclusion": "loop_in_toeplitz.json",
    "instance": "rp2q.json",
}

_not_utf8 = st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xe9", b"\x80"])
_json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10),
    st.sampled_from(["", "v", "w", "e", "s", "rp2", "\u00e9"]),
    st.lists(st.sampled_from(["v", "e", "f"])),
    st.sampled_from([{}, {"vertex": "v"}]).map(dict),  # a copy: later edits may mutate it
)


def _json_edit(draw, data):
    """Replace or delete one node of the parsed file, chosen by a walk down."""
    node = data
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return
        key = draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(_json_values)
        return


@st.composite
def file_bytes(draw, base: bytes) -> bytes:
    how = draw(st.integers(0, 9))
    if how == 0:  # random bytes
        data = draw(st.binary(max_size=64))
    elif how == 1:  # a truncated fixture
        data = base[: draw(st.integers(0, len(base)))]
    elif how <= 3:  # a few bytes set, inserted or deleted
        data = bytearray(base)
        for _ in range(draw(st.integers(1, 4))):
            at = draw(st.integers(0, len(data) - 1))
            byte = draw(st.binary(min_size=1, max_size=1))
            op = draw(st.sampled_from(["set", "insert", "delete"]))
            if op == "set":
                data[at:at + 1] = byte
            elif op == "insert":
                data[at:at] = byte
            else:
                del data[at]
        data = bytes(data)
    else:  # valid JSON of the wrong shape
        parsed = json.loads(base)
        for _ in range(draw(st.integers(1, 3))):
            _json_edit(draw, parsed)
        data = json.dumps(parsed, indent=2).encode()
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(_not_utf8) + data[at:]
    return data


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_loaders_keep_the_exit_code_contract(kind, tmp_path_factory):
    base = (FIXTURES / KINDS[kind]).read_bytes()
    path = tmp_path_factory.mktemp("fuzz") / f"{kind}.json"

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(data=file_bytes(base))
    def check(data):
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(_argv(str(path), kind))
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: ")

    check()


# -- expression strings ----------------------------------------------------------

_EVAL_CONTEXTS = ("P(rp2)", "C(rp2)", "C[v](rp2)", "L(rp2)")


def _check_zero_or_two(argv: list) -> None:
    """Exit 0, or 2 with an error line: ours, or argparse's when it reads a
    text such as "-v" as an option."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        lines = err.getvalue().splitlines()
        assert any(line.startswith("error: ") or ": error: " in line for line in lines)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(context=st.sampled_from(_EVAL_CONTEXTS), text=expressions())
def test_eval_keeps_the_exit_code_contract(context, text):
    _check_zero_or_two(["eval", context, text])


# -- example names ---------------------------------------------------------------

@st.composite
def near_misses(draw) -> str:
    """A real example name with one character set, inserted or deleted, or
    with its case or surrounding space changed."""
    name = draw(st.sampled_from(list(EXAMPLES)))
    at = draw(st.integers(0, len(name) - 1))
    char = draw(st.characters(codec="utf-8"))
    return draw(st.sampled_from([
        name[:at] + char + name[at + 1:],
        name[:at] + char + name[at:],
        name[:at] + name[at + 1:],
        name.upper(),
        f" {name}",
        f"{name} ",
    ]))


_example_names = st.one_of(
    st.text(max_size=12),
    near_misses(),
    st.text(st.characters(min_codepoint=0x80), min_size=1, max_size=6),  # non-ASCII only
)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(name=_example_names)
def test_examples_keep_the_exit_code_contract(name):
    _check_zero_or_two(["examples", name])
