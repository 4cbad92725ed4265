"""A bounded fuzz of the CLI: `main` in process over random small graph
files, signature artifacts and flags.

Whatever the input, a call ends with an exit code in 0-4 (argparse's exit
included), exits 3 and 4 write one `error:` line and no traceback, and no
JSON artifact holds NaN or Infinity.  The graphs have at most 6 links, the
runs at most 50 samples, the curves at most 20 steps (but for the examples
of a curve large enough to be computed in parts), and every run one
worker (but for the examples of runs whose workers fork their parts).
"""

import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from netsig.cli import main

LABELS = ["a", "b", "c", "d", "e", "٣", "x_1"]
BRIDGE = (b"\xef\xbb\xbfterminals s t\nedge s a\nedge s b\nedge a b\nedge a t\nedge b t\n")
NUMBERS = ["0", "-1", "1e308", "1e-320", "nan", "NaN", "inf", "-inf", "1_0", "٣", ""]


def mostly(valid, invalid):
    """`valid` seven draws in eight, else `invalid`."""
    return st.integers(0, 7).flatmap(lambda i: invalid if i == 7 else valid)


def option(name, values):
    """[] or [name, value]."""
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


@st.composite
def graph_texts(draw):
    """A graph file's text: a terminal-connected network of up to 6 links
    (a path through its nodes, then random links), one time in six with a
    line broken or added."""
    nodes = draw(st.lists(st.sampled_from(LABELS), min_size=2, max_size=5, unique=True))
    terminals = nodes[:draw(st.integers(2, min(3, len(nodes))))]
    links = list(zip(nodes, nodes[1:]))
    for _ in range(draw(st.integers(0, 6 - len(links)))):
        a, b = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True))
        links.insert(draw(st.integers(0, len(links))), (a, b))
    lines = ["# fuzz", "terminals " + " ".join(terminals), *(f"edge {a} {b}" for a, b in links)]
    if draw(st.integers(0, 5)) == 5:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from([
            "node a", "node", "terminals a b", "edge a", "edge a b c", "vertex a", "\x00",
            "edge a a", "edge z y",
        ])))
    return "\n".join(lines) + "\n"


@st.composite
def artifact_texts(draw):
    """A signature artifact's text, written with NaN and Infinity allowed:
    valid, or with up to two fields dropped or replaced."""
    # A positive first count: the total is positive.
    counts = draw(st.lists(st.integers(0, 10**20), min_size=1, max_size=6).map(
        lambda c: [c[0] + 1, *c[1:]]))
    fields = {
        "n": len(counts),
        "counts": [str(c) for c in counts],
        "total": str(sum(counts)),
        "mode": draw(st.sampled_from(["exact", "classic", "sampled"])),
        "m_mode": draw(st.sampled_from(["exact-subset", "paper-greedy"])),
    }
    odd = st.one_of(st.none(), st.booleans(), st.integers(-3, 10), st.text(max_size=4),
                    st.floats(), st.sampled_from(["5_41", "-1", "1e400", "0"]),
                    st.lists(st.sampled_from(["1", 1, 1.5, "x", float("nan")]), max_size=3))
    for key in draw(st.lists(st.sampled_from(sorted(fields)), max_size=2, unique=True)):
        if draw(st.booleans()):
            del fields[key]
        else:
            fields[key] = draw(odd)
    return json.dumps(fields, allow_nan=True)


@st.composite
def input_bytes(draw, texts):
    """The text encoded as a file's bytes, with or without CRLF line ends
    and a byte-order mark, and one time in eight with an invalid UTF-8
    sequence."""
    text = draw(texts)
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    data = text.encode()
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.integers(0, 7)) == 7:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[cut:]
    return data


# Half of the rates and times given are zero, negative, non-finite or not
# numbers.
numbers = st.one_of(st.floats(0.01, 50).map(repr), st.sampled_from(NUMBERS))
common = [
    option("--output", mostly(st.sampled_from(["json", "csv"]), st.just("xml"))),
    option("--out", mostly(st.just("FILE"), st.sampled_from(
        ["/dev/full", "MISSING/out.json", "x" * 300]))),
]
scoring = [
    option("--m-mode", mostly(st.sampled_from(["exact-subset", "paper-greedy"]), st.just("greedy"))),
    option("--workers", mostly(st.just("1"), st.sampled_from(["0", "-1", "x"]))),
]
flags = {
    "exact": [*common, *scoring],
    "signature": common,
    "approx": [*common, *scoring,
               mostly(st.integers(1, 50).map(str), st.sampled_from(
                   ["0", "-3", "5e1", "2.5", "nan", "inf", "1e400", "x"])).map(lambda v: ["--samples", v]),
               option("--seed", mostly(st.integers(0, 2**64 - 1).map(str), st.sampled_from(
                   [str(2**64), "-1", "x"])))],
    "reliability": [*common,
                    option("--process", mostly(st.sampled_from(["poisson", "binomial"]), st.just("x"))),
                    option("--rate", numbers),
                    option("--tmax", numbers),
                    option("--steps", mostly(st.integers(1, 20).map(str), st.sampled_from(
                        ["0", "-1", "1000001", "2.5", "x"])))],
}


@st.composite
def calls(draw):
    """(argv with INPUT, FILE and MISSING placeholders, the input's bytes)."""
    command = draw(st.sampled_from(["nstar", "exact", "approx", "signature", "reliability"]))
    if command == "nstar":
        n = draw(mostly(st.integers(2, 40).map(str), st.sampled_from(["1", "501", "10**9", "x"])))
        return ["nstar", n], b""
    source = draw(mostly(st.just("INPUT"), st.sampled_from(["MISSING", "/dev/null", "x" * 300])))
    argv = [command, source, *(word for flag in flags[command] for word in draw(flag))]
    texts = artifact_texts() if command == "reliability" and draw(st.booleans()) else graph_texts()
    return argv, draw(input_bytes(texts))


def _reject_constant(name):
    raise AssertionError(f"JSON output holds {name}")


def run(argv):
    """(exit code, stdout, stderr) of `main(argv)`, stdout and stderr
    redirected to real files, which `main` may point at devnull."""
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: usage errors, --help
                code = exc.code
        out.seek(0)
        err.seek(0)
        return code, out.read(), err.read()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture,
                                                                   HealthCheck.too_slow])
@given(call=calls())
# Inputs that once ended in a traceback, an exit 0 with NaN or Infinity in
# the JSON, or a refusal that named no flag.
@example(call=(["reliability", "INPUT", "--rate", "inf"], BRIDGE))
@example(call=(["reliability", "INPUT", "--tmax", "1e308", "--steps", "2"], BRIDGE))
@example(call=(["reliability", "INPUT", "--tmax", "-1"], BRIDGE))
# JSON curves of 40,001 points, which the CLI computes in parts on a host
# with more than one usable CPU: a valid one, one whose grid overflows
# tmax * i, and one whose non-finite grid the grid check refuses before any
# part starts; and a CSV curve of as many points, which runs in one process.
@example(call=(["reliability", "INPUT", "--steps", "40000"], BRIDGE))
@example(call=(["reliability", "INPUT", "--steps", "40000", "--output", "csv"], BRIDGE))
@example(call=(["reliability", "INPUT", "--tmax", "1e308", "--steps", "40000"], BRIDGE))
@example(call=(["reliability", "INPUT", "--tmax", "inf", "--steps", "40000"], BRIDGE))
@example(call=(["reliability", "INPUT"], b'{"n": 2, "counts": ["0", "0"], "total": "0", '
                                         b'"mode": "exact", "m_mode": "exact-subset"}'))
@example(call=(["reliability", "INPUT"], b'{"n": 2, "counts": [NaN, 1], "total": "1", '
                                         b'"mode": "exact", "m_mode": "exact-subset"}'))
@example(call=(["exact", "INPUT", "--out", "/dev/full"], BRIDGE))
# Runs of more than one worker, which fork their parts on a host with more
# than one usable CPU.
@example(call=(["approx", "INPUT", "--samples", "50", "--workers", "3"], BRIDGE))
@example(call=(["exact", "INPUT", "--m-mode", "paper-greedy", "--workers", "2"], BRIDGE))
@example(call=(["approx", "INPUT", "--samples", "5", "--m-mode", "paper-greedy"],
               b"terminals a b c\r\nedge a b\r\nedge b c\r\n"))
def test_cli_exits_with_a_documented_code(tmp_path, call):
    argv, data = call
    source, out_file = tmp_path / "input", tmp_path / "out.json"
    source.write_bytes(data)
    out_file.unlink(missing_ok=True)
    argv = [str(source) if word == "INPUT" else
            str(out_file) if word == "FILE" else
            str(tmp_path / word) if word.startswith("MISSING") else word
            for word in argv]
    code, stdout, stderr = run(argv)
    event(f"{argv[0]} exit {code}")  # the mix, with --hypothesis-show-statistics
    assert code in (0, 1, 2, 3, 4), (argv, code, stderr)
    assert "Traceback" not in stderr
    if code in (3, 4):
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, (argv, stderr)
    for text in (stdout, out_file.read_text() if out_file.exists() else ""):
        if text.startswith("{"):
            json.loads(text, parse_constant=_reject_constant)
