import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domindex import engine
from domindex.cli import main

DATA = pathlib.Path(__file__).parent / "data"
F9 = str(DATA / "f9.edges")


def run(argv, stdin=""):
    import sys

    old_in = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        import contextlib

        out = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_in
    return code, out.getvalue(), err.getvalue()


def test_generate_then_analyze_pipe():
    code, edges, _ = run(["generate", "cycle:6"])
    assert code == 0
    assert edges.splitlines()[0] == "c1 c2"
    code, out, _ = run(["analyze"], stdin=edges)
    assert code == 0
    payload = json.loads(out)
    assert payload["di"] == 12
    assert payload["gamma"] == 2


def test_generate_named_and_dot():
    code, out, _ = run(["generate", "petersen", "--format", "dot"])
    assert code == 0 and out.startswith("graph G {")


def test_degree_f9():
    code, out, _ = run(["degree", "--in", F9, "--vertex", "a2"])
    assert code == 0
    assert "dd(a2) = 3" in out
    code, out, _ = run(["degree", "--in", F9, "--vertex", "a2", "--format", "json"])
    payload = json.loads(out)
    assert payload["dd"] == 3
    assert payload["vertex"] in payload["witness"]
    assert len(payload["witness"]) == 3


def test_mds_containing_greedy_f9():
    code, out, _ = run(["mds-containing", "--in", F9, "--vertex", "a2"])
    assert code == 0
    assert out.split() == ["a2", "a3", "a5"]


def test_mds_containing_exact():
    code, out, _ = run(
        ["mds-containing", "--in", F9, "--vertex", "a2", "--algorithm", "exact"]
    )
    assert code == 0 and len(out.split()) == 3 and "a2" in out.split()


def test_op_pipe_and_order():
    code, k1, _ = run(["generate", "complete:1"])
    code, c5, _ = run(["generate", "cycle:5"])
    assert code == 0
    code, out, _ = run(["op", "join", "--in", "-", "--in", str(DATA / "f9.edges")], stdin=k1)
    assert code == 0
    # wheel via join: pipe K1 with a C5 file would be nicer, go through tmp-free stdin
    code, out, _ = run(["op", "union", "--in", F9, "--in", F9])
    assert code == 0
    assert len(out.splitlines()) == 28  # two disjoint copies


def test_facility_contract(f9_by_label):
    code, out, _ = run(["facility", "--in", F9, "--hub", "a2"])
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert lines["hub"] == "a2"
    placements = lines["placements"].split()
    assert len(placements) == 2 and "a2" not in placements
    s = f9_by_label.vertex_set_from_labels(placements + ["a2"])
    from domindex import is_minimal_dominating

    assert is_minimal_dominating(f9_by_label, s)
    code, dot, _ = run(["facility", "--in", F9, "--hub", "a2", "--format", "dot"])
    assert code == 0 and dot.count("style=filled") == 3


def test_verify_cli(tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    code, out, _ = run(
        ["verify", "--suite", "named-graphs", "--ledger", str(ledger), "--format", "json"]
    )
    assert code == 0  # contested discrepancies only
    payload = json.loads(out)
    assert payload["proved_failures"] == 0
    assert ledger.exists() and len(ledger.read_text().splitlines()) == 3


def test_verify_families():
    code, out, _ = run(["verify", "--suite", "families", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["instances"] > 0


def test_exit_codes(tmp_path, monkeypatch):
    code, _, err = run(["degree", "--vertex", "a1"], stdin="a b c\n")
    assert code == 3  # malformed input line
    code, _, err = run(["degree", "--in", F9, "--vertex", "zz"])
    assert code == 3  # unknown label
    code, _, err = run(["generate", "cycle:2"])
    assert code == 1  # bad family parameters
    code, _, err = run(["analyze", "--max-exact", "4"], stdin="a b\nb c\nc d\nd e\n")
    assert code == 4  # cap exceeded
    for suite, limit in (("inequalities", "9"), ("definitional", "9"), ("monotonicity", "8")):
        code, out, _ = run(["verify", "--suite", suite, "--limit", limit])
        assert code == 4 and out == ""  # enumeration over its cap, refused up front
    code, _, err = run(["op", "union", "--in", F9])
    assert code == 1  # op needs two inputs
    latin1 = tmp_path / "latin1.edges"
    latin1.write_bytes(b"caf\xe9 b\n")
    missing = tmp_path / "missing"
    for argv, stdin, want in (
        (["analyze", "--in", str(missing)], "", 3),  # unreadable input
        (["analyze", "--in", str(latin1)], "", 3),  # not UTF-8
        (["analyze"], "caf\udce9 b\n", 3),  # stdin's bytes escaped as surrogates
        (["analyze"], "", 3),  # no vertices
        (["analyze", "--in", F9, "--in", F9], "", 1),  # one input graph only
        (["op", "union", "--in", "-", "--in", "-"], "", 1),  # stdin read once
        (["generate", "cycle:5", "--out", str(missing / "x")], "", 1),
        (["verify", "--suite", "named-graphs", "--ledger", str(missing / "l.jsonl")], "", 1),
    ):
        code, out, err = run(argv, stdin)
        assert (code, out) == (want, ""), argv
        assert err.startswith("domindex: ") and err.count("\n") == 1, argv
    assert run(["analyze"])[2] == "domindex: operation needs at least one vertex\n"
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--suite", "bogus"])
    assert exc.value.code == 1
    # a search that finds no set breaks an invariant: a bug, not bad input
    monkeypatch.setattr(engine.kernels_for(9), "solve_dd", lambda *args: None)
    for argv in (["degree", "--in", F9, "--vertex", "a2"], ["analyze", "--in", F9]):
        code, out, err = run(argv)
        assert (code, out) == (5, ""), argv
        assert err.startswith("domindex: ") and err.count("\n") == 1, argv


# edge-list-like lines over a few labels, comment marks, whitespace and a
# lone surrogate (how stdin carries bytes that are not UTF-8), or any text
_CHAR = st.characters() | st.sampled_from(" \t#ab\udce9")
_TOKEN = st.sampled_from("abcdef") | st.text(_CHAR, min_size=1, max_size=2)
_LINE = st.lists(_TOKEN, max_size=2).map(" ".join)
_STDIN = st.lists(_LINE, max_size=6).map("\n".join) | st.text(_CHAR)


@pytest.mark.filterwarnings("ignore::domindex.errors.DuplicateEdgeWarning")
@settings(max_examples=100, deadline=None)
@given(_STDIN, st.sampled_from(("json", "text")), st.sampled_from(([], ["--max-exact", "3"])))
def test_analyze_any_stdin_exits_cleanly(text, fmt, cap):
    code, out, err = run(["analyze", "--format", fmt, *cap], stdin=text)
    assert code in (0, 3, 4)
    if code:
        assert out == "" and err.startswith("domindex: ") and err.count("\n") == 1


def test_out_flag(tmp_path):
    target = tmp_path / "c4.edges"
    code, out, _ = run(["generate", "cycle:4", "--out", str(target)])
    assert code == 0 and out == ""
    assert target.read_text().splitlines() == ["c1 c2", "c1 c4", "c2 c3", "c3 c4"]


def test_determinism():
    a = run(["analyze", "--in", F9])
    b = run(["analyze", "--in", F9])
    assert a == b


# sha256 of stdout for every (subcommand, format) pair; "A | B" feeds A's
# stdout to B's stdin and hashes B's. Any change here changes what users see.
GOLDEN_STDOUT = {
    "analyze --in F9 --format json":
        "c0231d19f47361f0c5b6e108c49d370829ad7577a98f8fd525e47ceec6d47576",
    "analyze --in F9 --format text":
        "6ed3888066bb6cd6df0ceffd3c4179b12ac4eb014ace80eac162326b7fd8097a",
    "degree --in F9 --vertex a2 --format text":
        "7987e2ebfef5c77ac0cc26ba295597078d6b215481f497a95fea25e18f5e0043",
    "degree --in F9 --vertex a2 --format json":
        "b49ff8af9df145968524fa5b1081af7b24c20b1934967e0a42301d8d47aeaeb8",
    "facility --in F9 --hub a2 --format text":
        "0c7c52cc79c180ea1e1e12e4d193e1b2c3413d53f2f276edce91794e1912d0d6",
    "mds-containing --in F9 --vertex a2 --algorithm greedy --format text":
        "ea8ed0bb8c439fb6ca64147daa63d5a477025df0b3c97b377825794f26494dbd",
    "mds-containing --in F9 --vertex a2 --algorithm exact --format text":
        "ea8ed0bb8c439fb6ca64147daa63d5a477025df0b3c97b377825794f26494dbd",
    "facility --in F9 --hub a2 --format json":
        "8d3721df83f48d678db2b0805ecbf20e2fb9cb48a56493bccbc576736f9fafd9",
    "mds-containing --in F9 --vertex a2 --algorithm greedy --format json":
        "ad4ef880440b50d5cda4699de97d666c27323ac960cb80b685908c4698496373",
    "mds-containing --in F9 --vertex a2 --algorithm exact --format json":
        "ad4ef880440b50d5cda4699de97d666c27323ac960cb80b685908c4698496373",
    "facility --in F9 --hub a2 --format dot":
        "0b6a230c5c55dad39d69d0a93c321525bc4917697531b909ef92aac7ce94e75d",
    "mds-containing --in F9 --vertex a2 --algorithm greedy --format dot":
        "0b6a230c5c55dad39d69d0a93c321525bc4917697531b909ef92aac7ce94e75d",
    "mds-containing --in F9 --vertex a2 --algorithm exact --format dot":
        "0b6a230c5c55dad39d69d0a93c321525bc4917697531b909ef92aac7ce94e75d",
    "generate petersen --format text":
        "c48dd763921dc3756ec897110e6aa69d06bea3e1917289979e8ae6b9eede8ec0",
    "generate petersen --format dot":
        "58208ba94729494378ddf298eb6ef1cb2677b8953e44df5f51139293e5ab7866",
    "generate petersen | analyze --format json":
        "3a0431d96d40f2ed5c681836bd0c4dfd6dc164665da6be1f41987b94635fb47e",
    "generate petersen | analyze --format text":
        "da7f9d1f2fcac28cb6ba7ee0a10fd17adc86e42890fe7b205975246f5f26d371",
    "generate cycle:12 --format text":
        "ab4b23ccf064ef1b65e11f824d35a0cc5cb267181847a4d0eea1ed7ecc34c180",
    "generate cycle:12 --format dot":
        "11d19186a414da9d52ea6581b7123c3344309c37133a559630ee2385fb614cbc",
    "generate cycle:12 | analyze --format json":
        "530412dfcb8a207daa69b850c27bd224869020f1634bde5fab874d0d7b10f7de",
    "generate cycle:12 | analyze --format text":
        "213ff32337a36b682ce375e06d40ac7ff13d70c84909b408fa27bf826eec732b",
    "generate book:4 --format text":
        "0ab0a7407880e9e28ec4be658b3b07c1893dcba23ed55d641ebc1d0e5c91d60c",
    "generate book:4 --format dot":
        "18be5c20ca000e39dd0c0acf95d618efd1a76c83ac46cd9669392a747dccd764",
    "generate book:4 | analyze --format json":
        "9eebd9ee4e69b372de0e1c28c8d7568938e9f21e142b1d247b3feae0d6434142",
    "generate book:4 | analyze --format text":
        "6ce2c544dc4e60c8190d4a8afc6969c6faf09529c8071184084abbcafe8ffc2a",
    "generate windmill:r=3,s=4 --format text":
        "1ecb670dcd434660e4c6a252a08ea9478c13387116998eb8e0f2ac95af823675",
    "generate windmill:r=3,s=4 --format dot":
        "bd8b7dfe10478b6aff4398da15255601cdbd35586025a2ee2aa803f5bda8f1a1",
    "generate windmill:r=3,s=4 | analyze --format json":
        "ce01fd0d46babf8edc5cd2354fde114b71bf75a48e7f8878f5d19231b6e1ac3a",
    "generate windmill:r=3,s=4 | analyze --format text":
        "809698f13722907771e36c1a6acc781dcef866a25c8d9485bd218842705cfa5c",
    "op union --in F9 --in F9 --format text":
        "b685e2ba6cad897e6126e2c2f51db67f701d188ddaa740a428bc5b8fea731b2b",
    "generate complete:1 | op corona --in F9 --in - --format text":
        "9ace997996ee87b5a73827595dcb5fe04f01e2d80c1a9d3c29bbd20748c671c6",
    "op union --in F9 --in F9 --format dot":
        "2cc1c96ff346aa847c4ec64bf2cdace42604b0be9c3eeeacec9700161321bf7d",
    "generate complete:1 | op corona --in F9 --in - --format dot":
        "c6f55fdb9d1127fd5f4ed29147908dfbf5458319e7654ae84fa53818288ba241",
    "analyze --in F9":
        "c0231d19f47361f0c5b6e108c49d370829ad7577a98f8fd525e47ceec6d47576",
    "degree --in F9 --vertex a2":
        "7987e2ebfef5c77ac0cc26ba295597078d6b215481f497a95fea25e18f5e0043",
    "facility --in F9 --hub a2":
        "0c7c52cc79c180ea1e1e12e4d193e1b2c3413d53f2f276edce91794e1912d0d6",
    "mds-containing --in F9 --vertex a2":
        "ea8ed0bb8c439fb6ca64147daa63d5a477025df0b3c97b377825794f26494dbd",
    "generate petersen":
        "c48dd763921dc3756ec897110e6aa69d06bea3e1917289979e8ae6b9eede8ec0",
    "op union --in F9 --in F9":
        "b685e2ba6cad897e6126e2c2f51db67f701d188ddaa740a428bc5b8fea731b2b",
    "op corona --in F9 --in F9":
        "ba379d98a7f064e31059396ca5062e69377c4839743bb414c2420112c7481b29",
}


def _golden_stdout(case: str) -> str:
    stdin = ""
    for stage in case.split(" | "):
        argv = [F9 if tok == "F9" else tok for tok in stage.split()]
        code, stdin, _ = run(argv, stdin=stdin)
        assert code == 0, stage
    return hashlib.sha256(stdin.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN_STDOUT))
def test_golden_stdout(case):
    assert _golden_stdout(case) == GOLDEN_STDOUT[case]


@pytest.mark.parametrize(
    "argv",
    [
        ["degree", "--in", F9, "--vertex", "a2", "--format", "dot"],
        ["verify", "--suite", "named-graphs", "--quick", "--format", "dot"],
        ["analyze", "--in", F9, "--format", "dot"],
        ["generate", "cycle:5", "--format", "json"],
        ["generate", "cycle:5", "--max-exact", "3"],
        ["op", "union", "--in", F9, "--in", F9, "--max-exact", "30"],
        ["verify", "--suite", "families", "--quick"],
        ["verify", "--suite", "operations", "--max-exact", "19"],
    ],
)
def test_unsupported_option_is_usage_error(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == 1
    assert out.getvalue() == ""


def test_closed_stdout_pipe_exits_cleanly():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child starts
    try:
        child = subprocess.run(
            [sys.executable, "-m", "domindex", "generate", "cycle:50"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in child.stderr.decode()
    assert child.returncode == 1
