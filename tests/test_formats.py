import json
import re

import pytest

from domindex import domination_profile, is_minimal_dominating, new_graph
from domindex.errors import DuplicateEdgeWarning, MalformedLine, SelfLoop
from domindex.formats import (
    build_report,
    emit_dot,
    emit_edgelist,
    emit_report_json,
    parse_edgelist,
)


def test_parse_simple():
    g = parse_edgelist("a b\nb c\n")
    assert g.n == 3 and g.m == 2
    assert g.labels == ("a", "b", "c")


def test_parse_isolated_and_comments():
    g = parse_edgelist("# header\nx\n\na b\n")
    assert g.n == 3 and g.m == 1
    assert g.labels == ("x", "a", "b")


def test_parse_errors():
    with pytest.raises(MalformedLine) as err:
        parse_edgelist("a b c\n")
    assert err.value.lineno == 1
    with pytest.raises(SelfLoop):
        parse_edgelist("a a\n")


def test_parse_duplicate_edge_warns():
    with pytest.warns(DuplicateEdgeWarning):
        g = parse_edgelist("a b\nb a\n")
    assert g.m == 1


def test_f9_parse(f9):
    assert f9.n == 9 and f9.m == 14
    n2 = sorted(f9.labels_of(f9.vertex_set(f9.neighbors(f9.id_of("a2")))))
    assert n2 == ["a1", "a3", "a8", "a9"]


def test_emit_canonical():
    g = new_graph(2, [(0, 1)], ["b", "a"])
    assert emit_edgelist(g) == "a b\n"
    k1 = new_graph(1, [])
    assert emit_edgelist(k1) == "0\n"


def test_emit_sorts_edges():
    g = parse_edgelist("z y\nc a\nc b\n")
    assert emit_edgelist(g) == "a c\nb c\ny z\n"


def test_round_trip(f9):
    text = emit_edgelist(f9)
    again = parse_edgelist(text)
    assert emit_edgelist(again) == text
    assert again.n == f9.n and again.m == f9.m
    # identical adjacency through the label map
    for lbl in f9.labels:
        a = sorted(f9.labels_of(f9.neighbors(f9.id_of(lbl))))
        b = sorted(again.labels_of(again.neighbors(again.id_of(lbl))))
        assert a == b


def test_dot_output(f9):
    assert emit_dot(new_graph(2, [(0, 1)], ["a", "b"])) == (
        'graph G {\n  "a";\n  "b";\n  "a" -- "b";\n}\n'
    )
    hl = f9.vertex_set_from_labels(["a2", "a3", "a5"])
    dot = emit_dot(f9, hl)
    assert dot.count("style=filled") == 3
    assert emit_dot(f9).count("style=filled") == 0


def _dot_ids(dot):
    # Quoted IDs as Graphviz lexes them: a backslash pair or an escaped
    # quote stays inside the string; an unescaped quote ends it.
    raw = re.findall(r'"((?:[^"\\]|\\.)*)"', dot)
    return [re.sub(r'\\(["\\])', r"\1", r) for r in raw]


def test_dot_escapes_quotes_and_backslashes():
    g = parse_edgelist('a"x c\nd\\ c\n')
    dot = emit_dot(g, g.vertex_set_from_labels(['a"x']))
    assert dot == (
        'graph G {\n  "a\\"x" [style=filled];\n  "c";\n  "d\\\\";\n'
        '  "a\\"x" -- "c";\n  "c" -- "d\\\\";\n}\n'
    )
    assert _dot_ids(dot) == ['a"x', "c", "d\\", 'a"x', "c", "c", "d\\"]


def test_report_json(f9, petersen):
    prof = domination_profile(f9)
    report = build_report(f9, prof)
    payload = json.loads(emit_report_json(report))
    assert payload["graph"] == {"n": 9, "m": 14, "connected": True}
    assert payload["di"] == sum(rec["dd"] for rec in payload["vertices"])
    # witnesses survive a reload as valid minimal dominating sets
    for rec in payload["vertices"]:
        s = f9.vertex_set_from_labels(rec["witness"])
        assert is_minimal_dominating(f9, s)
        assert rec["label"] in rec["witness"]

    pp = json.loads(emit_report_json(build_report(petersen, domination_profile(petersen))))
    assert pp["di"] == 30 and pp["is_drg"] is True


def test_report_k1():
    g = new_graph(1, [])
    payload = json.loads(emit_report_json(build_report(g, domination_profile(g))))
    assert payload["di"] == 1 and payload["gamma"] == 1


def test_report_c6():
    g = new_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    payload = json.loads(emit_report_json(build_report(g, domination_profile(g))))
    assert [rec["dd"] for rec in payload["vertices"]] == [2] * 6
