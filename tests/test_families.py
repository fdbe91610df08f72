import pytest

from domindex import FamilySpec, UNRESOLVED, format_family, generate, parse_family
from domindex.engine import dd_vector_oracle
from domindex.errors import InvalidFamilyParams
from domindex.families import (
    path_degree_variants,
    path_index_variants,
    predicted_degree,
    predicted_index,
)
from domindex.graph import is_connected, max_degree
from domindex.verify import dd_vector


def test_parse_and_format():
    assert parse_family("cycle:9") == FamilySpec("cycle", (9,))
    assert parse_family("multipartite:2,3,4") == FamilySpec("multipartite", (2, 3, 4))
    assert parse_family("windmill:r=3,s=4") == FamilySpec("windmill", (3, 4))
    assert parse_family("windmill:3,4") == FamilySpec("windmill", (3, 4))
    assert parse_family("kragujevac:2,2,3") == FamilySpec("kragujevac", (2, 2, 3))
    assert parse_family("petersen") == FamilySpec("petersen")
    assert format_family(FamilySpec("windmill", (3, 4))) == "windmill:r=3,s=4"
    assert parse_family(format_family(FamilySpec("kragujevac", (1, 2)))) == FamilySpec(
        "kragujevac", (1, 2)
    )


@pytest.mark.parametrize(
    "text",
    ["nosuch:3", "cycle:2", "wheel:1", "book", "windmill:1,2", "windmill:2",
     "multipartite:2", "multipartite:1,2", "kragujevac:3", "cycle:x", "complete:0",
     "petersen:3", "cycle:3,4", "windmill:s=4,r=3", "cycle:n=9"],
)
def test_invalid_params(text):
    with pytest.raises(InvalidFamilyParams):
        parse_family(text)


def test_cycle_generation():
    g, roles = generate(FamilySpec("cycle", (6,)))
    assert g.n == 6 and g.m == 6
    assert all(g.degree(v) == 2 for v in range(6))
    assert roles == ("rim",) * 6


def test_kragujevac_order():
    g, roles = generate(FamilySpec("kragujevac", (2, 3)))
    assert g.n == 1 + (2 * 2 + 1) + (2 * 3 + 1) == 13
    assert roles.count("leaf") == 5
    assert is_connected(g) and g.m == g.n - 1  # a tree


def test_kragujevac_11_is_path():
    g = generate(FamilySpec("kragujevac", (1, 1))).graph
    degs = sorted(g.degree(v) for v in range(g.n))
    assert g.n == 7 and degs == [1, 1, 2, 2, 2, 2, 2]  # P7


def test_windmill_collapse():
    g = generate(FamilySpec("windmill", (2, 2))).graph
    assert g.n == 3 and g.m == 2 and max_degree(g) == 2  # P3


def test_book_is_star_times_edge():
    g = generate(FamilySpec("book", (3,))).graph
    assert g.n == 8 and g.m == 3 * 3 + 1
    assert {g.labels[v] for v in range(2)} == {"ca", "cb"}


def test_wheel_structure():
    g, roles = generate(FamilySpec("wheel", (5,)))
    assert g.n == 6 and g.m == 10
    assert g.degree(0) == 5 and roles[0] == "center"


def test_named_graphs_validate(petersen):
    assert petersen.m == 15
    her = generate(FamilySpec("herschel")).graph
    assert her.n == 11 and her.m == 18
    gro = generate(FamilySpec("grotzsch")).graph
    assert gro.n == 11 and gro.m == 20


def test_predicted_degree_examples():
    assert predicted_degree(FamilySpec("star", (4,)), 2) == 4
    assert predicted_degree(FamilySpec("star", (4,)), 0) == 1
    assert predicted_degree(FamilySpec("wheel", (6,)), 0) == 1
    assert predicted_degree(FamilySpec("wheel", (6,)), 3) == 2
    # six-vertex path: positions 2,5 get 2, the rest 3
    six = [predicted_degree(FamilySpec("path", (6,)), v) for v in range(6)]
    assert six == [3, 2, 3, 3, 2, 3]
    assert predicted_degree(FamilySpec("complete", (9,)), 4) == 1
    assert predicted_degree(FamilySpec("multipartite", (2, 3)), 0) == 2
    assert predicted_degree(FamilySpec("windmill", (3, 4)), 5) == 4
    assert predicted_degree(FamilySpec("kragujevac", (2, 3)), 7) == 6
    assert predicted_degree(FamilySpec("petersen"), 9) == 3


def test_predicted_degree_unresolved():
    assert predicted_degree(FamilySpec("path", (5,)), 0) is UNRESOLVED
    assert predicted_degree(FamilySpec("book", (1,)), 0) is UNRESOLVED
    assert predicted_degree(FamilySpec("grotzsch"), 0) is UNRESOLVED


def test_predicted_index_examples():
    assert predicted_index(FamilySpec("petersen")) == 30
    assert predicted_index(FamilySpec("herschel")) == 33
    assert predicted_index(FamilySpec("star", (5,))) == 26
    assert predicted_index(FamilySpec("book", (3,))) == 22
    assert predicted_index(FamilySpec("cycle", (6,))) == 12
    assert predicted_index(FamilySpec("wheel", (6,))) == 13
    assert predicted_index(FamilySpec("complete", (7,))) == 7
    assert predicted_index(FamilySpec("multipartite", (2, 3, 4))) == 18
    assert predicted_index(FamilySpec("kragujevac", (2, 2))) == 11 * 5
    assert predicted_index(FamilySpec("path", (7,))) == 21
    assert predicted_index(FamilySpec("path", (5,))) is UNRESOLVED
    assert predicted_index(FamilySpec("grotzsch")) is UNRESOLVED


def test_windmill_index_consistent_with_degrees():
    for r, s in ((2, 2), (3, 2), (3, 3), (4, 2)):
        spec = FamilySpec("windmill", (r, s))
        g = generate(spec).graph
        total = sum(predicted_degree(spec, v) for v in range(g.n))
        assert predicted_index(spec) == total


def test_path_variants_shapes():
    assert set(path_degree_variants(5)) == {"statement", "proof"}
    assert set(path_degree_variants(6)) == {"statement"}
    assert set(path_index_variants(8)) == {"statement", "proof"}
    assert path_index_variants(7) == {"statement": 21}
    stmt = path_degree_variants(5)["statement"]
    proof = path_degree_variants(5)["proof"]
    assert stmt == (2, 2, 3, 2, 2) and proof == (3, 3, 2, 3, 3)


def test_small_family_formulas_against_engine():
    for spec in (
        FamilySpec("complete", (4,)),
        FamilySpec("star", (3,)),
        FamilySpec("cycle", (7,)),
        FamilySpec("wheel", (4,)),
        FamilySpec("book", (2,)),
        FamilySpec("windmill", (3, 2)),
        FamilySpec("multipartite", (2, 2)),
        FamilySpec("kragujevac", (1, 1)),
        FamilySpec("path", (1,)),
    ):
        g = generate(spec).graph
        degs = dd_vector(g)
        for v in range(g.n):
            assert degs[v] == predicted_degree(spec, v), (spec, v)
        assert sum(degs) == predicted_index(spec)


def test_contested_cases_match_oracle():
    for spec in (FamilySpec("path", (5,)), FamilySpec("book", (1,))):
        g = generate(spec).graph
        assert dd_vector(g) == dd_vector_oracle(g)
