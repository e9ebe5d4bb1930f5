import json
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from posetdegen import degeneration, marked
from posetdegen.cli import main
from posetdegen.lattice import star_mask
from posetdegen.posets import build_poset, validate_relative_structure


SQUARE = {
    "elements": ["a", "b"],
    "covers": [],
}

DIAMOND_MARKED = {
    "elements": ["bot", "x", "y", "top"],
    "covers": [["bot", "x"], ["bot", "y"], ["x", "top"], ["y", "top"]],
    "weak_covers": [["x", "top"], ["y", "top"]],
    "marked": {"bot": 2, "top": 0},
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_validate_and_ideals(tmp_path, capsys):
    poset = write(tmp_path, "p.json", SQUARE)
    code, out = run(capsys, ["validate", poset])
    assert code == 0
    report = json.loads(out)
    assert report["valid"] and report["ideal_count"] == 4

    code, out = run(capsys, ["ideals", poset])
    assert json.loads(out)["ideals"] == ["", "a", "b", "a,b"]


def test_polytope_and_ehrhart(tmp_path, capsys):
    poset = write(tmp_path, "p.json", SQUARE)
    code, out = run(capsys, ["polytope", poset, "--kind", "order"])
    assert code == 0
    assert sorted(map(tuple, json.loads(out)["vertices"])) == [
        (0, 0), (0, 1), (1, 0), (1, 1)
    ]
    code, out = run(capsys, ["ehrhart", poset, "--max-dilation", "3"])
    assert json.loads(out)["ehrhart"] == {"0": 1, "1": 4, "2": 9, "3": 16}


def test_deterministic_output(tmp_path, capsys):
    poset = write(tmp_path, "p.json", DIAMOND_MARKED)
    _, first = run(capsys, ["standardize", poset])
    _, second = run(capsys, ["standardize", poset])
    assert first == second


def test_poset_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["validate", str(bad)]) == 4

    cyclic = write(tmp_path, "cyc.json", {
        "elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]],
    })
    assert main(["validate", cyclic]) == 2


MALFORMED_POSET_FILES = {
    "cover-triple": ({"elements": ["a", "b", "c"], "covers": [["a", "b", "c"]]},
                     "covers[0]"),
    "covers-string": ({"elements": ["a", "b"], "covers": "ab"}, "'covers'"),
    "nested-element": ({"elements": ["a", ["b"]]}, "elements[1]"),
    "marking-text": ({"elements": ["a"], "marked": {"a": "x"}}, 'marked["a"]'),
    "elements-string": ({"elements": "ab"}, "'elements'"),
    "marking-float": ({"elements": ["a", "b"], "covers": [["a", "b"]],
                       "marked": {"a": 1.5, "b": 0}}, 'marked["a"]'),
    # ideal keys join labels with ',' and the empty ideal's key is ''
    "empty-label": ({"elements": ["", "a"]}, "elements[0]"),
    "comma-label": ({"elements": ["a", "a,b", "b"]}, "elements[1]"),
}


@pytest.mark.parametrize(
    "payload,entry", MALFORMED_POSET_FILES.values(), ids=MALFORMED_POSET_FILES.keys()
)
def test_malformed_poset_file_is_one_parse_error_line(tmp_path, capsys, payload, entry):
    poset = write(tmp_path, "bad.json", payload)
    assert main(["validate", poset]) == 4
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and err.count("\n") == 1
    assert entry in err
    assert "Traceback" not in err


def test_flag_and_standardized_labels_are_accepted(tmp_path, capsys):
    poset = write(tmp_path, "p.json", {"elements": ["p1.2", "a|b"], "covers": [["p1.2", "a|b"]]})
    code, out = run(capsys, ["ideals", poset])
    assert code == 0 and json.loads(out)["ideals"] == ["", "p1.2", "a|b,p1.2"]


def test_marking_strings_of_integers_are_accepted(tmp_path, capsys):
    payload = dict(DIAMOND_MARKED, marked={"bot": "2", "top": "-0"})
    code, out = run(capsys, ["validate", write(tmp_path, "p.json", payload)])
    assert code == 0 and json.loads(out)["marked"] == ["bot", "top"]


LABELS = st.sampled_from(["a", "b", "c", "d", "e", "f"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3) | LABELS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(LABELS, inner, max_size=3),
    max_leaves=6,
)
LABEL_PAIRS = st.lists(st.lists(LABELS, min_size=2, max_size=2), max_size=6)
POSET_FILES = JSON_VALUES | st.fixed_dictionaries({}, optional={
    "elements": st.lists(LABELS, max_size=6) | JSON_VALUES,
    "covers": LABEL_PAIRS | JSON_VALUES,
    "weak_covers": LABEL_PAIRS | JSON_VALUES,
    "marked": st.dictionaries(LABELS, st.integers(-2, 2) | st.integers(-2, 2).map(str))
    | JSON_VALUES,
})


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=POSET_FILES)
def test_arbitrary_poset_files_exit_with_a_documented_code(tmp_path, payload):
    assert main(["validate", write(tmp_path, "fuzz.json", payload)]) in (0, 2, 4)


def test_validate_antichain_of_twelve(tmp_path, capsys):
    # trivial <' is star-closed by construction: 4096 ideals, no pair scan
    poset = write(tmp_path, "p.json", {"elements": [f"a{i}" for i in range(12)]})
    code, out = run(capsys, ["validate", poset])
    assert code == 0 and json.loads(out)["ideal_count"] == 4096


def test_weights_missing_key_is_parse_error(tmp_path, capsys):
    poset = write(tmp_path, "p.json", SQUARE)
    weights = write(tmp_path, "w.json", {"weights": {"": "0", "a": "1", "b": "1"}})
    assert main(["cone-check", poset, "--weights", weights]) == 4
    code, out = run(
        capsys, ["cone-check", poset, "--weights", weights, "--default-zero"]
    )
    assert code == 0
    assert json.loads(out)["position"] == "outside"


@pytest.mark.parametrize("table", ["x", None], ids=["weights-string", "weights-null"])
def test_malformed_weights_file_is_one_parse_error_line(tmp_path, capsys, table):
    poset = write(tmp_path, "p.json", SQUARE)
    weights = write(tmp_path, "w.json", {"weights": table})
    assert main(["subdivide", poset, "--weights", weights]) == 4
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and err.count("\n") == 1
    assert "'weights'" in err


def test_subdivide_schema_and_exit_codes(tmp_path, capsys):
    poset = write(tmp_path, "p.json", SQUARE)
    canonical = write(tmp_path, "w.json", {
        "weights": {"": "4", "a": "1", "b": "1", "a,b": "0"}
    })
    code, out = run(capsys, ["subdivide", poset, "--weights", canonical])
    assert code == 0
    parts = json.loads(out)["parts"]
    assert len(parts) == 2
    for part in parts:
        assert set(part) >= {
            "added_covers", "vertices", "lattice_points", "vanishing_variables"
        }

    # a mixed spike fails the cone inequalities for w and -w alike
    poset3 = write(tmp_path, "p3.json", {"elements": ["a", "b", "c"], "covers": []})
    w3 = write(tmp_path, "w3.json", {"weights": {"a": "5", "b": "-5"}})
    assert main(["subdivide", poset3, "--weights", w3, "--default-zero"]) == 3


def test_components_and_ideal_gens(tmp_path, capsys):
    poset = write(tmp_path, "p.json", SQUARE)
    zero = write(tmp_path, "w0.json", {"weights": {}})
    code, out = run(
        capsys, ["components", poset, "--weights", zero, "--default-zero"]
    )
    assert code == 0
    comps = json.loads(out)["components"]
    assert len(comps) == 1 and comps[0]["vanishing"] == []

    code, out = run(capsys, ["ideal-gens", poset, "--kind", "hibi"])
    gens = json.loads(out)["generators"]
    assert gens == [{"lead": ["a", "b"], "trail": ["a,b", ""]}]


def test_components_generators_use_base_keys(tmp_path, capsys):
    # w_J = |J & {a,b}|^2 splits the antichain {a,b,c} into two parts that
    # are not simplices; every trail must be [J1 u J2, J1 * J2] of its lead
    # pair, computed in the part's own structure
    elements = ["a", "b", "c"]
    poset = write(tmp_path, "p.json", {"elements": elements, "covers": []})
    weights = {
        ",".join(ideal): str(len(set(ideal) & {"a", "b"}) ** 2)
        for r in range(4) for ideal in combinations(elements, r)
    }
    w = write(tmp_path, "w.json", {"weights": weights})
    code, out = run(capsys, ["components", poset, "--weights", w])
    assert code == 0
    comps = json.loads(out)["components"]
    assert len(comps) == 2
    for comp in comps:
        part = validate_relative_structure(
            build_poset(elements, comp["order_covers"]), []
        )
        lat = part.lattice
        position = {lat.label_key(i): i for i in range(len(lat))}
        leads = set()
        for (k1, k2), trail in comp["generators"]:
            m1, m2 = lat.masks[position[k1]], lat.masks[position[k2]]
            union = lat.label_key(lat.position[m1 | m2])
            meet = lat.label_key(lat.position[star_mask(m1, m2, part)])
            assert trail == [union, meet]
            leads.add(frozenset((k1, k2)))
        assert len(leads) == len(lat.incomparable_pairs)
        assert not set(comp["vanishing"]) & set(position)


def test_marked_polytope_and_recognize(tmp_path, capsys):
    poset = write(tmp_path, "p.json", DIAMOND_MARKED)
    code, out = run(capsys, ["polytope", poset, "--kind", "mrpp"])
    assert code == 0
    assert len(json.loads(out)["lattice_points"]) == 9

    code, out = run(capsys, ["mcop-recognize", poset])
    assert code == 0
    report = json.loads(out)
    assert report["found"] is True


def test_internal_closure_failure_exits_5(tmp_path, capsys, monkeypatch):
    # a part whose lattice the star leaves trips subdivide's bug trap
    monkeypatch.setattr(degeneration, "star_closure_failure", lambda structure: (0, 1))
    poset = write(tmp_path, "p.json", SQUARE)
    weights = write(tmp_path, "w.json", {"weights": {"": "4", "a": "1", "b": "1", "a,b": "0"}})
    assert main(["subdivide", poset, "--weights", weights]) == 5
    err = capsys.readouterr().err
    assert err.startswith("internal error: InternalClosureFailure:") and err.count("\n") == 1


def test_theorem_violation_exits_5(tmp_path, capsys, monkeypatch):
    # an empty MRPP disagrees with the chain-order box in mcop_build
    monkeypatch.setattr(marked, "mrpp_points", lambda structure, scale=1: [])
    poset = write(tmp_path, "p.json", DIAMOND_MARKED)
    assert main(["polytope", poset, "--kind", "mcop", "--chain-set", "x,y"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("internal error: TheoremViolation:") and err.count("\n") == 1


@pytest.mark.parametrize("kind,vertices", [("gt", 40), ("fflv", 42)])
def test_full_flag_vertex_counts(capsys, kind, vertices):
    code, out = run(capsys, ["polytope", "--kind", kind, "--n", "4", "--dims", "0,1,2,3,4"])
    assert code == 0
    report = json.loads(out)
    assert len(report["lattice_points"]) == 64 and len(report["vertices"]) == vertices


def test_flag_command(tmp_path, capsys):
    code, out = run(
        capsys, ["flag", "--n", "4", "--dims", "0,2,4", "--mode", "gt"]
    )
    assert code == 0
    assert json.loads(out)["lattice_point_count"] == 6

    code, out = run(
        capsys,
        ["flag", "--n", "3", "--dims", "0,1,2,3", "--mode", "fflv",
         "--action", "ideals"],
    )
    assert code == 0
    assert len(json.loads(out)["ideals"]) == 8  # sum of C(3,k)


def test_flag_degenerate_command(tmp_path, capsys):
    weights = write(tmp_path, "w.json", {"weights": {}})
    code, out = run(
        capsys,
        ["flag", "--n", "4", "--dims", "0,2,4", "--mode", "fflv",
         "--action", "degenerate", "--weights", weights, "--default-zero"],
    )
    assert code == 0
    parts = json.loads(out)["parts"]
    assert len(parts) == 1 and parts[0]["vanishing_variables"] == []


def test_normality_command(tmp_path, capsys):
    poset = write(tmp_path, "p.json", SQUARE)
    code, out = run(capsys, ["normality", poset, "--max-dilation", "3"])
    assert code == 0
    assert json.loads(out)["normal"] is True


def test_max_dilation_of_64_and_more(tmp_path, capsys):
    # normality compares packed codes of one width; the Ehrhart count adapts it
    poset = write(tmp_path, "p.json", {"elements": ["a"]})
    assert main(["normality", poset, "--max-dilation", "64"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and err.count("\n") == 1
    code, out = run(capsys, ["ehrhart", poset, "--max-dilation", "70"])
    assert code == 0
    assert json.loads(out)["ehrhart"] == {str(m): m + 1 for m in range(71)}


@pytest.mark.parametrize("command", ["ehrhart", "normality"])
def test_negative_max_dilation_is_a_parse_error(tmp_path, capsys, command):
    poset = write(tmp_path, "p.json", {"elements": ["a", "b"]})
    assert main([command, poset, "--max-dilation", "-2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error:") and captured.err.count("\n") == 1


def test_mcop_polytope_command(tmp_path, capsys):
    poset = write(tmp_path, "p.json", DIAMOND_MARKED)
    code, out = run(
        capsys,
        ["polytope", poset, "--kind", "mcop", "--chain-set", "x,y"],
    )
    assert code == 0
    assert len(json.loads(out)["lattice_points"]) == 9


def test_text_format_renders_hasse(tmp_path, capsys):
    poset = write(tmp_path, "p.json", {
        "elements": ["a", "b"], "covers": [["a", "b"]],
    })
    code, out = run(capsys, ["--format", "text", "validate", poset])
    assert code == 0
    assert "< b" in out


def test_out_file(tmp_path, capsys):
    poset = write(tmp_path, "p.json", SQUARE)
    target = tmp_path / "report.json"
    code = main(["--out", str(target), "ideals", poset])
    assert code == 0
    assert json.loads(target.read_text())["ideals"] == ["", "a", "b", "a,b"]


def test_roundtrip_poset_file(tmp_path, capsys):
    # emitting the validated structure and re-parsing it is the identity
    poset = write(tmp_path, "p.json", DIAMOND_MARKED)
    code, out = run(capsys, ["validate", poset])
    report = json.loads(out)
    rebuilt = {
        "elements": report["elements"],
        "covers": DIAMOND_MARKED["covers"],
        "weak_covers": DIAMOND_MARKED["weak_covers"],
        "marked": DIAMOND_MARKED["marked"],
    }
    again = write(tmp_path, "p2.json", rebuilt)
    code, out2 = run(capsys, ["validate", again])
    assert json.loads(out2) == report
