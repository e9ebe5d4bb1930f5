import hashlib
import io
import json
import os
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from posetdegen import build_flag_poset, cli, degeneration, errors, jsontext, marked, polytopes
from posetdegen import flag as flag_module, lattice as lattice_module
from posetdegen.cli import main
from posetdegen.errors import TheoremViolation
from posetdegen.lattice import sublattice_to_order
from posetdegen.posets import (
    Poset,
    RelativeStructure,
    build_poset,
    chain_structure,
    linear_extension_indices,
    mask_bits,
    order_structure,
    validate_relative_structure,
)

from conftest import (
    counted,
    eager_subdivide,
    incomparable_pairs,
    naive_mcop_recognize,
    naive_subdivide_dict,
    naive_subdivide_report,
    nth_finite_difference,
    sample_cone_weight,
    shorten_part_sections,
    star_mask,
)


BIG = 10**2200  # 1/(BIG+1) has 2,201 digits, under Python's limit on integer text

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


GRID22 = {
    "elements": ["a", "b", "c", "d"],
    "covers": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]],
}


def strictly_below(covers):
    """The pairs (p, q) with p < q in the order that `covers` generate."""
    pairs = {tuple(c) for c in covers}
    while True:
        longer = {(p, r) for p, q in pairs for q2, r in pairs if q == q2} - pairs
        if not longer:
            return pairs
        pairs |= longer


@pytest.mark.parametrize("kind", ["order", "chain", "relative"])
def test_polytope_vertex_i_is_that_of_vertex_key_i(tmp_path, capsys, kind):
    # vertex i is 1_{max' J} for the ideal J that key i names
    payload = dict(GRID22, weak_covers=[["b", "d"], ["c", "d"]])
    poset = write(tmp_path, "p.json", payload)
    code, out = run(capsys, ["polytope", poset, "--kind", kind])
    assert code == 0
    report = json.loads(out)
    weak = strictly_below({"order": [], "chain": payload["covers"],
                           "relative": payload["weak_covers"]}[kind])
    assert len(report["vertices"]) == len(report["vertex_keys"]) == 6
    for key, vertex in zip(report["vertex_keys"], report["vertices"]):
        ideal = set(key.split(",")) if key else set()
        assert vertex == [int(e in ideal and not any((e, f) in weak for f in ideal))
                          for e in GRID22["elements"]]


@pytest.mark.parametrize("kind, weak_covers, relative_weak_covers", [
    ("order", GRID22["covers"], []),
    ("chain", [], GRID22["covers"]),
], ids=["order", "chain"])
def test_polytope_kind_equals_relative_with_its_weak_order(tmp_path, capsys, kind, weak_covers,
                                                           relative_weak_covers):
    # --kind order (chain) re-weakens a file's <' to trivial (to <), so it
    # prints what --kind relative prints for the file with that <'
    reports = []
    for argv_kind, weak in ((kind, weak_covers), ("relative", relative_weak_covers)):
        poset = write(tmp_path, f"{argv_kind}.json", dict(GRID22, weak_covers=weak))
        code, out = run(capsys, ["polytope", poset, "--kind", argv_kind])
        assert code == 0
        reports.append(json.loads(out))
    for key in ("vertices", "vertex_keys"):
        assert reports[0][key] == reports[1][key]


def grid_file(rows, cols):
    cells = [f"x{i}{j}" for i in range(rows) for j in range(cols)]
    covers = [[f"x{i}{j}", f"x{i + 1}{j}"] for i in range(rows - 1) for j in range(cols)]
    covers += [[f"x{i}{j}", f"x{i}{j + 1}"] for i in range(rows) for j in range(cols - 1)]
    return {"elements": cells, "covers": covers}


def test_ehrhart_counts_without_enumerating_points(tmp_path, capsys, monkeypatch):
    structure = cli.parse_poset_file(write(tmp_path, "m.json", DIAMOND_MARKED))
    marked_counts = {str(m): len(marked.mrpp_points(structure, m)) for m in range(4)}

    def refuse(*args):
        raise AssertionError("packed_multichains called")

    monkeypatch.setattr(polytopes, "packed_multichains", refuse)
    monkeypatch.setattr(marked, "packed_multichains", refuse)
    code, out = run(capsys, ["ehrhart", write(tmp_path, "p.json", SQUARE)])
    assert code == 0
    assert json.loads(out)["ehrhart"] == {"0": 1, "1": 4, "2": 9, "3": 16}
    code, out = run(capsys, ["ehrhart", write(tmp_path, "m.json", DIAMOND_MARKED)])
    assert code == 0
    assert json.loads(out)["ehrhart"] == marked_counts


def test_ehrhart_of_the_4x4_grid_up_to_dilation_20(tmp_path, capsys):
    # its Ehrhart polynomial has degree 16 and leading term e(P)/16!, so each
    # 16th finite difference is e(P); enumerating these points could not finish
    poset = write(tmp_path, "p.json", grid_file(4, 4))
    code, out = run(capsys, ["ehrhart", poset, "--max-dilation", "20"])
    assert code == 0
    values = [json.loads(out)["ehrhart"][str(m)] for m in range(21)]
    linearizations = len(linear_extension_indices(cli.parse_poset_file(poset).poset))
    assert linearizations == 24024
    for start in range(5):
        assert nth_finite_difference(values[start:start + 17]) == linearizations


@pytest.mark.parametrize("command", ["ehrhart", "normality"])
@pytest.mark.parametrize("payload", [SQUARE, DIAMOND_MARKED])
def test_peeling_certificate_failure_exits_5(tmp_path, capsys, monkeypatch, command, payload):
    # a max_weak that loses element 0 leaves the ideal {e0} without a vertex
    poset = write(tmp_path, "p.json", payload)
    real = RelativeStructure.max_weak
    monkeypatch.setattr(RelativeStructure, "max_weak", lambda self, mask: real(self, mask) & ~1)
    assert main([command, poset]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: InternalClosureFailure: ideal ")
    assert "not generated by its <'-maximal elements" in captured.err
    assert captured.err.count("\n") == 1


def test_part_report_reads_the_carried_covers(monkeypatch):
    s = chain_structure(build_poset(
        ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]))
    sub = degeneration.subdivide(s, [0] * len(s.lattice))
    calls = []
    real = Poset.covers
    monkeypatch.setattr(Poset, "covers", lambda self: calls.append(self) or real(self))
    chunks = cli.parts_json(cli.PartsReport(s, sub, [(6, 6)]))
    assert calls == []
    (part,) = json.loads("".join(chunks))["parts"]
    assert part["order_covers"] == [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]]
    assert part["added_covers"] == []


def test_part_report_of_an_interior_subdivision_builds_no_order():
    s = order_structure(build_poset(
        ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]))
    sub = degeneration.subdivide(s, degeneration.canonical_interior_weight(s))
    chunks = cli.parts_json(cli.PartsReport(s, sub, [(5, 5)] * 2))
    assert all(vars(part).keys().isdisjoint({"order", "covers"}) for part in sub)
    parts = json.loads("".join(chunks))["parts"]
    assert [part["order_covers"] for part in parts] == [
        [["a", "b"], ["b", "c"], ["c", "d"]], [["a", "c"], ["b", "d"], ["c", "b"]]]
    assert [part["added_covers"] for part in parts] == [[["b", "c"]], [["c", "b"]]]


REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=40,
)


STR_LEAVES = st.text(st.sampled_from('a%s"\\\x1f\u00e9\u2028\ud800\U0001f600'), max_size=4)
INT_LEAVES = st.integers(-10 ** 40, 10 ** 40) | st.sampled_from([-1, 0, 10 ** 300])


@st.composite
def uniform_lists(draw):
    """Two or more items of one shape, rows or records of rows under one key
    set, whose leaves are all str or all int."""
    leaf = draw(st.sampled_from([STR_LEAVES, INT_LEAVES]))
    row = st.lists(leaf, min_size=1, max_size=4)
    row = row | row.map(tuple)
    keys = draw(st.none() | st.lists(STR_LEAVES, min_size=1, max_size=3, unique=True))
    item = row if keys is None else st.fixed_dictionaries({k: row for k in keys})
    return draw(st.lists(item, min_size=2, max_size=6))


@settings(max_examples=150, deadline=None)
@given(report=REPORT_VALUES | uniform_lists())
@example(report={"é\x00\u2028\U0001f600": ["\x1f\"\\", "\ud800"], "": {}, "a": []})
@example(report=[[True, 1, 0, False], [1, 2], ["x", "y"], ["x", 1], [None], (), [[]]])
@example(report={"b": {"c": [1, {"d": (2, 3)}]}, "a": -10 ** 30})
@example(report=[[1, True]])
@example(report=[[1], ["a"]])
@example(report=[["a"], []])
@example(report=[(1, 2), [3]])
@example(report=[[["a"]]])
@example(report=[[-10 ** 30, 0]])
@example(report={"a": [["x", "y"], ["x", "y"]], "b": [("x", "y")], "c": {"d": [["x", "y"]]}})
@example(report=[[1, 2], [3, True]])
@example(report=[{"a": ["x"]}, {"b": ["y"]}])
@example(report=[{"%s": ["a"]}, {"%s": ["b"]}])
@example(report=[["a", "b"], ["c"]])
@example(report=[{"": None}, {"0": None}])
@example(report=[{}, {}])
@example(report=[{"a": ["x"], "b": []}, {"a": ["y"], "b": []}])
@example(report=[{"a": [1], "b": ["x"]}, {"a": [2], "b": ["y"]}])
@example(report={"x": [[i, -i, 10 ** 30] for i in range(200)]})
@example(report=[{"k%": ["a%d"] * (i % 3 + 1), "j": ("\ud800",)} for i in range(150)])
def test_report_writer_equals_json_dumps(report):
    assert jsontext.report_json(report) == json.dumps(report, sort_keys=True, indent=2)


@pytest.mark.parametrize("report", [
    1.5, [0, 2.0], {"a": {"b": [float("nan")]}}, Fraction(1, 2), [Fraction(2)],
    {1: "a"}, {"a": b"bytes"}, {"a": {"x"}},
    [[1.5]], [[1, Fraction(1, 2)]], [["a"], [1.0]], [[1], [2], [3, 4.0]],
    [{"a": [1]}, {"a": [1.5]}], [["x"], ["y", Fraction(1, 2)]],
])
def test_report_writer_refuses_other_types(report):
    # json.dumps would render a float, a non-str key or nothing at all; a
    # bad row after good rows is refused too
    with pytest.raises(TypeError):
        jsontext.report_json(report)


def structure_file(tmp_path, structure):
    """A poset file describing a validated structure."""
    poset = structure.poset
    pairs = lambda rows: [[poset.elements[i], poset.elements[j]]
                          for i in range(poset.n) for j in mask_bits(rows[i])]
    payload = {"elements": list(poset.elements), "covers": pairs(poset.above),
               "weak_covers": pairs(structure.weak_above)}
    if structure.marked:
        payload["marked"] = {poset.elements[i]: v for i, v in structure.marking.items()}
    return write(tmp_path, "p.json", payload)


def test_subdivide_report_bytes_match_the_old_report_path(tmp_path, capsysbinary):
    # interior weights (one part per linearization), negated and zero ones,
    # boundary weights (parts walked across walls, or every linearization
    # lifted), marked weights and labels that JSON escapes, on stdout and in
    # a file, against the report built with Fractions, a sort per part and
    # json.dumps
    rng = random.Random(9)
    grid = build_poset(["a", "b", "c", "d", "e", "f"],
                       [("a", "b"), ("b", "c"), ("d", "e"), ("e", "f"),
                        ("a", "d"), ("b", "e"), ("c", "f")])
    order, chain = order_structure(grid), chain_structure(grid)
    three = order_structure(Poset(["a", "b", "c"], (0, 0, 0)))
    size = lambda m: bin(m).count("1")
    least_shift = [size(m) ** 2 for m in three.lattice.masks]
    least_shift[three.lattice.position[0b011]] = 2
    flag = build_flag_poset(5, (0, 2, 5)).structure("fflv")
    std = marked.standardize(flag)
    canonical = degeneration.canonical_interior_weight(std.quotient)
    notmcop = ",".join(sorted(["p1.2", "p1.3", "p1.4", "p1.5"]))
    interior = degeneration.canonical_interior_weight(order)
    escaped = order_structure(build_poset(
        ['q"', "b\\", "\u00e9", "c\x01", "\u2028"], [('q"', "b\\"), ("\u00e9", "c\x01")]))
    cases = [
        (order, [Fraction(v, 6) for v in interior]),
        (order, [-v for v in interior]),
        (order, [0] * len(order.lattice)),
        (chain, [0] * len(chain.lattice)),
        (escaped, degeneration.canonical_interior_weight(escaped)),
        (chain, sample_cone_weight(chain, rng)),
        (three, [size(m & 0b011) ** 2 for m in three.lattice.masks]),
        (three, least_shift),
        (flag, [int(flag.lattice.label_key(pos) == notmcop) for pos in std.jlambda]),
        (flag, [Fraction(canonical[q], 2) for q in std.lattice_map]),
    ]
    for structure, values in cases:
        poset = structure_file(tmp_path, structure)
        parsed = cli.parse_poset_file(poset)
        keys = (cli.jlambda_keys(marked.standardize(parsed)) if parsed.marked
                else parsed.lattice.keys)
        weights = write(tmp_path, "w.json",
                        {"weights": {k: str(v) for k, v in zip(keys, values)}})
        expected = naive_subdivide_report(parsed, [Fraction(v) for v in values])
        out = tmp_path / "report.json"
        assert main(["--out", str(out), "subdivide", poset, "--weights", weights]) == 0
        assert out.read_bytes() == expected
        assert main(["subdivide", poset, "--weights", weights]) == 0
        assert capsysbinary.readouterr() == (expected, b"")


@pytest.mark.parametrize("elements, digest", [([], "5382e9ca8f04ced3"), (["a"], "85af73bf4120df30")],
                         ids=["empty", "one"])
def test_subdivide_of_the_smallest_posets_keeps_its_bytes(tmp_path, capsysbinary, elements,
                                                           digest):
    # one part with the empty linearization, or a linearization of one
    # element: no covers; the digests are those of the reports written when
    # every part was built with its order
    poset = write(tmp_path, "p.json", {"elements": elements})
    weights = write(tmp_path, "w.json", {"weights": {}})
    assert main(["subdivide", poset, "--weights", weights, "--default-zero"]) == 0
    out, err = capsysbinary.readouterr()
    assert err == b"" and hashlib.sha256(out).hexdigest()[:16] == digest


def test_interior_components_and_flag_degenerations_keep_their_bytes(
        tmp_path, capsysbinary, monkeypatch):
    # the reports read each part's order or covers; each is run once as it
    # is and once with every linearization part rebuilt as an eager one
    grid = build_poset(["a", "b", "c", "d", "e", "f"],
                       [("a", "b"), ("b", "c"), ("d", "e"), ("e", "f"),
                        ("a", "d"), ("b", "e"), ("c", "f")])
    runs = []
    for structure in (order_structure(grid), chain_structure(grid)):
        poset = structure_file(tmp_path, structure)
        values = degeneration.canonical_interior_weight(structure)
        for signed in (values, [-v for v in values]):
            weights = write(tmp_path, f"w{len(runs)}.json", {"weights": {
                k: str(v) for k, v in zip(structure.lattice.keys, signed)}})
            runs.append(["components", poset, "--weights", weights])
    for mode in ("gt", "fflv"):
        flag = build_flag_poset(4, (0, 1, 3, 4))
        std = marked.standardize(flag.structure(mode))
        canonical = degeneration.canonical_interior_weight(std.quotient)
        keys = cli.jlambda_keys(std)
        weights = write(tmp_path, f"w{len(runs)}.json", {"weights": {
            k: str(canonical[q]) for k, q in zip(keys, std.lattice_map)}})
        runs.append(["flag", "--n", "4", "--dims", "0,1,3,4", "--mode", mode,
                     "--action", "degenerate", "--weights", weights])
    reports = []
    for argv in runs:
        assert main(argv) == 0
        reports.append(capsysbinary.readouterr())
    eager, replaced = eager_subdivide(degeneration.subdivide)
    monkeypatch.setattr(degeneration, "subdivide", eager)
    monkeypatch.setattr(marked, "subdivide", eager)
    for argv, report in zip(runs, reports):
        before = len(replaced)
        assert main(argv) == 0
        assert capsysbinary.readouterr() == report
        assert len(replaced) > before  # the weight was interior


@pytest.mark.parametrize("payload", [SQUARE, DIAMOND_MARKED], ids=["unmarked", "marked"])
def test_subdivide_text_format_renders_the_dict_report(tmp_path, capsys, payload):
    poset = write(tmp_path, "p.json", payload)
    parsed = cli.parse_poset_file(poset)
    if parsed.marked:
        std = marked.standardize(parsed)
        keys = cli.jlambda_keys(std)
        canonical = degeneration.canonical_interior_weight(std.quotient)
        values = [canonical[q] for q in std.lattice_map]
    else:
        keys = parsed.lattice.keys
        values = degeneration.canonical_interior_weight(parsed)
    weights = write(tmp_path, "w.json", {"weights": {k: str(v) for k, v in zip(keys, values)}})
    code, out = run(capsys, ["--format", "text", "subdivide", poset, "--weights", weights])
    assert code == 0
    assert out == cli.render_text(naive_subdivide_dict(parsed, values))


def test_ehrhart_of_the_12_antichain_runs_well_under_a_second(tmp_path, capsys):
    # 4,096 ideals; the all-pairs superset lists alone took over a second
    poset = write(tmp_path, "p.json", {"elements": [f"a{i}" for i in range(12)]})
    start = time.perf_counter()
    code, out = run(capsys, ["ehrhart", poset, "--max-dilation", "4"])
    assert time.perf_counter() - start < 0.5
    assert code == 0
    assert json.loads(out)["ehrhart"] == {str(m): (m + 1) ** 12 for m in range(5)}


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


def test_standardize_refuses_colliding_class_labels(tmp_path, capsys):
    # a and b merge into a class named "a|b", which another element is called
    poset = write(tmp_path, "p.json", {
        "elements": ["a", "b", "a|b", "c"],
        "covers": [["a", "a|b"], ["b", "a|b"], ["a|b", "c"]],
        "marked": {"a": 1, "b": 1, "c": 0}})
    assert main(["validate", poset]) == 0
    capsys.readouterr()
    assert main(["standardize", poset]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "validation error: two classes of the quotient are both labelled 'a|b'\n")


def test_standardize_time_does_not_grow_with_the_marking(tmp_path, capsys):
    # one decomposition term per distinct marking value, not one per level:
    # a loop over 3,000,000 levels took seconds
    poset = write(tmp_path, "p.json", {
        "elements": ["a", "b", "c"], "covers": [["a", "b"], ["b", "c"]],
        "marked": {"a": 3000000, "c": 0}})
    start = time.perf_counter()
    code, out = run(capsys, ["standardize", poset])
    assert time.perf_counter() - start < 1
    assert code == 0
    expected = {
        "classes": [["a"], ["b"], ["c"]],
        "hasse": ["a", "  < b", "b", "  < c", "c"],
        "identity": True,
        "mu": {"a": 3000000, "c": 0},
        "quotient_covers": [["a", "b"], ["b", "c"]],
        "quotient_elements": ["a", "b", "c"],
    }
    assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_marking_strings_of_integers_are_accepted(tmp_path, capsys):
    payload = dict(DIAMOND_MARKED, marked={"bot": "2", "top": "-0"})
    code, out = run(capsys, ["validate", write(tmp_path, "p.json", payload)])
    assert code == 0 and json.loads(out)["marked"] == ["bot", "top"]


LABELS = st.sampled_from(["a", "b", "c", "d", "e", "f"])
FILE_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3) | LABELS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(LABELS, inner, max_size=3),
    max_leaves=6,
)
LABEL_PAIRS = st.lists(st.lists(LABELS, min_size=2, max_size=2), max_size=6)
POSET_FILES = FILE_VALUES | st.fixed_dictionaries({}, optional={
    "elements": st.lists(LABELS, max_size=6) | FILE_VALUES,
    "covers": LABEL_PAIRS | FILE_VALUES,
    "weak_covers": LABEL_PAIRS | FILE_VALUES,
    "marked": st.dictionaries(LABELS, st.integers(-2, 2) | st.integers(-2, 2).map(str))
    | FILE_VALUES,
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


@pytest.mark.parametrize("pairs, weak_pairs, expected", [(0, 0, 2 ** 40), (20, 10, 3 ** 20)])
def test_validate_of_a_disconnected_poset_lists_no_ideal(tmp_path, capsys, monkeypatch,
                                                         pairs, weak_pairs, expected):
    # a 40-element antichain, and a 20-pair matching with <' on half the
    # pairs: |J| is the product over the components, and no ideal is listed
    calls = counted(monkeypatch, lattice_module, "enumerate_ideals")
    labels = [f"a{k}" for k in range(40)]
    covers = [[f"a{k}", f"a{k + 20}"] for k in range(pairs)]
    payload = {"elements": labels, "covers": covers, "weak_covers": covers[:weak_pairs]}
    code, out = run(capsys, ["validate", write(tmp_path, "p.json", payload)])
    assert code == 0 and json.loads(out)["ideal_count"] == expected
    assert calls == []


def test_weights_missing_key_is_parse_error(tmp_path, capsys):
    poset = write(tmp_path, "p.json", SQUARE)
    weights = write(tmp_path, "w.json", {"weights": {"": "0", "a": "1", "b": "1"}})
    assert main(["cone-check", poset, "--weights", weights]) == 4
    code, out = run(
        capsys, ["cone-check", poset, "--weights", weights, "--default-zero"]
    )
    assert code == 0
    assert json.loads(out)["position"] == "outside"


DUPLICATE_KEYS = {
    "weights": ("w.json", '{"weights": {"": "0", "a": "1", "a": "5", "b": "1", "a,b": "3"}}',
                "a"),
    "marking": ("p.json", '{"elements": ["bot", "top"], "covers": [["bot", "top"]],'
                ' "marked": {"bot": 1, "top": 0, "top": 1}}', "top"),
    "elements": ("p.json", '{"elements": ["a", "b"], "elements": ["a"]}', "elements"),
}


@pytest.mark.parametrize("name, text, key", DUPLICATE_KEYS.values(), ids=DUPLICATE_KEYS)
def test_duplicate_keys_are_one_parse_error_line(tmp_path, capsys, name, text, key):
    # json.load keeps the last value of a repeated key; a file is refused
    # instead, whichever object repeats it
    poset = write(tmp_path, "p.json", SQUARE)
    weights = write(tmp_path, "w.json", {"weights": {}})
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert main(["subdivide", poset, "--weights", weights, "--default-zero"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: {path}: duplicate key {key!r}\n"


@pytest.mark.parametrize("a", ["0.10000000000000000001", '"0.10000000000000000001"'],
                         ids=["number", "string"])
def test_numeric_weights_are_read_exactly(tmp_path, capsys, a):
    # as floats both weights round to 0.1 and the one inequality is tight
    poset = write(tmp_path, "p.json", SQUARE)
    weights = tmp_path / "w.json"
    weights.write_text(f'{{"weights": {{"": 0, "a": {a}, "b": 0, "a,b": 0.1}}}}',
                       encoding="utf-8")
    code, out = run(capsys, ["cone-check", poset, "--weights", str(weights)])
    assert code == 0 and json.loads(out)["position"] == "outside"


@pytest.mark.parametrize("a", ["1e5000", '"1e5000"', '"1E+999999999"', '"-2.5e-1001"'])
def test_weight_exponents_beyond_a_thousand_are_one_parse_error_line(tmp_path, capsys, a):
    # Fraction would build the integer 10**exponent, and a report cannot print 5,000 digits
    poset = write(tmp_path, "p.json", SQUARE)
    weights = tmp_path / "w.json"
    weights.write_text(f'{{"weights": {{"": 0, "a": {a}, "b": 0, "a,b": 0}}}}',
                       encoding="utf-8")
    assert main(["subdivide", poset, "--weights", str(weights)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and err.count("\n") == 1 and "exponent" in err


ANTICHAIN3 = {"elements": ["a", "b", "c"]}
WEIGHT_KEYS = st.sampled_from(["", "a", "b", "c", "a,b", "a,c", "b,c", "a,b,c"])
MALFORMED_KEYS = st.sampled_from(["b,a", "a,", " a", "A", "d", "a,b,c,d"]) | st.text(max_size=3)
NUMBER_TEXT = st.from_regex(r"-?(0|[1-9][0-9]{0,3})(\.[0-9]{1,25})?([eE][-+]?[0-9]{1,4})?",
                            fullmatch=True)
NOT_RATIONAL_TEXT = st.sampled_from([
    "true", "false", "null", "[]", "[1]", '{"a": 1}', '"x"', '"1/0"', '"nan"', "NaN",
    "-Infinity",
]) | st.text(max_size=3).map(json.dumps)
RATIONAL_TEXT = NUMBER_TEXT | st.integers(-9, 9).map(str) | st.sampled_from(['"3/2"', '"-1"'])


def json_object_text(table):
    """An object from keys and literal value texts, which json.dumps would round."""
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in table.items()) + "}"


@st.composite
def weights_file_texts(draw):
    table = draw(st.dictionaries(WEIGHT_KEYS, RATIONAL_TEXT | NOT_RATIONAL_TEXT, max_size=8))
    table.update(draw(st.dictionaries(MALFORMED_KEYS, RATIONAL_TEXT, max_size=1)))
    body = json_object_text(table)
    return draw(st.sampled_from([
        f'{{"weights": {body}}}', f'{{"weights": {body}, "extra": 1}}', body,
        f'{{"weights": [{body}]}}',
    ]))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=weights_file_texts(), default_zero=st.booleans(),
       command=st.sampled_from(["cone-check", "subdivide", "components"]))
@example(text='{"weights": {"a": 1.5e-3}}', default_zero=True, command="subdivide")
@example(text='{"weights": {"a,b": -1, "c": -1, "": 2}}', default_zero=True,
         command="subdivide")
@example(text=json.dumps({"weights": {
    "a": f"1/{BIG + 1}", "a,c": f"1/{BIG + 1}", "a,b": f"1/{BIG + 3}", "a,b,c": f"1/{BIG + 3}",
}}), default_zero=True, command="subdivide")
def test_arbitrary_weights_files_exit_with_a_documented_code(
    tmp_path, capsys, text, default_zero, command
):
    poset = write(tmp_path, "p.json", ANTICHAIN3)
    weights = tmp_path / "fuzz.json"
    weights.write_text(text, encoding="utf-8")
    argv = [command, poset, "--weights", str(weights)] + ["--default-zero"] * default_zero
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 3, 4)
    assert err == "" if code == 0 else err.count("\n") == 1
    assert err.startswith({0: "", 3: "outside cone:", 4: "parse error:"}[code])
    assert "Traceback" not in err


def test_report_beyond_the_integer_text_limit_is_one_parse_error_line(tmp_path, capsys):
    # each denominator has 2,201 digits, the lift's common scale 4,401; the
    # part that cannot be printed is the first, then the second, and no byte
    # of the report is written either way
    poset = write(tmp_path, "p.json", SQUARE)
    out = tmp_path / "report.json"
    for big, zero in (("a", "b"), ("b", "a")):
        weights = write(tmp_path, "w.json", {"weights": {
            "": "0", big: f"1/{BIG + 1}", zero: "0", "a,b": f"1/{BIG + 3}",
        }})
        assert main(["subdivide", poset, "--weights", weights]) == 4
        assert main(["--out", str(out), "subdivide", poset, "--weights", weights]) == 4
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        for err in captured.err.splitlines(keepends=True):
            assert err.startswith("parse error:")
            assert str(sys.get_int_max_str_digits()) in err
        assert captured.err.count("\n") == 2


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


def test_ideal_gens_monomial_lists_each_incomparable_pair_once(tmp_path, capsys):
    path = write(tmp_path, "p.json", {"elements": ["a", "b", "c"]})
    code, out = run(capsys, ["ideal-gens", path, "--kind", "monomial"])
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "monomial"
    gens = report["generators"]
    assert gens and all(list(g) == ["lead"] for g in gens)  # no "trail"
    lat = cli.parse_poset_file(path).lattice
    pairs = {frozenset((lat.keys[a], lat.keys[b])) for a, b in incomparable_pairs(lat)}
    leads = [frozenset(g["lead"]) for g in gens]
    assert len(leads) == len(pairs) == 9 and set(leads) == pairs


ROUND_TRIP_FILES = {
    "antichain": {"elements": ["a", "b", "c"]},
    "marked": DIAMOND_MARKED,
    "weak": {key: DIAMOND_MARKED[key] for key in ("elements", "covers", "weak_covers")},
    # standardizes to the classes {a,b,c}, {d}, {e}: rows of two lengths
    "merged": {"elements": ["a", "b", "c", "d", "e"],
               "covers": [["a", "b"], ["b", "c"], ["d", "e"]],
               "marked": {"a": 1, "c": 1, "d": 2, "e": 0}},
    # w_J = |J & {a,b}|^2 on the antichain {a,b,c}: two parts, tight pairs
    "weights": {"weights": {",".join(ideal): str(len(set(ideal) & {"a", "b"}) ** 2)
                            for r in range(4) for ideal in combinations("abc", r)}},
}
FLAG_3 = ["--n", "3", "--dims", "0,1,2,3"]
ROUND_TRIP_COMMANDS = {
    "validate": ["validate", "{marked}"],
    "ideals": ["ideals", "{weak}"],
    "polytope-order": ["polytope", "{antichain}", "--kind", "order"],
    "polytope-relative": ["polytope", "{weak}", "--kind", "relative"],
    "polytope-mrpp": ["polytope", "{marked}", "--kind", "mrpp"],
    "polytope-gt": ["polytope", "--kind", "gt", *FLAG_3],
    "polytope-fflv": ["polytope", "--kind", "fflv", *FLAG_3],
    "ehrhart": ["ehrhart", "{weak}", "--max-dilation", "3"],
    "normality": ["normality", "{weak}", "--max-dilation", "2"],
    "cone-check": ["cone-check", "{antichain}", "--weights", "{weights}"],
    "components": ["components", "{antichain}", "--weights", "{weights}"],
    "standardize": ["standardize", "{merged}"],
    "mcop-recognize": ["mcop-recognize", "{marked}"],
    "flag-polytope": ["flag", *FLAG_3, "--mode", "fflv", "--action", "polytope"],
    "flag-degenerate": ["flag", *FLAG_3, "--mode", "gt", "--action", "degenerate",
                        "--weights", "{flag_weights}"],
    **{f"ideal-gens-{kind}": ["ideal-gens", "{antichain}", "--kind", kind]
       for kind in ("hibi", "hibili", "relative", "monomial")},
}


@pytest.mark.parametrize("name, argv", ROUND_TRIP_COMMANDS.items(), ids=ROUND_TRIP_COMMANDS)
def test_every_command_report_round_trips_through_json(tmp_path, capsys, name, argv):
    # the writer's bytes on the shapes the commands really emit; point lists
    # come out sorted without being sorted again
    files = {stem: write(tmp_path, f"{stem}.json", payload)
             for stem, payload in ROUND_TRIP_FILES.items()}
    std = marked.standardize(build_flag_poset(3, (0, 1, 2, 3)).structure("gt"))
    canonical = {key: str((3 - len(key.split(","))) ** 2 if key else 9)
                 for key in cli.jlambda_keys(std)}
    files["flag_weights"] = write(tmp_path, "fw.json", {"weights": canonical})
    args = [arg.format(**files) for arg in argv]
    code, out = run(capsys, args)
    assert code == 0
    report = json.loads(out)
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"
    # the text format renders the library's tuples as the JSON's lists
    code, text = run(capsys, ["--format", "text", *args])
    assert code == 0 and text == cli.render_text(report)
    if name in ("polytope-mrpp", "polytope-gt", "polytope-fflv", "flag-polytope"):
        for points in (report["lattice_points"], report.get("vertices", [])):
            assert points == sorted(points)


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
        assert len(leads) == len(incomparable_pairs(lat))
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
    # a part whose lattice the star leaves trips the walk's bug trap
    monkeypatch.setattr(degeneration, "star_closure_failure", lambda structure: (0, 1))
    poset = write(tmp_path, "p.json", SQUARE)
    weights = write(tmp_path, "w.json", {"weights": {}})
    assert main(["subdivide", poset, "--weights", weights, "--default-zero"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("internal error: InternalClosureFailure:") and err.count("\n") == 1


def test_theorem_violation_exits_5(tmp_path, capsys, monkeypatch):
    # an empty MRPP disagrees with the chain-order box in mcop_build
    monkeypatch.setattr(marked, "mrpp_points", lambda structure, scale=1: [])
    poset = write(tmp_path, "p.json", DIAMOND_MARKED)
    assert main(["polytope", poset, "--kind", "mcop", "--chain-set", "x,y"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("internal error: TheoremViolation:") and err.count("\n") == 1


def test_marked_commands_standardize_once(tmp_path, capsys, monkeypatch):
    # the J_lambda weight keys and the subdivision share one standardization,
    # and the degenerate command validates its flag structure once
    standardized = counted(monkeypatch, marked, "standardize")
    validated = counted(monkeypatch, flag_module, "validate_relative_structure")
    weights = write(tmp_path, "w.json", {"weights": {}})
    for mode in ("gt", "fflv"):
        standardized.clear()
        validated.clear()
        code, out = run(capsys, ["flag", "--n", "4", "--dims", "0,2,4", "--mode", mode,
                                 "--action", "degenerate", "--weights", weights,
                                 "--default-zero"])
        assert code == 0 and len(json.loads(out)["parts"]) == 1
        assert len(standardized) == len(validated) == 1
    standardized.clear()
    poset = write(tmp_path, "p.json", DIAMOND_MARKED)
    code, out = run(capsys, ["subdivide", poset, "--weights", weights, "--default-zero"])
    assert code == 0 and len(json.loads(out)["parts"]) == 1
    assert len(standardized) == 1


def test_lower_dimensional_section_exits_5(tmp_path, capsys, monkeypatch):
    # a marked subdivide whose parts' sections read one dimension short
    poset = write(tmp_path, "p.json", DIAMOND_MARKED)
    parsed = cli.parse_poset_file(poset)
    std = marked.standardize(parsed)
    canonical = degeneration.canonical_interior_weight(std.quotient)
    weights = write(tmp_path, "w.json", {"weights": {
        k: str(canonical[q]) for k, q in zip(cli.jlambda_keys(std), std.lattice_map)}})
    shorten_part_sections(monkeypatch)
    assert main(["subdivide", poset, "--weights", weights]) == 5
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal error: TheoremViolation:")
    assert err.count("\n") == 1


def test_section_volume_mismatch_exits_5(tmp_path, capsys, monkeypatch):
    # a marked subdivide whose MRPP reads one normalized volume larger than
    # its fine sections add up to
    poset = write(tmp_path, "p.json", DIAMOND_MARKED)
    std = marked.standardize(cli.parse_poset_file(poset))
    canonical = degeneration.canonical_interior_weight(std.quotient)
    weights = write(tmp_path, "w.json", {"weights": {
        k: str(canonical[q]) for k, q in zip(cli.jlambda_keys(std), std.lattice_map)}})
    real = marked.ehrhart_values
    monkeypatch.setattr(marked, "ehrhart_values",
                        lambda structure, m: real(structure, m)[:-1] + [real(structure, m)[-1] + 1])
    assert main(["subdivide", poset, "--weights", weights]) == 5
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal error: InternalClosureFailure:")
    assert "do not cover the marked polytope" in err and err.count("\n") == 1


def test_normality_certificate_failure_exits_5(tmp_path, capsys, monkeypatch):
    # a dilation-2 count that the 2-fold sums do not reach
    real = lattice_module.IdealLattice.multichain_count
    monkeypatch.setattr(lattice_module.IdealLattice, "multichain_count",
                        lambda self, m: real(self, m) + 1)
    poset = write(tmp_path, "p.json", SQUARE)
    assert main(["normality", poset, "--max-dilation", "3"]) == 5
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal error: TheoremViolation:")
    assert err.count("\n") == 1


def error_classes(base=errors.PosetDegenError):
    """`base` and every subclass of it, recursively."""
    yield base
    for sub in base.__subclasses__():
        yield from error_classes(sub)


ERROR_ARGS = {
    errors.CycleDetected: (["a", "b"],),
    errors.ConditionViolated: ("ii", "a"),
    errors.OutsideCone: ([(0, 1)],),
}
NOT_VALIDATION = {
    errors.PosetDegenError: 5,
    errors.InternalClosureFailure: 5,
    errors.TheoremViolation: 5,
    errors.OutsideCone: 3,
    errors.ParseError: 4,
}
PREFIXES = {2: "validation error", 3: "outside cone", 4: "parse error"}


@pytest.mark.parametrize("error", list(error_classes()), ids=lambda c: c.__name__)
def test_every_error_class_is_one_line_with_a_documented_exit_code(
        tmp_path, capsys, monkeypatch, error):
    exc = error(*ERROR_ARGS.get(error, ("a message",)))

    def raise_it(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_ideals", raise_it)
    code = main(["ideals", str(tmp_path / "p.json")])
    assert code == NOT_VALIDATION.get(error, 2)
    prefix = PREFIXES.get(code, f"internal error: {error.__name__}")
    assert capsys.readouterr().err == f"{prefix}: {exc}\n"


def test_height_deficient_sublattice_is_a_validation_error(tmp_path, capsys, monkeypatch):
    # {{}, {a, b}} is closed under union and intersection, but too short
    # for the ideals of an order on two elements
    def cmd(args):
        structure = cli.parse_poset_file(args.file)
        return sublattice_to_order([0, structure.poset.full], structure.poset)

    monkeypatch.setattr(cli, "cmd_ideals", cmd)
    assert main(["ideals", write(tmp_path, "p.json", SQUARE)]) == 2
    assert capsys.readouterr().err == "validation error: sublattice has height 2, expected 3\n"


def test_vertex_map_injectivity_trap_exits_5(tmp_path, capsys, monkeypatch):
    # every vertex the origin: only a bug can make J -> 1_{max' J} collide
    monkeypatch.setattr(polytopes, "indicator", lambda mask, n: (0,) * n)
    poset = write(tmp_path, "p.json", SQUARE)
    assert main(["polytope", poset, "--kind", "order"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("internal error: InternalClosureFailure: vertex map")
    assert err.count("\n") == 1


def test_subdivide_chain_longer_than_the_recursion_limit(tmp_path, capsys):
    n = sys.getrecursionlimit() + 100
    labels = [f"c{i}" for i in range(n)]
    poset = write(tmp_path, "p.json", {
        "elements": labels, "covers": [list(c) for c in zip(labels, labels[1:])]})
    weights = write(tmp_path, "w.json", {"weights": {}})
    code, out = run(capsys, ["subdivide", poset, "--weights", weights, "--default-zero"])
    assert code == 0
    parts = json.loads(out)["parts"]
    assert len(parts) == 1 and parts[0]["vanishing_variables"] == []


@pytest.mark.parametrize("kind,vertices", [("gt", 40), ("fflv", 42)])
def test_full_flag_vertex_counts(capsys, kind, vertices):
    code, out = run(capsys, ["polytope", "--kind", kind, "--n", "4", "--dims", "0,1,2,3,4"])
    assert code == 0
    report = json.loads(out)
    assert len(report["lattice_points"]) == 64 and len(report["vertices"]) == vertices


@pytest.mark.parametrize("kind,vertices", [("gt", 358), ("fflv", 425)])
def test_full_n5_flag_vertex_counts_well_under_a_second(capsys, kind, vertices):
    # Wolfe's test gives these counts in 8.9 s (GT) and 7.5 s (FFLV); the
    # tight-cover partitions (GT) and the rank of the tight MCOP inequalities
    # (FFLV) decide them in a fraction of that
    start = time.perf_counter()
    code, out = run(capsys, ["polytope", "--kind", kind, "--n", "5", "--dims", "0,1,2,3,4,5"])
    assert time.perf_counter() - start < 1
    assert code == 0
    report = json.loads(out)
    assert len(report["lattice_points"]) == 1024 and len(report["vertices"]) == vertices


@pytest.mark.parametrize("mode,size,digest", [
    ("gt", 207858, "339e7c5336f9900500e38030f2bbe2891e5f3afab046c8a79ab0ae1c522ea694"),
    ("fflv", 207860, "01a6029e5bc4cae889c74d6dcc7783c2105afa2f47becd9d55a536a3caa318bc"),
])
def test_full_n5_flag_degeneration_keeps_its_bytes_well_under_a_second(
        tmp_path, capsysbinary, mode, size, digest):
    # 286 parts under the canonical weight of the quotient; building every
    # FFLV section and its vertices by Wolfe's test took about a minute, and
    # these are the bytes that path printed
    flag = build_flag_poset(5, (0, 1, 2, 3, 4, 5))
    std = marked.standardize(flag.structure(mode))
    canonical = degeneration.canonical_interior_weight(std.quotient)
    weights = write(tmp_path, "w.json", {"weights": {
        k: str(canonical[q]) for k, q in zip(cli.jlambda_keys(std), std.lattice_map)}})
    start = time.perf_counter()
    code = main(["flag", "--n", "5", "--dims", "0,1,2,3,4,5", "--mode", mode,
                 "--action", "degenerate", "--weights", weights])
    assert time.perf_counter() - start < 1
    out, err = capsysbinary.readouterr()
    assert code == 0 and err == b"" and len(json.loads(out)["parts"]) == 286
    assert len(out) == size and hashlib.sha256(out).hexdigest() == digest


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


@pytest.mark.parametrize("n,digest", [
    (4, "b7ab03d142dd18bc5e5191e1633227e55396f50edde958ed00b17a5a9d77a36b"),
    (5, "5da929d05d8a433283471ee15d19abcca8c64605371d13d90063c20a52fe3b99"),
], ids=["n4", "n5"])
def test_zero_weight_flag_degeneration_builds_the_mrpp_once(tmp_path, capsysbinary,
                                                             monkeypatch, n, digest):
    # the one part of the zero weight is the whole MRPP: it takes the points
    # the cover check builds, with the bytes of the reports printed when the
    # part built its own
    calls = counted(monkeypatch, marked, "mrpp_points")
    weights = write(tmp_path, "w.json", {"weights": {}})
    code = main(["flag", "--n", str(n), "--dims", ",".join(map(str, range(n + 1))),
                 "--mode", "gt", "--action", "degenerate", "--weights", weights,
                 "--default-zero"])
    out, err = capsysbinary.readouterr()
    assert code == 0 and err == b"" and hashlib.sha256(out).hexdigest() == digest
    assert len(calls) == 1


def test_normality_command(tmp_path, capsys):
    poset = write(tmp_path, "p.json", SQUARE)
    code, out = run(capsys, ["normality", poset, "--max-dilation", "3"])
    assert code == 0
    assert out == '{\n  "max_dilation": 3,\n  "normal": true\n}\n'


def test_normality_of_the_4x4_grid_up_to_dilation_40(tmp_path, capsys):
    # the k-fold sums of the 70 vertices would grow with k; the 2-fold ones
    # settle every k
    poset = write(tmp_path, "p.json", grid_file(4, 4))
    code, out = run(capsys, ["normality", poset, "--max-dilation", "40"])
    assert code == 0
    assert json.loads(out) == {"max_dilation": 40, "normal": True}


def test_max_dilation_of_64_and_more(tmp_path, capsys):
    # normality forms only the 2-fold sums; the Ehrhart count adapts its width
    poset = write(tmp_path, "p.json", {"elements": ["a"]})
    code, out = run(capsys, ["normality", poset, "--max-dilation", "64"])
    assert code == 0
    assert json.loads(out)["normal"] is True
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


def test_mcop_recognize_reports_no_split(tmp_path, capsys):
    # no chain/order split of e1, e2 has these three points
    poset = write(tmp_path, "p.json", {
        "elements": ["e0", "e1", "e2", "e3"],
        "covers": [["e0", "e1"], ["e1", "e2"], ["e2", "e3"]],
        "weak_covers": [["e1", "e3"]],
        "marked": {"e0": 2, "e3": 1},
    })
    code, out = run(capsys, ["polytope", poset, "--kind", "mrpp"])
    assert code == 0
    assert json.loads(out)["lattice_points"] == [[2, 0, 1, 1], [2, 1, 1, 1], [2, 1, 2, 1]]
    code, out = run(capsys, ["mcop-recognize", poset])
    assert code == 0
    assert json.loads(out) == {"found": False}
    structure = cli.parse_poset_file(poset)
    assert naive_mcop_recognize(structure, marked.build_mrpp(structure)) is None


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


@pytest.mark.parametrize("target", ["missing/report.json", "."])
def test_unwritable_out_is_one_parse_error_line(tmp_path, capsys, target):
    # a missing directory and a directory: like an unreadable input file
    poset = write(tmp_path, "p.json", SQUARE)
    path = str(tmp_path / target)
    assert main(["--out", path, "ideals", poset]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith(f"parse error: cannot write {path}: ")
    assert captured.err.count("\n") == 1 and captured.out == ""


FILE_SIZE_LIMIT = """
import resource, signal, sys
from posetdegen.cli import main
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs RLIMIT_FSIZE and SIGXFSZ")
def test_failed_out_write_keeps_the_previous_report(tmp_path):
    # a process that may write no file beyond 4,096 bytes: the longer report
    # fails with "File too large", and the old report stays
    target = tmp_path / "prev.json"
    target.write_bytes(b'{"old": true}\n')
    target.chmod(0o640)
    argv = ["--out", str(target), "polytope", "--kind", "gt", "--n", "4", "--dims", "0,1,2,3,4"]
    proc = subprocess.run([sys.executable, "-c", FILE_SIZE_LIMIT] + argv, capture_output=True,
                          text=True, timeout=120, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 4 and proc.stdout == ""
    assert proc.stderr == f"parse error: cannot write {target}: [Errno 27] File too large\n"
    assert target.read_bytes() == b'{"old": true}\n'
    assert os.listdir(tmp_path) == ["prev.json"]
    # without the limit the report replaces the old one and keeps its mode
    assert main(argv) == 0
    assert len(target.read_bytes()) > 4096
    assert json.loads(target.read_bytes())["kind"] == "gt"
    assert target.stat().st_mode & 0o777 == 0o640
    assert os.listdir(tmp_path) == ["prev.json"]


def test_out_through_a_link_replaces_the_file_it_names(tmp_path, capsys):
    poset = write(tmp_path, "p.json", SQUARE)
    target = tmp_path / "report.json"
    target.write_text("old")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert main(["--out", str(link), "ideals", poset]) == 0
    assert link.is_symlink()
    assert json.loads(target.read_text())["ideals"] == ["", "a", "b", "a,b"]
    assert sorted(os.listdir(tmp_path)) == ["link.json", "p.json", "report.json"]


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
def test_read_only_out_is_refused_not_replaced(tmp_path, capsys):
    poset = write(tmp_path, "p.json", SQUARE)
    target = tmp_path / "report.json"
    target.write_text("old")
    target.chmod(0o444)
    assert main(["--out", str(target), "ideals", poset]) == 4
    captured = capsys.readouterr()
    assert captured.err == f"parse error: cannot write {target}: [Errno 13] Permission denied: '{target}'\n"
    assert target.read_text() == "old" and target.stat().st_mode & 0o777 == 0o444
    assert sorted(os.listdir(tmp_path)) == ["p.json", "report.json"]


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write in a read-only directory")
def test_writable_out_in_a_read_only_directory_is_written(tmp_path, capsys):
    # no new file can be made beside it, so the file is written directly
    poset = write(tmp_path, "p.json", SQUARE)
    folder = tmp_path / "ro"
    folder.mkdir()
    target = folder / "report.json"
    target.write_text("old")
    folder.chmod(0o555)
    try:
        assert main(["--out", str(target), "ideals", poset]) == 0
        assert json.loads(target.read_text())["ideals"] == ["", "a", "b", "a,b"]
        assert os.listdir(folder) == ["report.json"]
    finally:
        folder.chmod(0o755)


def test_out_name_too_long_to_extend_is_written(tmp_path, capsys):
    # a name that fits where the new file's longer name beside it does not
    poset = write(tmp_path, "p.json", SQUARE)
    target = tmp_path / ("r" * (os.pathconf(tmp_path, "PC_NAME_MAX") - 5))
    target.write_text("old")
    assert main(["--out", str(target), "ideals", poset]) == 0
    assert json.loads(target.read_text())["ideals"] == ["", "a", "b", "a,b"]
    assert sorted(os.listdir(tmp_path)) == ["p.json", target.name]


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


def test_mcop_recognize_trap_when_the_winning_build_misses_a_point(
        tmp_path, capsys, monkeypatch):
    # the one build must hold exactly the target: a missing point means the
    # MCOPs of one marking were not Ehrhart-equivalent
    real = marked.mcop_build

    def short(*args):
        poly = real(*args)
        return marked.MarkedPolytope(poly.structure, poly.points[1:])

    monkeypatch.setattr(marked, "mcop_build", short)
    structure = cli.parse_poset_file(write(tmp_path, "p.json", DIAMOND_MARKED))
    with pytest.raises(TheoremViolation):
        marked.mcop_recognize(structure, marked.build_mrpp(structure))
    assert main(["mcop-recognize", write(tmp_path, "p.json", DIAMOND_MARKED)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("internal error: TheoremViolation:") and err.count("\n") == 1


def flag_poset_file(tmp_path, n, mode):
    """The full flag's GT or FFLV structure as a poset file, in library order."""
    f = build_flag_poset(n, tuple(range(n + 1)))
    poset = f.poset
    relations = [[poset.elements[i], poset.elements[j]]
                 for i in range(poset.n) for j in mask_bits(poset.above[i])]
    weak = [pair for pair in relations if pair[0] not in f.marking] if mode == "fflv" else []
    payload = {"elements": list(poset.elements), "covers": relations,
               "weak_covers": weak, "marked": f.marking}
    free = sorted(x for x in poset.elements if x not in f.marking)
    return write(tmp_path, f"flag{n}{mode}.json", payload), free


@pytest.mark.parametrize("n,mode", [(4, "gt"), (4, "fflv"), (5, "gt")])
def test_mcop_recognize_on_full_flags(tmp_path, capsys, n, mode):
    # GT is the last split in bit order: all free elements in O; FFLV the
    # first, all in C.  The n = 5 GT file took more than 5 minutes when every
    # split was built in turn
    poset, free = flag_poset_file(tmp_path, n, mode)
    start = time.perf_counter()
    code, out = run(capsys, ["mcop-recognize", poset])
    assert time.perf_counter() - start < 5
    assert code == 0
    split = {"chain": [], "order": free} if mode == "gt" else {"chain": free, "order": []}
    assert json.loads(out) == dict(found=True, **split)


def test_mcop_chain_set_with_a_repeated_label_is_no_partition(tmp_path, capsys):
    # a label listed three times once added up to the bit of the next element
    poset = write(tmp_path, "p.json", DIAMOND_MARKED)
    assert main(["polytope", poset, "--kind", "mcop", "--chain-set", "x,x,x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and err.count("\n") == 1
    code, out = run(capsys, ["polytope", poset, "--kind", "mcop", "--chain-set", "x,y,x"])
    assert code == 0 and len(json.loads(out)["lattice_points"]) == 9


OPTION_TEXT = st.text(st.sampled_from("0123456789,-+ x_"), max_size=12)
DIAMOND_LABELS = st.lists(st.sampled_from(["bot", "x", "y", "top", "z", ""]), max_size=4)


@st.composite
def flag_options(draw):
    """--n and --dims: the dims of the flags of C^n (most of them valid),
    any integer lists, or any text."""
    n = draw(st.integers(-1, 4))
    inner = sorted(draw(st.sets(st.integers(1, 3), max_size=3)))
    dims = draw(st.sampled_from([[0] + inner + [n], [0] + inner + [n], [0, n], inner])
                | st.lists(st.integers(-1, 5), max_size=6))
    return n, draw(st.just(",".join(map(str, dims))) | OPTION_TEXT)


@st.composite
def split_options(draw):
    """--chain-set and --order-set on the marked diamond (free: x, y): a
    split, either side with repeats, stray or empty labels, or any text."""
    chain = draw(DIAMOND_LABELS)
    order = [x for x in ("x", "y") if x not in chain]
    order = draw(st.just(order) | DIAMOND_LABELS)
    return tuple(draw(st.just(",".join(side)) | OPTION_TEXT) for side in (chain, order))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flag=flag_options(), split=split_options(),
       command=st.sampled_from(["gt", "fflv", "mcop", "flag-gt", "flag-fflv", "flag-ideals"]))
@example(flag=(0, "--"), split=("x", "y"), command="gt")
@example(flag=(0, "--"), split=("x", "y"), command="flag-gt")
@example(flag=(3, "0,1,3"), split=("--", "y"), command="mcop")
def test_polytope_and_flag_options_exit_with_a_documented_code(
        tmp_path, capsys, flag, split, command):
    # n <= 4 keeps every accepted draw small; '=' keeps a leading '-' a value
    (n, dims), (chain, order) = flag, split
    if command == "mcop":
        poset = write(tmp_path, "p.json", DIAMOND_MARKED)
        argv = ["polytope", poset, "--kind", "mcop",
                f"--chain-set={chain}", f"--order-set={order}"]
    elif command.startswith("flag"):
        mode, action = ("gt", "ideals") if command == "flag-ideals" else (command[5:], "polytope")
        argv = ["flag", f"--n={n}", f"--dims={dims}", "--mode", mode, "--action", action]
    else:
        argv = ["polytope", "--kind", command, f"--n={n}", f"--dims={dims}"]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 4)
    if code:
        assert err.count("\n") == 1 and "Traceback" not in err
    elif command == "mcop":
        labels = [x for x in chain.split(",") + order.split(",") if x]
        assert set(labels) == {"x", "y"}


USAGE_ERRORS = {
    "invalid-int": ["ehrhart", "{poset}", "--max-dilation", "x"],
    "unknown-command": ["bogus"],
    "missing-required-flag": ["flag", "--n", "3", "--dims", "1"],
    "no-command": [],
    "extra-argument-with-a-newline": ["validate", "{poset}", "x\ny"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_error_is_one_parse_error_line(tmp_path, capsys, argv):
    poset = write(tmp_path, "p.json", SQUARE)
    assert main([arg.format(poset=poset) for arg in argv]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: ") and captured.err.count("\n") == 1


LONE_DASHES = {
    "flag-dims": ["flag", "--n=3", "--dims=--", "--mode", "gt"],
    "polytope-dims": ["polytope", "--kind", "gt", "--n=3", "--dims=--"],
    "chain-set": ["polytope", "{poset}", "--kind", "mcop", "--chain-set=--"],
    "order-set": ["polytope", "{poset}", "--kind", "mcop", "--order-set=--"],
    "weights": ["subdivide", "{poset}", "--weights=--"],
    "out": ["--out=--", "ideals", "{poset}"],
}


@pytest.mark.parametrize("argv", LONE_DASHES.values(), ids=LONE_DASHES)
def test_option_valued_two_dashes_is_one_parse_error_line(tmp_path, capsys, argv):
    # argparse 3.11 drops the value of "--opt=--" and stores [] for the
    # option, 3.13 stores "--"; either way it is refused
    poset = write(tmp_path, "p.json", DIAMOND_MARKED)
    assert main([arg.format(poset=poset) for arg in argv]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    option = next(arg for arg in argv if arg.endswith("=--"))[:-3]
    assert captured.err == f"parse error: argument {option}: expected one argument\n"


IGNORED_OPTIONS = {
    "gt-file": (["polytope", "{poset}", "--kind", "gt", "--n", "2", "--dims", "0,2"],
                "--kind gt takes no poset file"),
    "fflv-chain-set": (["polytope", "--kind", "fflv", "--n", "2", "--dims", "0,2",
                        "--chain-set", "x"], "--kind fflv takes no --chain-set"),
    "mrpp-empty-order-set": (["polytope", "{poset}", "--kind", "mrpp", "--order-set", ""],
                             "--kind mrpp takes no --order-set"),
    "order-n-0": (["polytope", "{poset}", "--kind", "order", "--n", "0"],
                  "--kind order takes no --n"),
    "mcop-dims": (["polytope", "{poset}", "--kind", "mcop", "--chain-set", "x,y",
                   "--dims", "0,2"], "--kind mcop takes no --dims"),
    "flag-polytope-weights": (["flag", "--n", "2", "--dims", "0,2", "--mode", "gt",
                               "--weights", "{poset}"], "--action polytope takes no --weights"),
    "flag-ideals-default-zero": (["flag", "--n", "2", "--dims", "0,2", "--mode", "fflv",
                                  "--action", "ideals", "--default-zero"],
                                 "--action ideals takes no --default-zero"),
}


@pytest.mark.parametrize("argv, message", IGNORED_OPTIONS.values(), ids=IGNORED_OPTIONS)
def test_option_the_kind_or_action_ignores_is_one_parse_error_line(tmp_path, capsys, argv,
                                                                    message):
    # given or empty, an option the command would not read is refused, not
    # dropped in silence
    poset = write(tmp_path, "p.json", DIAMOND_MARKED)
    assert main([arg.format(poset=poset) for arg in argv]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"parse error: {message}\n"


@pytest.mark.parametrize("argv", [["-h"], ["ehrhart", "-h"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: posetdegen")


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_import_builds_no_parser():
    # the parser is built by the first main call, so importing costs nothing
    probe = ("import posetdegen.cli as cli; "
             "assert cli.build_parser.cache_info().currsize == 0")
    subprocess.run([sys.executable, "-c", probe], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


def test_options_of_one_call_do_not_leak_into_the_next(tmp_path, capsys):
    poset = write(tmp_path, "p.json", SQUARE)
    target = tmp_path / "report.json"
    assert main(["--out", str(target), "ideals", poset]) == 0
    code, out = run(capsys, ["ideals", poset])
    assert code == 0 and json.loads(out)["ideals"] == ["", "a", "b", "a,b"]
    assert json.loads(target.read_text())["ideals"] == ["", "a", "b", "a,b"]

    code, out = run(capsys, ["--format", "text", "validate", poset])
    assert code == 0 and not out.startswith("{")
    code, out = run(capsys, ["validate", poset])
    assert code == 0 and json.loads(out)["valid"]

    partial = write(tmp_path, "w.json", {"weights": {"a": "1"}})
    argv = ["subdivide", poset, "--weights", partial]
    assert run(capsys, argv + ["--default-zero"])[0] == 0
    assert main(argv) == 4
    assert capsys.readouterr().err.startswith("parse error:")


def test_usage_errors_and_good_calls_alternate_as_if_alone(tmp_path, capsys):
    poset = write(tmp_path, "p.json", SQUARE)
    good, bad = ["ehrhart", poset, "--max-dilation", "2"], ["ehrhart", poset, "--max-dilation", "x"]
    alone = {}
    for name, argv in (("good", good), ("bad", bad)):
        alone[name] = (main(argv), capsys.readouterr())
    for name in ("bad", "good", "bad", "good"):
        assert (main(good if name == "good" else bad), capsys.readouterr()) == alone[name]
    assert alone["good"][0] == 0 and alone["bad"][0] == 4


def test_each_call_writes_to_the_streams_in_place_at_that_call(tmp_path, monkeypatch):
    # the benchmark worker swaps both streams around every in-process call
    poset = write(tmp_path, "p.json", SQUARE)
    for argv, code in ((["ideals", poset], 0), (["bogus"], 4), (["ideals", poset], 0),
                       (["ideals", str(tmp_path / "missing.json")], 4)):
        out, err = io.BytesIO(), io.StringIO()
        stdout = io.TextIOWrapper(out, encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(sys, "stderr", err)
        assert main(argv) == code
        stdout.flush()
        if code:
            assert out.getvalue() == b"" and err.getvalue().startswith("parse error:")
        else:
            assert json.loads(out.getvalue())["ideals"] == ["", "a", "b", "a,b"]
            assert err.getvalue() == ""


def test_full_n6_gt_flag_counts(capsys):
    code, out = run(capsys, ["polytope", "--kind", "gt", "--n", "6", "--dims", "0,1,2,3,4,5,6"])
    assert code == 0
    report = json.loads(out)
    assert len(report["lattice_points"]) == 32768 and len(report["vertices"]) == 4884


def test_reader_closing_stdout_early_ends_quietly():
    # the report (about 200 KB) outgrows the pipe, so a write meets the
    # closed end
    argv = [sys.executable, "-m", "posetdegen.cli",
            "polytope", "--kind", "gt", "--n", "5", "--dims", "0,1,2,3,4,5"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.stdout.read(10) == b'{\n  "eleme'
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == cli.BROKEN_PIPE_EXIT == 141
    assert err == b""


def test_text_format_escapes_a_lone_surrogate(tmp_path, capsysbinary):
    poset = tmp_path / "p.json"
    poset.write_text('{"elements": ["\\ud800", "b"]}', encoding="ascii")
    assert main(["--format", "text", "ideals", str(poset)]) == 0
    assert capsysbinary.readouterr().out == b"ideals:\n  - \n  - \\ud800\n  - b\n  - b,\\ud800\n"
    assert main(["ideals", str(poset)]) == 0
    assert json.loads(capsysbinary.readouterr().out)["ideals"] == ["", "\ud800", "b", "b,\ud800"]
