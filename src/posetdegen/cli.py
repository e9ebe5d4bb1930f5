"""Command line interface: JSON poset/weights files in, deterministic reports out.

Exit codes: 0 success, 2 validation failure, 3 weight outside the cone,
4 parse error (usage errors included), 5 internal error (a bug trap of the
library fired); each error class in `errors` carries its code and its one
line on stderr.  All rationals are serialized exactly ("p/q", plain integers
without the denominator); a report holds only strings, integers, booleans
and None in dicts and lists, and the writer refuses anything else, floats
included.  A `subdivide` report, one block per part, is written from text
encoded once per lattice, one chunk per part, with the same bytes.
"""

import argparse
import json
import os
import re
import sys
from decimal import Decimal
from fractions import Fraction
from functools import cache
from itertools import chain, compress
from json.encoder import encode_basestring_ascii
from math import gcd

from . import degeneration, flag as flagmod, marked, polytopes
from .errors import ParseError, PosetDegenError
from .posets import build_poset, mask_bits, validate_relative_structure

INTEGER_TEXT = re.compile(r"[+-]?[0-9]+")
EXPONENT_TEXT = re.compile(r"[eE]([+-]?[0-9_]+)")
# bounds the digits of each weight; a report's rationals, over the lcm of
# several denominators, can still pass Python's limit on integer text
MAX_EXPONENT = 1000


def fmt_ratio(x, scale):
    """The rational x/scale (scale > 0) as "p/q", or "p" when it is an
    integer; a ParseError when a term passes Python's limit on integer text."""
    try:
        if scale == 1:
            return str(x)
        g = gcd(x, scale)
        return str(x // g) if g == scale else f"{x // g}/{scale // g}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"a rational of the report passes the {limit}-digit limit"
                         " on integer text") from None


def parse_fraction(value):
    """The exact rational of a weight: a JSON integer, a Decimal read from a
    JSON number, or a string such as "-3/2" or "1e-3".  An exponent beyond
    ±MAX_EXPONENT in str(value) (for a Decimal, its normalized exponent) is
    refused before Fraction expands it."""
    text = str(value)
    try:
        exponent = EXPONENT_TEXT.search(text)
        if exponent and abs(int(exponent.group(1))) > MAX_EXPONENT:
            raise ValueError(f"exponent beyond ±{MAX_EXPONENT}")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from None


def load_json(path):
    """The JSON value of a file.  A number with a fraction or an exponent is
    kept exactly as a Decimal of its literal text, never made a float;
    `parse_fraction` turns it into a Fraction where a rational is wanted."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=Decimal)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None


def shape_error(path, where, expected, value):
    return ParseError(
        f"{path}: {where} must be {expected}, got {json.dumps(value, default=str)}"
    )


def parse_label_pairs(path, data, key):
    """The optional list of [label, label] pairs under `key` (absent or null: none)."""
    pairs = data.get(key)
    if pairs is None:
        return []
    if not isinstance(pairs, list):
        raise shape_error(path, f"'{key}'", "a list of label pairs", pairs)
    for i, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(x, str) for x in pair)):
            raise shape_error(path, f"{key}[{i}]", "a pair of labels", pair)
    return [tuple(pair) for pair in pairs]


def parse_marking(path, data):
    """Marking values: JSON integers or decimal integer strings; None when unmarked."""
    marked = data.get("marked")
    if marked is None:
        return None
    if not isinstance(marked, dict):
        raise shape_error(path, "'marked'", "an object of integer markings", marked)
    out = {}
    for label, value in marked.items():
        if isinstance(value, int) and not isinstance(value, bool):
            out[label] = value
        elif isinstance(value, str) and INTEGER_TEXT.fullmatch(value):
            out[label] = int(value)
        else:
            raise shape_error(path, f"marked[{json.dumps(label)}]", "an integer", value)
    return out


def parse_poset_file(path):
    """Build the validated relative structure described by a poset file."""
    if path is None:
        raise ParseError("a poset file is required for this command")
    data = load_json(path)
    if not isinstance(data, dict) or "elements" not in data:
        raise ParseError(f"{path}: expected an object with an 'elements' list")
    elements = data["elements"]
    if not isinstance(elements, list):
        raise shape_error(path, "'elements'", "a list of labels", elements)
    for i, label in enumerate(elements):
        if not isinstance(label, str):
            raise shape_error(path, f"elements[{i}]", "a string", label)
        if not label or "," in label:
            # ideal keys join labels with ',' and the empty ideal's key is ''
            raise shape_error(path, f"elements[{i}]", "a non-empty label without ','", label)
    covers = parse_label_pairs(path, data, "covers")
    weak = parse_label_pairs(path, data, "weak_covers")
    marked = parse_marking(path, data)
    return validate_relative_structure(build_poset(elements, covers), weak, marked)


def parse_weights_file(path, keys, default_zero=False):
    """Weights keyed by comma-joined sorted ideal labels ('' for the empty ideal)."""
    if path is None:
        raise ParseError("a weights file is required for this command")
    data = load_json(path)
    if not isinstance(data, dict) or "weights" not in data:
        raise ParseError(f"{path}: expected an object with a 'weights' map")
    table = data["weights"]
    if not isinstance(table, dict):
        raise shape_error(path, "'weights'", "an object of rationals keyed by ideal", table)
    values = []
    for key in keys:
        if key in table:
            values.append(parse_fraction(table[key]))
        elif default_zero:
            values.append(Fraction(0))
        else:
            raise ParseError(f"{path}: missing weight for ideal key {key!r}")
    known = set(keys)
    for key in table:
        if key not in known:
            raise ParseError(f"{path}: weight key {key!r} matches no ideal")
    return values


def structure_keys(structure):
    lat = structure.lattice
    return [lat.label_key(i) for i in range(len(lat))]


def jlambda_keys(structure):
    std = marked.standardize(structure)
    lat = structure.lattice
    return std, [lat.label_key(i) for i in std.jlambda]


def hasse_lines(elements, covers, indent="  "):
    """Indented cover list: each element followed by the elements covering it."""
    uppers = {}
    for a, b in covers:
        uppers.setdefault(a, []).append(b)
    lines = []
    for e in elements:
        lines.append(e)
        for b in sorted(uppers.get(e, [])):
            lines.append(f"{indent}< {b}")
    return lines


def render_text(report):
    out = []

    def walk(obj, depth):
        pad = "  " * depth
        if isinstance(obj, dict):
            for key in sorted(obj):
                value = obj[key]
                if isinstance(value, (dict, list)):
                    out.append(f"{pad}{key}:")
                    walk(value, depth + 1)
                else:
                    out.append(f"{pad}{key}: {value}")
        elif isinstance(obj, list):
            for value in obj:
                if isinstance(value, (dict, list)):
                    out.append(f"{pad}-")
                    walk(value, depth + 1)
                else:
                    out.append(f"{pad}- {value}")
        else:
            out.append(f"{pad}{obj}")

    if isinstance(report, dict) and "hasse" in report:
        report = dict(report)
        out.extend(report.pop("hasse"))
    walk(report, 0)
    return "\n".join(out) + "\n"


SCALAR_WRITERS = {str: encode_basestring_ascii, int: int.__repr__}
ROW_TYPES = {list, tuple}


def report_json(report):
    """The text of json.dumps(report, sort_keys=True, indent=2), written
    directly: dicts with str keys, lists and tuples, str, int, bool and None.
    Anything else, floats and Fractions included, raises TypeError.

    A list of only str or only int is joined in one step.  A list of rows,
    non-empty lists that together hold only str or only int (cover pairs,
    points), goes into the output one row at a time.  Rows of labels recur
    (the same covers in part after part), so each distinct one is formatted
    once per indent; rows of ints (points) are formatted as they come."""
    out = []
    label_rows = {}  # indent -> {row of labels: its text after a comma}

    def scalars(items):
        """The writer of every item, if they are all str or all int; else None."""
        kinds = set(map(type, items))
        return SCALAR_WRITERS.get(kinds.pop()) if len(kinds) == 1 else None

    def write(obj, newline):
        kind = type(obj)
        if kind is str:  # most leaves: tested before the isinstance branches
            out.append(encode_basestring_ascii(obj))
        elif kind is int:
            out.append(int.__repr__(obj))
        elif isinstance(obj, (list, tuple)):
            if not obj:
                out.append("[]")
                return
            inner = newline + "  "
            leaf = scalars(obj)
            if leaf is not None:
                out.append(f"[{inner}{(',' + inner).join(map(leaf, obj))}{newline}]")
                return
            if set(map(type, obj)) <= ROW_TYPES and all(obj):
                leaf = scalars(chain.from_iterable(obj))
            if leaf is not None:
                row = inner + "  "
                sep = "," + row
                labels = None
                if leaf is encode_basestring_ascii:
                    labels = label_rows.setdefault(inner, {})
                for k, x in enumerate(obj):
                    text = labels.get(x := tuple(x)) if labels is not None else None
                    if text is None:
                        text = f",{inner}[{row}{sep.join(map(leaf, x))}{inner}]"
                        if labels is not None:
                            labels[x] = text
                    out.append(text if k else "[" + text[1:])
            else:
                for k, x in enumerate(obj):
                    out.append(("[" if k == 0 else ",") + inner)
                    write(x, inner)
            out.append(newline + "]")
        elif isinstance(obj, dict):
            if not obj:
                out.append("{}")
                return
            inner = newline + "  "
            for k, key in enumerate(sorted(obj)):
                if not isinstance(key, str):
                    raise TypeError(f"a report key must be a str, not {type(key).__name__}")
                out.append(f"{'{' if k == 0 else ','}{inner}{encode_basestring_ascii(key)}: ")
                write(obj[key], inner)
            out.append(newline + "}")
        elif isinstance(obj, str):
            out.append(encode_basestring_ascii(obj))
        elif obj is None or obj is True or obj is False:
            out.append("null" if obj is None else "true" if obj else "false")
        elif isinstance(obj, int):
            out.append(int.__repr__(obj))
        else:
            raise TypeError(f"a report cannot hold {kind.__name__}")

    write(report, "\n")
    return "".join(out)


class PartsReport:
    """The report of `subdivide`: the parts of a subdivision of `structure`
    (for a marked structure, of its standardized quotient), the (vertices,
    lattice points) count of each, and for a marked structure the number of
    parts dropped as lower-dimensional.  `emit_report` renders it with
    `parts_json`."""

    def __init__(self, structure, parts, counts, dropped=None):
        self.structure = structure
        self.parts = parts
        self.counts = counts
        self.dropped = dropped


def encoded_list(items, pad):
    """The indent=2 JSON text of a list of already-encoded items, its
    opening bracket `pad` spaces in."""
    if not items:
        return "[]"
    inner = "\n" + " " * (pad + 2)
    return f"[{inner}{(',' + inner).join(items)}\n{' ' * pad}]"


def parts_json(report):
    """The text of json.dumps(report, sort_keys=True, indent=2) and its final
    newline, for the dict report that a `PartsReport` stands for, as a list
    of chunks: the head, one chunk per part, the tail.

    Each part is {"added_covers", "order_covers": sorted [label, label]
    pairs, the added ones those not in the base order; "affine": {"normal",
    "constant"} of its lift, as rationals; "vanishing_variables": the keys of
    the ideals outside it, sorted; "vertices", "lattice_points": its counts}.
    Each element label, ideal key and cover pair is encoded once per report,
    and a part's chunk is built from those pieces, its lift and its counts;
    the covers are the ones the part carries."""
    structure = report.structure
    poset, lat = structure.poset, structure.lattice
    labels = [encode_basestring_ascii(e) for e in poset.elements]
    label_rank = [0] * poset.n
    for r, i in enumerate(sorted(range(poset.n), key=poset.elements.__getitem__)):
        label_rank[i] = r
    keyed = sorted((lat.label_key(pos), pos) for pos in range(len(lat)))
    key_texts = [encode_basestring_ascii(key) for key, _ in keyed]
    key_rank = [0] * len(keyed)
    for r, (_, pos) in enumerate(keyed):
        key_rank[pos] = r
    every_key = b"\x01" * len(keyed)

    @cache
    def cover(pair):
        """(sort rank, text, whether the base order lacks it) of a cover pair."""
        i, j = pair
        text = f"[\n          {labels[i]},\n          {labels[j]}\n        ]"
        return label_rank[i] * poset.n + label_rank[j], text, not poset.above[i] >> j & 1

    @cache
    def quoted(x, scale):
        # a rational's text is digits, '-' and '/': nothing to escape
        return f'"{fmt_ratio(x, scale)}"'

    head = "{\n"
    if report.dropped is not None:
        head += f'  "dropped_lower_dimensional": {report.dropped},\n'
    chunks = [head + '  "parts": [']
    sep = "\n"
    for part, (vertices, points) in zip(report.parts, report.counts):
        rows = sorted(map(cover, part.covers))
        outside = bytearray(every_key)
        for r in map(key_rank.__getitem__, part.sublattice):
            outside[r] = 0
        (a, b), scale = part.lift, part.scale
        normal = [quoted(x, scale) for x in a]
        chunks.append(
            f'{sep}    {{\n'
            f'      "added_covers": {encoded_list([t for _, t, new in rows if new], 6)},\n'
            f'      "affine": {{\n'
            f'        "constant": {quoted(b, scale)},\n'
            f'        "normal": {encoded_list(normal, 8)}\n'
            f'      }},\n'
            f'      "lattice_points": {points},\n'
            f'      "order_covers": {encoded_list([t for _, t, _ in rows], 6)},\n'
            f'      "vanishing_variables": {encoded_list(list(compress(key_texts, outside)), 6)},\n'
            f'      "vertices": {vertices}\n'
            f'    }}')
        sep = ",\n"
    chunks.append("\n  ]\n}\n" if len(chunks) > 1 else "]\n}\n")
    return chunks


def encode_text(text):
    """UTF-8 bytes of a text report.  A lone surrogate, which `json.load`
    reads from an escape such as "\\ud800", shows as that escape, as in the
    JSON format."""
    return text.encode("utf-8", "backslashreplace")


def emit_report(report, fmt="json", out=None):
    """Write a report.  A `PartsReport` is rendered here, all its chunks
    before the first byte is written, so an error while rendering leaves no
    partial report; each chunk is ASCII, encoded only as it is written, and
    the text format renders the parsed JSON text.  Any other JSON report's
    final newline is written after its text, not appended to it, which
    would copy the text once more.  An `out` path that cannot be written is
    a ParseError, like an unreadable input file.  Output to stdout is
    flushed here, so a reader that closed the pipe is noticed in `main`."""
    if isinstance(report, PartsReport):
        chunks = parts_json(report)
        if fmt == "json":
            data = map(str.encode, chunks)
        else:
            data = (encode_text(render_text(json.loads("".join(chunks)))),)
    elif fmt == "json":
        data = (report_json(report).encode("utf-8"), b"\n")
    else:
        data = (encode_text(render_text(report)),)
    if not out:
        sys.stdout.buffer.writelines(data)
        sys.stdout.flush()
        return
    try:
        with open(out, "wb") as fh:
            fh.writelines(data)
    except OSError as exc:
        raise ParseError(f"cannot write {out}: {exc}") from None


def point_list(points):
    return [list(p) for p in sorted(points)]


def cmd_validate(args):
    structure = parse_poset_file(args.file)
    report = {
        "valid": True,
        "elements": list(structure.poset.elements),
        "ideal_count": len(structure.lattice),
        "marked": sorted(
            structure.poset.elements[i] for i in mask_bits(structure.marked)
        ),
        "hasse": hasse_lines(structure.poset.elements, structure.poset.cover_labels()),
    }
    return report


def cmd_ideals(args):
    structure = parse_poset_file(args.file)
    return {"ideals": structure_keys(structure)}


def cmd_polytope(args):
    if args.kind in ("gt", "fflv"):
        if args.n is None or args.dims is None:
            raise ParseError(f"--kind {args.kind} requires --n and --dims")
        data = flagmod.build_flag_poset(args.n, parse_dims(args.dims))
        poly = flagmod.flag_polytope(data, args.kind)
        return {
            "kind": args.kind,
            "elements": list(data.poset.elements),
            "lattice_points": point_list(poly.points),
            "vertices": point_list(poly.vertices),
        }
    structure = parse_poset_file(args.file)
    if args.kind == "mrpp":
        poly = marked.build_mrpp(structure)
        return {
            "kind": "mrpp",
            "lattice_points": point_list(poly.points),
            "vertices": point_list(poly.vertices),
        }
    if args.kind == "mcop":
        chain_part = args.chain_set.split(",") if args.chain_set else []
        order_part = args.order_set.split(",") if args.order_set else []
        marking = {
            structure.poset.elements[i]: structure.marking[i]
            for i in mask_bits(structure.marked)
        }
        poly = marked.mcop_build(structure.poset, marking, chain_part, order_part)
        return {
            "kind": "mcop",
            "lattice_points": point_list(poly.points),
            "vertices": point_list(poly.vertices),
        }
    poly = polytopes.build_polytope(structure, args.kind)
    lat = poly.structure.lattice
    return {
        "kind": args.kind,
        "vertices": point_list(poly.vertices),
        "vertex_keys": [lat.label_key(i) for i in range(len(lat))],
    }


def reject_negative_dilation(args):
    if args.max_dilation < 0:
        raise ParseError(f"--max-dilation must not be negative, got {args.max_dilation}")


def cmd_ehrhart(args):
    reject_negative_dilation(args)
    structure = parse_poset_file(args.file)
    values = polytopes.ehrhart_values(structure, args.max_dilation)
    return {"ehrhart": {str(m): c for m, c in enumerate(values)}}


def cmd_normality(args):
    reject_negative_dilation(args)
    structure = parse_poset_file(args.file)
    ok, failure = polytopes.check_normality(structure, args.max_dilation)
    report = {"normal": ok, "max_dilation": args.max_dilation}
    if not ok:
        report["failing_dilation"] = failure[0]
        report["failing_point"] = list(failure[1])
    return report


def cmd_cone_check(args):
    structure = parse_poset_file(args.file)
    keys = structure_keys(structure)
    w = parse_weights_file(args.weights, keys, args.default_zero)
    pos = degeneration.cone_position(structure, w)
    pair = lambda ab: [keys[ab[0]], keys[ab[1]]]
    return {
        "position": pos.position,
        "violated": [pair(p) for p in pos.violated],
        "tight": [pair(p) for p in pos.tight],
    }


def cmd_subdivide(args):
    structure = parse_poset_file(args.file)
    if structure.marked:
        std, keys = jlambda_keys(structure)
        w = parse_weights_file(args.weights, keys, args.default_zero)
        sub = marked.mrpp_subdivide(structure, w)
        counts = [(len(part.vertices), len(part.points)) for part in sub.parts]
        return PartsReport(sub.standardized.quotient, sub.parts, counts, sub.dropped)
    keys = structure_keys(structure)
    w = parse_weights_file(args.weights, keys, args.default_zero)
    sub = degeneration.subdivide(structure, w)
    counts = [(len(part.sublattice),) * 2 for part in sub.parts]
    return PartsReport(structure, sub.parts, counts)


def cmd_components(args):
    structure = parse_poset_file(args.file)
    keys = structure_keys(structure)
    w = parse_weights_file(args.weights, keys, args.default_zero)
    _, comps = degeneration.zhu_components(structure, w)
    out = []
    for comp in comps:
        out.append(
            {
                "vanishing": [keys[i] for i in comp.vanishing],
                "generators": [
                    [[keys[a], keys[b]], [keys[u], keys[s]]]
                    for (a, b), (u, s) in comp.presentation.generators
                ],
                "order_covers": [list(c) for c in sorted(comp.part.order.cover_labels())],
            }
        )
    return {"components": out}


def cmd_ideal_gens(args):
    structure = parse_poset_file(args.file)
    pres = degeneration.ideal_presentation(structure, args.kind)
    keys = structure_keys(structure)
    gens = []
    for (a, b), rhs in pres.generators:
        entry = {"lead": [keys[a], keys[b]]}
        if rhs is not None:
            entry["trail"] = [keys[rhs[0]], keys[rhs[1]]]
        gens.append(entry)
    return {"kind": args.kind, "generators": gens}


def cmd_standardize(args):
    structure = parse_poset_file(args.file)
    std = marked.standardize(structure)
    q = std.quotient
    return {
        "identity": std.is_identity,
        "classes": [
            sorted(structure.poset.elements[i] for i in mask_bits(m))
            for m in std.class_masks
        ],
        "quotient_elements": list(q.poset.elements),
        "quotient_covers": [list(c) for c in sorted(q.poset.cover_labels())],
        "mu": {
            q.poset.elements[i]: q.marking[i] for i in mask_bits(q.marked)
        },
        "hasse": hasse_lines(q.poset.elements, q.poset.cover_labels()),
    }


def cmd_mcop_recognize(args):
    structure = parse_poset_file(args.file)
    target = marked.build_mrpp(structure)
    found = marked.mcop_recognize(structure, target)
    if found is None:
        return {"found": False}
    return {"found": True, "chain": list(found[0]), "order": list(found[1])}


def parse_dims(text):
    try:
        return tuple(int(d) for d in text.split(","))
    except ValueError:
        raise ParseError(f"bad dims {text!r}") from None


def cmd_flag(args):
    data = flagmod.build_flag_poset(args.n, parse_dims(args.dims))
    if args.action == "ideals":
        structure = data.structure(args.mode)
        return {"ideals": structure_keys(structure)}
    if args.action == "polytope":
        poly = flagmod.flag_polytope(data, args.mode)
        return {
            "mode": args.mode,
            "elements": list(data.poset.elements),
            "marked": {k: data.marking[k] for k in data.marked_labels},
            "lattice_point_count": len(poly.points),
            "lattice_points": point_list(poly.points),
        }
    # degenerate
    structure = data.structure(args.mode)
    std, keys = jlambda_keys(structure)
    w = parse_weights_file(args.weights, keys, args.default_zero)
    report = flagmod.flag_degeneration(data, args.mode, w)
    return {"mode": args.mode, "parts": report.parts}


class Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ParseErrors, so they end as
    one `parse error:` line with exit 4; `-h` still prints help and exits 0.
    Subparsers are built from the same class."""

    def error(self, message):
        # "unrecognized arguments" quotes the argv verbatim, newlines included
        raise ParseError(message.replace("\n", "\\n"))

    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        for name, value in vars(parsed).items():
            # argparse (3.11) drops the value '--' of "--dims=--" and stores
            # []; no option here takes a list
            if value == []:
                self.error(f"argument --{name.replace('_', '-')}: expected one argument")
        return parsed


@cache
def build_parser():
    """The argument tree, built on the first call and shared by every later
    `main` call in the process; each parse fills a fresh namespace."""
    parser = Parser(
        prog="posetdegen",
        description="Relative poset polytopes, their subdivisions and flag degenerations",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--out", default=None, help="write the report to a file")
    sub = parser.add_subparsers(dest="command", required=True)
    add = sub.add_parser

    p = add("validate")
    p.add_argument("file")
    p = add("ideals")
    p.add_argument("file")
    p = add("polytope")
    p.add_argument("file", nargs="?")
    p.add_argument("--kind", required=True,
                   choices=("order", "chain", "relative", "mrpp", "gt", "fflv", "mcop"))
    p.add_argument("--chain-set", default="")
    p.add_argument("--order-set", default="")
    p.add_argument("--n", type=int)
    p.add_argument("--dims")
    p = add("ehrhart")
    p.add_argument("file")
    p.add_argument("--max-dilation", type=int, default=3)
    p = add("normality")
    p.add_argument("file")
    p.add_argument("--max-dilation", type=int, default=3)
    for name in ("cone-check", "subdivide", "components"):
        p = add(name)
        p.add_argument("file")
        p.add_argument("--weights", required=True)
        p.add_argument("--default-zero", action="store_true")
    p = add("ideal-gens")
    p.add_argument("file")
    p.add_argument("--kind", required=True,
                   choices=("hibi", "hibili", "relative", "monomial"))
    p = add("standardize")
    p.add_argument("file")
    p = add("mcop-recognize")
    p.add_argument("file")
    p = add("flag")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dims", required=True)
    p.add_argument("--mode", choices=("gt", "fflv"), required=True)
    p.add_argument("--action", choices=("polytope", "ideals", "degenerate"),
                   default="polytope")
    p.add_argument("--weights")
    p.add_argument("--default-zero", action="store_true")
    return parser


BROKEN_PIPE_EXIT = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it


def silence_stdout():
    """Point the stdout descriptor at os.devnull, so that the interpreter's
    last flush of what is still buffered for a closed pipe writes nowhere.
    A stdout with no descriptor (an in-memory stream) is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None):
    """Run one command; returns its exit code.  Safe to call repeatedly in
    one process: the command `cmd_<name>` is looked up in this module at
    each call, so a replaced function is the one that runs.  A reader that
    closes stdout early (`| head`) ends the command quietly with
    BROKEN_PIPE_EXIT."""
    try:
        args = build_parser().parse_args(argv)
        command = globals()["cmd_" + args.command.replace("-", "_")]
        emit_report(command(args), args.format, args.out)
    except PosetDegenError as exc:
        print(exc.describe(), file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        silence_stdout()
        return BROKEN_PIPE_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
