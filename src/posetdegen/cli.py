"""Command line interface: JSON poset/weights files in, deterministic reports out.

Exit codes: 0 success, 2 validation failure, 3 weight outside the cone,
4 parse error (usage errors included), 5 internal error (a bug trap of the
library fired); each error class in `errors` carries its code and its one
line on stderr.  All rationals are serialized exactly ("p/q", plain integers
without the denominator); a report holds only strings, integers, booleans
and None in dicts and lists, and their writer, `jsontext.report_json`,
refuses anything else, floats included.  A `subdivide` report, one block
per part, is written here (`parts_json`) from text encoded once per
lattice, one chunk per part, with the same bytes, so an unmarked
`subdivide` never loads `jsontext`, nor the other lazily loaded modules
(see the package docstring).
"""

import argparse
import json
import os
import re
import stat
import sys
from decimal import Decimal
from fractions import Fraction
from functools import cache
from itertools import compress, count
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import ne

from . import degeneration, flag as flagmod, jsontext, marked, polytopes
from .errors import ParseError, PosetDegenError
from .posets import build_poset, mask_bits, validate_relative_structure

INTEGER_TEXT = re.compile(r"[+-]?[0-9]+")
EXPONENT_TEXT = re.compile(r"[eE]([+-]?[0-9_]+)")
# bounds the digits of each weight; a report's rationals, over the lcm of
# several denominators, can still pass Python's limit on integer text
MAX_EXPONENT = 1000
MAX_SHOWN = 40  # the longest weight text that a parse error repeats


def digit_limit_error(what):
    """The ParseError for a number whose text passes Python's limit on
    integer text."""
    limit = sys.get_int_max_str_digits()
    return ParseError(f"{what} passes the {limit}-digit limit on integer text")


def fmt_ratio(x, scale):
    """The rational x/scale (scale > 0) as "p/q", or "p" when it is an
    integer; a ParseError when a term passes Python's limit on integer text."""
    try:
        if scale == 1:
            return str(x)
        g = gcd(x, scale)
        return str(x // g) if g == scale else f"{x // g}/{scale // g}"
    except ValueError:
        raise digit_limit_error("a rational of the report") from None


def parse_fraction(value, path, key):
    """The exact rational of a weight: a JSON integer, a Decimal read from a
    JSON number, or a string such as "-3/2" or "1e-3".  An exponent beyond
    ±MAX_EXPONENT in str(value) (for a Decimal, its normalized exponent) is
    refused before Fraction expands it.  A ParseError names the weights
    file `path` and the ideal key, and repeats the weight's text only up to
    MAX_SHOWN characters, giving the length of a longer one."""
    text = str(value)
    exponent = EXPONENT_TEXT.search(text)
    try:
        if exponent and abs(int(exponent.group(1))) > MAX_EXPONENT:
            reason = f"exponent beyond ±{MAX_EXPONENT}"
        else:
            return Fraction(text)
    except ZeroDivisionError:
        reason = "zero denominator"
    except ValueError:
        # text that int() or Fraction cannot read, or an integer past
        # Python's limit on integer text, which then has that many digits
        limit = sys.get_int_max_str_digits()
        if 0 < limit < sum(map(str.isdigit, text)):
            reason = f"passes the {limit}-digit limit on integer text"
        else:
            reason = "not an integer, a decimal or p/q"
    shown = repr(text) if len(text) <= MAX_SHOWN else f"of {len(text)} characters"
    raise ParseError(f"{path}: weight of ideal key {key!r}: bad rational {shown}: {reason}")


def load_json(path):
    """The JSON value of a file.  A number with a fraction or an exponent is
    kept exactly as a Decimal of its literal text, never made a float;
    `parse_fraction` turns it into a Fraction where a rational is wanted.
    An object that repeats a key, at any depth, is a ParseError naming it;
    so are text that is not UTF-8, an integer literal past Python's limit
    on integer text and nesting past its recursion limit."""

    def unique_keys(pairs):
        table = dict(pairs)
        if len(table) < len(pairs):
            seen = set()
            key = next(k for k, _ in pairs if k in seen or seen.add(k))
            raise ParseError(f"{path}: duplicate key {key!r}")
        return table

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=Decimal, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    except ValueError:  # the one other ValueError of json.load: int() of a literal
        raise digit_limit_error(f"{path}: an integer") from None
    except RecursionError:
        raise ParseError(f"{path}: JSON nested past the recursion limit") from None


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
            try:
                out[label] = int(value)
            except ValueError:
                raise digit_limit_error(f"{path}: marked[{json.dumps(label)}]") from None
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
            values.append(parse_fraction(table[key], path, key))
        elif default_zero:
            values.append(Fraction(0))
        else:
            raise ParseError(f"{path}: missing weight for ideal key {key!r}")
    known = set(keys)
    for key in table:
        if key not in known:
            raise ParseError(f"{path}: weight key {key!r} matches no ideal")
    return values


def jlambda_keys(std):
    """The ideal keys of J_lambda of a standardized structure, the keys of
    a marked structure's weights."""
    keys = std.base.lattice.keys
    return [keys[i] for i in std.jlambda]


def hasse_lines(elements, covers):
    """Indented cover list: each element followed by the elements covering it."""
    uppers = {}
    for a, b in covers:
        uppers.setdefault(a, []).append(b)
    lines = []
    for e in elements:
        lines.append(e)
        for b in sorted(uppers.get(e, [])):
            lines.append(f"  < {b}")
    return lines


def render_text(report):
    """The text format of a report, parsed from its JSON text: dicts by
    sorted key, lists as "-" items, nested ones indented; a "hasse" entry's
    lines first."""
    out = []
    nested = (dict, list)

    def walk(obj, depth):
        pad = "  " * depth
        if isinstance(obj, dict):
            for key in sorted(obj):
                value = obj[key]
                if isinstance(value, nested):
                    out.append(f"{pad}{key}:")
                    walk(value, depth + 1)
                else:
                    out.append(f"{pad}{key}: {value}")
        elif isinstance(obj, list):
            for value in obj:
                if isinstance(value, nested):
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


class PartsReport:
    """The report of `subdivide`: the `Part`s of a subdivision of
    `structure` and the (vertices, lattice points) count of each.  For a
    marked structure they are the (parts, counts) of `marked.mrpp_subdivide`
    over the standardized quotient; an unmarked part counts its lattice
    twice.  `emit_report` renders it with `parts_json`."""

    def __init__(self, structure, parts, counts):
        self.structure = structure
        self.parts = parts
        self.counts = counts


def joined_list(text, pad):
    """The indent=2 JSON text of a list, its opening bracket `pad` spaces
    in, from the joined text of its items, each of which begins with its
    separator: "," and a new line `pad` + 2 spaces in."""
    return f"[{text[1:]}\n{' ' * pad}]" if text else "[]"


def parts_json(report):
    """The text of json.dumps(report, sort_keys=True, indent=2) and its final
    newline, for the dict report that a `PartsReport` stands for, as a list
    of chunks: the head, one chunk per part, the tail.

    Each part is {"added_covers", "order_covers": sorted [label, label]
    pairs, the added ones those not in the base order; "affine": {"normal",
    "constant"} of its lift, as rationals; "vanishing_variables": the keys of
    the ideals outside it, sorted; "vertices", "lattice_points": its counts}.
    Each element label, ideal key, cover pair and rational is encoded once
    per report, with the separator that precedes it in a list, and a part's
    chunk is joined from those pieces and its counts.  Every part has the
    scale of the first.

    A walked part (no linearization) sorts the covers it carries and marks
    the keys of its ideals.  A part with a linearization keeps slots that
    carry over from the last such part: one cover slot per element, at the
    label rank of the cover's lower element (unique in a chain, and the
    covers' sort order), and one key slot per ideal, by key rank, blank on
    the chain.  If the two chains first differ at chain position k, the
    linearizations agree on their first k - 1 elements, so only the covers
    from position k - 2 on change, over the same lower elements, and only
    the chain positions from k on change their key slots.  That holds for
    parts in any order, and the depth-first order of `subdivide` keeps k
    near the end of the chain."""
    structure = report.structure
    poset, lat = structure.poset, structure.lattice
    labels = [encode_basestring_ascii(e) for e in poset.elements]
    label_rank = [0] * poset.n
    for r, i in enumerate(sorted(range(poset.n), key=poset.elements.__getitem__)):
        label_rank[i] = r
    keyed = sorted(zip(lat.keys, range(len(lat))))
    key_texts = [",\n        " + encode_basestring_ascii(key) for key, _ in keyed]
    key_rank = [0] * len(keyed)
    for r, (_, pos) in enumerate(keyed):
        key_rank[pos] = r
    every_key = b"\x01" * len(keyed)
    scale = report.parts[0].scale if report.parts else 1

    @cache
    def cover(pair):
        """(sort rank, text, text if the base order lacks it else "") of a
        cover pair."""
        i, j = pair
        text = f",\n        [\n          {labels[i]},\n          {labels[j]}\n        ]"
        added = "" if poset.above[i] >> j & 1 else text
        return label_rank[i] * poset.n + label_rank[j], text, added

    normal_sep = ",\n" + " " * 10

    @cache
    def normal(x):
        # a rational's text is digits, '-' and '/': nothing to escape
        return f'{normal_sep}"{fmt_ratio(x, scale)}"'

    order_slots = [""] * poset.n
    added_slots = [""] * poset.n
    key_slots = key_texts[:]
    prev = ()  # the chain of the last part with a linearization
    head = "{\n"
    if structure.marked:  # no section is lower-dimensional (mrpp_subdivide)
        head += '  "dropped_lower_dimensional": 0,\n'
    chunks = [head + '  "parts": [']
    sep = "\n"
    for part, (vertices, points) in zip(report.parts, report.counts):
        ext = part.linearization
        if ext is None:
            rows = sorted(map(cover, part.covers))
            order = "".join([t for _, t, _ in rows])
            added = "".join([t for _, _, t in rows])
            outside = bytearray(every_key)
            for r in map(key_rank.__getitem__, part.sublattice):
                outside[r] = 0
            vanishing = "".join(compress(key_texts, outside))
        else:
            chain = part.sublattice
            k = next(compress(count(), map(ne, prev, chain)), len(prev))
            for r in map(key_rank.__getitem__, prev[k:]):
                key_slots[r] = key_texts[r]
            for r in map(key_rank.__getitem__, chain[k:]):
                key_slots[r] = ""
            start = max(k - 2, 0)
            for pair in zip(ext[start:], ext[start + 1:]):
                r = label_rank[pair[0]]
                _, order_slots[r], added_slots[r] = cover(pair)
            if ext:
                r = label_rank[ext[-1]]
                order_slots[r] = added_slots[r] = ""
            prev = chain
            order, added = "".join(order_slots), "".join(added_slots)
            vanishing = "".join(key_slots)
        a, b = part.lift
        chunks.append(
            f'{sep}    {{\n'
            f'      "added_covers": {joined_list(added, 6)},\n'
            f'      "affine": {{\n'
            f'        "constant": {normal(b)[len(normal_sep):]},\n'
            f'        "normal": {joined_list("".join(map(normal, a)), 8)}\n'
            f'      }},\n'
            f'      "lattice_points": {points},\n'
            f'      "order_covers": {joined_list(order, 6)},\n'
            f'      "vanishing_variables": {joined_list(vanishing, 6)},\n'
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
    """Write a report.  Its JSON text is built first, all before the first
    byte is written, so an error while rendering leaves no partial report:
    `parts_json`'s chunks for a `PartsReport`, each ASCII and encoded only
    as it is written, or `jsontext.report_json` of any other, encoded at
    once so that the text is not held beside its bytes, with the final
    newline written after it, not appended, which would copy it once more.
    The text format renders the parsed JSON text.  Output to stdout is
    flushed here, so a reader that closed the pipe is noticed in `main`; an
    `out` path is written by `write_out`."""
    if isinstance(report, PartsReport):
        data = map(str.encode, parts_json(report))
    else:
        data = (jsontext.report_json(report).encode("utf-8"), b"\n")
    if fmt == "text":
        data = (encode_text(render_text(json.loads(b"".join(data)))),)
    if out:
        write_out(out, data)
    else:
        sys.stdout.buffer.writelines(data)
        sys.stdout.flush()


def write_out(out, data):
    """Write the byte chunks `data` to the path `out`.  A regular file, or
    one that does not exist yet, is replaced only once every byte is
    written: the chunks go to a new file beside it (beside the file a
    symbolic link names), which keeps the old file's mode and is renamed
    onto it at the end, or removed on any failure; a failed write leaves
    the old file as it was.  An existing file is first opened for writing,
    so one that cannot be written (read-only) is refused, never replaced.
    Where no new file can be made beside it (a directory that cannot be
    written, a name too long to extend), and for anything that is not a
    regular file, such as /dev/stdout or a FIFO, `out` is written
    directly.  A path that cannot be written is a ParseError, like an
    unreadable input file, with the message it had when every path was
    written directly."""
    try:
        mode = os.stat(out).st_mode
        replace = stat.S_ISREG(mode)
    except FileNotFoundError:
        mode, replace = None, True
    except OSError:
        replace = False  # open() below reports it
    fh = temp = None
    try:
        if replace:
            if mode is not None:
                open(out, "r+b").close()
            head, tail = os.path.split(os.path.realpath(out))
            name = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
            try:
                fh = open(name, "xb")
                temp = name
            except OSError:
                pass
        if fh is None:
            fh = open(out, "wb")
        with fh:
            fh.writelines(data)
        if temp is not None:
            if mode is not None:
                os.chmod(temp, stat.S_IMODE(mode))
            os.replace(temp, os.path.join(head, tail))
            temp = None
    except OSError as exc:
        if temp is not None and exc.filename == temp:
            exc.filename = out
        raise ParseError(f"cannot write {out}: {exc}") from None
    finally:
        if temp is not None:
            try:
                os.unlink(temp)
            except OSError:
                pass


def cmd_validate(args):
    structure = parse_poset_file(args.file)
    report = {
        "valid": True,
        "elements": structure.poset.elements,
        "ideal_count": structure.ideal_count,
        "marked": sorted(
            structure.poset.elements[i] for i in mask_bits(structure.marked)
        ),
        "hasse": hasse_lines(structure.poset.elements, structure.poset.cover_labels()),
    }
    return report


def cmd_ideals(args):
    structure = parse_poset_file(args.file)
    return {"ideals": structure.lattice.keys}


def refuse_unused(args, used_by, names):
    """A ParseError for the first of `names`, argparse destinations, that
    was given though `used_by`, the kind or action chosen, does not use it:
    a value other than None or False (the defaults)."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value is not False:
            given = "poset file" if name == "file" else "--" + name.replace("_", "-")
            raise ParseError(f"{used_by} takes no {given}")


def cmd_polytope(args):
    flag_kind = args.kind in ("gt", "fflv")
    unused = ["file"] if flag_kind else ["n", "dims"]
    if args.kind != "mcop":
        unused += ["chain_set", "order_set"]
    refuse_unused(args, f"--kind {args.kind}", unused)
    if flag_kind:
        if args.n is None or args.dims is None:
            raise ParseError(f"--kind {args.kind} requires --n and --dims")
        data = flagmod.build_flag_poset(args.n, parse_dims(args.dims))
        poly = flagmod.flag_polytope(data, args.kind)
        return {
            "kind": args.kind,
            "elements": data.poset.elements,
            "lattice_points": poly.points,
            "vertices": poly.vertices,
        }
    structure = parse_poset_file(args.file)
    if args.kind == "mrpp":
        poly = marked.build_mrpp(structure)
    elif args.kind == "mcop":
        chain_part = args.chain_set.split(",") if args.chain_set else []
        order_part = args.order_set.split(",") if args.order_set else []
        marking = {
            structure.poset.elements[i]: structure.marking[i]
            for i in mask_bits(structure.marked)
        }
        poly = marked.mcop_build(structure.poset, marking, chain_part, order_part)
    else:
        return {
            "kind": args.kind,
            "vertices": polytopes.build_polytope(structure, args.kind),
            "vertex_keys": structure.lattice.keys,
        }
    return {"kind": args.kind, "lattice_points": poly.points, "vertices": poly.vertices}


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
    polytopes.check_normality(structure, args.max_dilation)
    return {"normal": True, "max_dilation": args.max_dilation}


def cmd_cone_check(args):
    structure = parse_poset_file(args.file)
    keys = structure.lattice.keys
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
        std = marked.standardize(structure)
        w = parse_weights_file(args.weights, jlambda_keys(std), args.default_zero)
        return PartsReport(std.quotient, *marked.mrpp_subdivide(std, w))
    w = parse_weights_file(args.weights, structure.lattice.keys, args.default_zero)
    parts = degeneration.subdivide(structure, w)
    counts = [(len(part.sublattice),) * 2 for part in parts]
    return PartsReport(structure, parts, counts)


def cmd_components(args):
    structure = parse_poset_file(args.file)
    keys = structure.lattice.keys
    w = parse_weights_file(args.weights, keys, args.default_zero)
    out = []
    for comp in degeneration.zhu_components(structure, w):
        out.append(
            {
                "vanishing": [keys[i] for i in comp.vanishing],
                "generators": [
                    [[keys[a], keys[b]], [keys[u], keys[s]]]
                    for (a, b), (u, s) in comp.generators
                ],
                "order_covers": sorted(comp.part.order.cover_labels()),
            }
        )
    return {"components": out}


def cmd_ideal_gens(args):
    structure = parse_poset_file(args.file)
    keys = structure.lattice.keys
    gens = [{"lead": [keys[a], keys[b]]} if rhs is None
            else {"lead": [keys[a], keys[b]], "trail": [keys[rhs[0]], keys[rhs[1]]]}
            for (a, b), rhs in degeneration.ideal_presentation(structure, args.kind)]
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
        "quotient_elements": q.poset.elements,
        "quotient_covers": sorted(q.poset.cover_labels()),
        "mu": {
            q.poset.elements[i]: q.marking[i] for i in mask_bits(q.marked)
        },
        "hasse": hasse_lines(q.poset.elements, q.poset.cover_labels()),
    }


def cmd_mcop_recognize(args):
    structure = parse_poset_file(args.file)
    found = marked.mcop_recognize(structure, marked.mrpp_points(structure))
    if found is None:
        return {"found": False}
    return {"found": True, "chain": found[0], "order": found[1]}


def parse_dims(text):
    try:
        return tuple(int(d) for d in text.split(","))
    except ValueError:
        raise ParseError(f"bad dims {text!r}") from None


def cmd_flag(args):
    if args.action != "degenerate":
        refuse_unused(args, f"--action {args.action}", ("weights", "default_zero"))
    data = flagmod.build_flag_poset(args.n, parse_dims(args.dims))
    if args.action == "ideals":
        return {"ideals": data.structure(args.mode).lattice.keys}
    if args.action == "polytope":
        poly = flagmod.flag_polytope(data, args.mode)
        return {
            "mode": args.mode,
            "elements": data.poset.elements,
            "marked": {k: data.marking[k] for k in data.marked_labels},
            "lattice_point_count": len(poly.points),
            "lattice_points": poly.points,
        }
    # degenerate
    std = marked.standardize(data.structure(args.mode))
    w = parse_weights_file(args.weights, jlambda_keys(std), args.default_zero)
    return {"mode": args.mode, "parts": flagmod.flag_degeneration(data, args.mode, std, w)}


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
            # for "--dims=--", argparse 3.11 drops the value '--' and stores
            # [], 3.13 stores '--'; no option here takes a list or '--'
            if value == [] or value == "--":
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
    p.add_argument("--chain-set")
    p.add_argument("--order-set")
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
