"""The JSON text of a report, the bytes of json.dumps(report,
sort_keys=True, indent=2), written directly from dicts with str keys,
lists, tuples, str, int, bool and None; anything else, floats and
Fractions included, is refused.  The CLI writes every report but
`subdivide`'s through `report_json`.
"""

from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter

SCALAR_WRITERS = {str: encode_basestring_ascii, int: int.__repr__}
ROW_TYPES = {list, tuple}
LEAF_PLACEHOLDERS = {str: "%s", int: "%d"}  # %d writes an exact int as int.__repr__
BLOCK_ITEMS = 64  # items filled by one `%`, so the text built at once stays small


def uniform_items(items, inner):
    """The indent=2 JSON text of a non-empty list whose items have one
    shape, as pieces to join, or None when they do not.  An item is a row
    (list or tuple) of leaves, or a dict with str keys, the key set of the
    first item, whose values are such rows; no row is empty, and every leaf
    is exactly str or every one exactly int (so no bool).  `inner` is the
    new line and indent of each item.

    An item's text is a `%` template: brackets, indents and each key's
    encoded text, with a placeholder per leaf.  Items are filled BLOCK_ITEMS
    at a time with one `%`, from the template of the block's row lengths,
    built again only where those change (rows of several lengths), and the
    block's leaves: the ints themselves, or the encoded strings, each
    distinct one encoded once per list (labels and ideal keys recur)."""
    first = items[0]
    if type(first) is dict:
        keys = first.keys()
        if (not keys or not all(type(k) is str for k in keys)
                or set(map(type, items)) != {dict}
                or not all(map(keys.__eq__, map(dict.keys, items)))):
            return None
        names = sorted(keys)
        values = map(itemgetter(*names), items)
        rows = list(chain.from_iterable(values) if len(names) > 1 else values)
        heads = [encode_basestring_ascii(k).replace("%", "%%") for k in names]
    else:
        rows, heads = items, None
    if not set(map(type, rows)) <= ROW_TYPES or not all(rows):
        return None
    kinds = set(map(type, chain.from_iterable(rows)))
    placeholder = LEAF_PLACEHOLDERS.get(kinds.pop()) if len(kinds) == 1 else None
    if placeholder is None:
        return None
    encode = None
    if placeholder == "%s":
        distinct = set(chain.from_iterable(rows))
        encode = dict(zip(distinct, map(encode_basestring_ascii, distinct))).__getitem__
    width = len(heads) if heads else 1  # rows per item
    step = BLOCK_ITEMS * width

    def row(length, pad):
        cell = pad + "  "
        return f"[{cell}{(',' + cell).join([placeholder] * length)}{pad}]"

    def item(lengths):
        if heads is None:
            return f",{inner}{row(lengths[0], inner)}"
        field = inner + "  "
        fields = ",".join(f"{field}{h}: {row(n, field)}" for h, n in zip(heads, lengths))
        return f",{inner}{{{fields}{inner}}}"

    pieces = []
    shape = None
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        if (lengths := tuple(map(len, block))) != shape:
            shape = lengths
            template = "".join(item(lengths[i:i + width]) for i in range(0, len(lengths), width))
        leaves = chain.from_iterable(block)
        pieces.append(template % tuple(leaves if encode is None else map(encode, leaves)))
    pieces[0] = "[" + pieces[0][1:]
    return pieces


def report_json(report):
    """The text of json.dumps(report, sort_keys=True, indent=2), written
    directly: dicts with str keys, lists and tuples, str, int, bool and None.
    Anything else, floats and Fractions included, raises TypeError.

    A list of only str or only int is joined in one step.  A list whose
    items share one shape, rows of str or of int leaves or dicts of such
    rows under one key set (cover pairs, points, generators), is filled
    from one template per run of row lengths (`uniform_items`); anything
    else is written node by node."""
    out = []

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
            pieces = uniform_items(obj, inner)
            if pieces is not None:
                out.extend(pieces)
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
