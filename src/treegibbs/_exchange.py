"""The line-oriented assignment exchange format: a strict reader and its
writer, behind :func:`treegibbs.tree.export_assignment` and
:func:`treegibbs.tree.parse_assignment`.

The text is a header line, then one line per vertex in vertex order.  From
vertex 1 on, the lines fall into runs whose vertex and parent numbers keep
their digit counts, so every line of a run has the same width and the run
is a 2-D byte array.  Each field of a line (a group of up to four digits,
the tab between the numbers, the four-byte tail) sits at a fixed column
and is written, or checked, as one strided vector of unsigned integers.

``treegibbs.tree`` imports this module on first use, so that importing the
package does not compile it (about half of the tree layer's source).
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .solver import FieldPair
from .tree import _L_TYPE, _NEGATIVE, BoundaryAssignment, FiniteTree, build_tree

_TAB = np.uint8(ord("\t"))
# The last four bytes of a vertex line (tab, sign, type, newline) read as
# one little-endian uint32, by label code.  "-" is "+" + 2 and "L" is
# "H" + 4, so the tail of code c exceeds that of +H (code 0) by
# (c & 2) << 8 | (c & 1) << 18: the code's bits, shifted into its bytes.
_TAIL_OF_CODE = np.frombuffer(b"\t+H\n\t+L\n\t-H\n\t-L\n", dtype="<u4")
_TAIL_BITS = (_NEGATIVE << 8) | (_L_TYPE << 18)
_ROOT_HEAD = b"0\t-1"  # the root's line, before its tail


def _header(tree: FiniteTree, values: FieldPair) -> str:
    return f"k={tree.k} n={tree.depth} h={values.h!r} l={values.l!r}"


def _codes_of_tails(tails: np.ndarray, first_vertex: int) -> np.ndarray:
    """Label codes of line tails; raises on any other tail."""
    delta = tails - _TAIL_OF_CODE[0]
    wrong = (delta | _TAIL_BITS) != _TAIL_BITS
    if wrong.any():
        raise ValueError(f"bad line for vertex {first_vertex + int(np.argmax(wrong))}")
    return ((delta >> 8) & _NEGATIVE) | ((delta >> 18) & _L_TYPE)


@functools.cache
def _digit_table(size: int) -> np.ndarray:
    """The ``size``-digit decimal strings "0..0" to "9..9" in ASCII, each
    read as one little-endian unsigned integer (size 1, 2 or 4)."""
    n = np.arange(10**size)
    digits = n[:, None] // 10 ** np.arange(size - 1, -1, -1) % 10 + ord("0")
    return digits.astype(np.uint8).view(f"<u{size}")[:, 0]


def _runs(k: int, num_vertices: int, pos: int):
    """The runs of vertex lines, from vertex 1 on, whose vertex and parent
    widths are fixed, as (start, stop, vertex digits, parent digits, byte
    offset of the first line) with the first at byte ``pos``, and the
    offset after the last line.  A line is dv + dp + 5 bytes long."""
    cuts = {1, num_vertices}
    power = 10
    while power < num_vertices:
        cuts.update(c for c in (power, k * power + 1) if c < num_vertices)
        power *= 10
    cuts = sorted(cuts)
    runs = []
    for start, stop in zip(cuts, cuts[1:]):
        dv, dp = len(str(start)), len(str((start - 1) // k))
        runs.append((start, stop, dv, dp, pos))
        pos += (stop - start) * (dv + dp + 5)
    return runs, pos


def _digit_fields(start: int, stop: int, shift: int, step: int, width: int, offset: int):
    """(column, values) of the digit groups of the ``width``-digit numbers
    ``(v - shift) // step`` for v in [start, stop), the leading digit in
    column ``offset``: groups of four from the right, then the leading
    one to three digits in groups of two and one.

    A group's string is constant over blocks of ``step * 10**low``
    consecutive v (``low`` is the place of its last digit) and steps
    through the table of its strings from one block to the next, so each
    field is a slice of that cycle, repeated block-wise: no division per
    line.
    """
    low = 0
    while low < width:
        size = min(4, width - low)
        if size == 3:
            size = 2  # then a group of one
        table = _digit_table(size)
        block = step * 10**low
        first = (start - shift) // block
        count = (stop - 1 - shift) // block - first + 1
        phase = first % table.size
        cycle = table
        if phase + count > table.size:
            cycle = np.broadcast_to(table, (-(-(phase + count) // table.size), table.size)).ravel()
        values = cycle[phase : phase + count]
        if count <= 2:  # a block may be far longer than the run: cut it to size
            cut = (first + 1) * block + shift
            values = np.repeat(values, [min(cut, stop) - start, max(stop - cut, 0)][:count])
        elif block > 1:  # whole blocks, at most 3x the run, then trimmed
            skip = start - shift - first * block
            values = np.repeat(values, block)[skip : skip + stop - start]
        yield offset + width - low - size, values
        low += size


def _run_fields(raw: np.ndarray, run: tuple, k: int):
    """A run's lines as fields: an iterator of (view, values) for the
    vertex digit groups, the tab and the parent digit groups, which every
    line must hold, and the view of the line tails.  A view is one strided,
    possibly unaligned, column of integers of its values' size."""
    start, stop, dv, dp, pos = run
    lines = raw[pos : pos + (stop - start) * (dv + dp + 5)].reshape(stop - start, dv + dp + 5)

    def view(col, dtype):
        return lines[:, col : col + dtype.itemsize].view(dtype)[:, 0]

    fixed = itertools.chain(
        _digit_fields(start, stop, 0, 1, dv, 0),
        [(dv, _TAB)],
        _digit_fields(start, stop, 1, k, dp, dv + 1),
    )
    return ((view(col, v.dtype), v) for col, v in fixed), view(dv + dp + 1, _TAIL_OF_CODE.dtype)


def export_text(assignment: BoundaryAssignment) -> str:
    """The text of :func:`treegibbs.tree.export_assignment`."""
    tree, codes = assignment.tree, assignment.codes
    prefix = (_header(tree, assignment.values) + "\n").encode("ascii") + _ROOT_HEAD
    prefix += int(_TAIL_OF_CODE[codes[0]]).to_bytes(4, "little")
    runs, size = _runs(tree.k, tree.num_vertices, len(prefix))
    buf = np.empty(size, dtype=np.uint8)
    buf[: len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
    for run in runs:
        fixed, tails = _run_fields(buf, run, tree.k)
        for field, values in fixed:
            field[:] = values
        tails[:] = _TAIL_OF_CODE[codes[run[0] : run[1]]]
    return str(buf.data, "ascii")


def parse_text(text: str) -> BoundaryAssignment:
    """The assignment of :func:`treegibbs.tree.parse_assignment`."""
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise ValueError("assignment text is not ASCII") from exc
    end = data.find(b"\n")
    if end < 0:
        raise ValueError("assignment text has no vertex lines")
    header = data[:end].decode("ascii")
    items = dict(item.partition("=")[::2] for item in header.split())
    try:
        tree = build_tree(int(items["k"]), int(items["n"]))
        values = FieldPair(float(items["h"]), float(items["l"]))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad assignment header: {header!r}") from exc
    if header != _header(tree, values):
        raise ValueError(f"bad assignment header: {header!r}")
    pos = end + 1 + len(_ROOT_HEAD) + 4
    runs, size = _runs(tree.k, tree.num_vertices, pos)
    if len(data) < size or data[size:].strip():
        raise ValueError(
            f"the body does not hold the {tree.num_vertices} vertex lines of header {header!r}"
        )
    raw = np.frombuffer(data, dtype=np.uint8)
    codes = np.empty(tree.num_vertices, dtype=np.int8)
    if data[end + 1 : pos - 4] != _ROOT_HEAD:
        raise ValueError("bad line for vertex 0")
    codes[:1] = _codes_of_tails(raw[pos - 4 : pos].view("<u4"), 0)
    for run in runs:
        fixed, tails = _run_fields(raw, run, tree.k)
        for field, expected in fixed:
            wrong = field != expected
            if wrong.any():
                raise ValueError(f"bad line for vertex {run[0] + int(np.argmax(wrong))}")
        codes[run[0] : run[1]] = _codes_of_tails(tails, run[0])
    return BoundaryAssignment(tree=tree, codes=codes, values=values)
