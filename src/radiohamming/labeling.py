"""Radio labelings and their validation.

A radio labeling of a graph G assigns a positive integer f(v) to every
vertex so that |f(u) - f(v)| >= diam(G) + 1 - d(u,v) for all distinct u, v.
The span of a labeling is its largest label, and the radio number of G is
the minimum span over all radio labelings.  G is radio graceful when some
ordering x_1, ..., x_N of its vertices makes f(x_i) = i a radio labeling,
which holds exactly when d(x_i, x_{i+D}) >= diam(G) - D + 1 for every
window width D < diam(G).

Only pairs whose labels differ by less than diam(G) can violate the radio
condition, so validation scans the label-sorted vertices for pairs one, two,
... places apart and stops at the first distance with no gap below diam(G);
with distinct labels that is O(N * diam) after the sort.  The one window
scan reads the vertices as one array('I') per coordinate, made once per
call: the bijection check of an ordering returns them, and validate and
verify_labeling_csv unpack them from one int key per vertex, label * N +
the vertex's mixed-radix index, whose sort is (label, vertex) order.  The
scan is lane-packed: a chunk of 4,096 positions packs its labels and each
coordinate column into one int, a 32-bit lane per position (a column's
lanes are a copy of its bytes), and a few big-int operations test all its
pairs at one offset; its partners end at its last label + diam(G).  A
window whose labels reach 2^31 is rebased, each gap cut to diam(G): gaps
below diam(G) stay exact, the others at least diam(G), and its labels
below 4,096 * diam(G).  The vertex checks keep coordinates at most
N >= 2^diam(G); both bounds stay below 2^31, as no graph of 2^31 vertices
fits in memory.

check_graceful is the yes/no graceful test of any ordering: the window scan
on the consecutive labels, stopped at the first flagged pair.  Violation
objects are built only for validate's reports.  greedy_labeler, the one
greedy loop, labels an ordering a run of rows at a time and holds only the
last diam - 1 labeled rows between runs.  The greedy gives position i the
label i for every i iff the ordering is graceful (by induction), so
label_walk returns a graceful walk as it is, its positions the labels, and
labels any other a block per run; span_of_ordering labels any ordering,
with the positions when it is graceful.

read_labeling_csv, the reference reader, reads every row with Python's csv
reader.  verify_labeling_csv, the check of a labeling file, reads it a chunk
of lines at a time, so that C does the per-row work: a chunk whose every
line is a canonical row "(d,...,d)",d takes one regex match and one JSON
array, and its rows are kept as validate's keys, one int each, and sorted
and unpacked as validate's are, with a vertex tuple made only for a
violation.  A file that is not canonical throughout, a file that ends in an
error, and a pipe are read by read_labeling_csv and validated, so their
reports and errors are those two functions', at the csv reader's speed.
write_csv_rows writes a chunk of rows with one %-format.
"""

from __future__ import annotations

import csv
import json
import os
import re
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import add, floordiv, itemgetter, mod, mul, sub
from typing import Callable, Iterable, Iterator, Sequence, TextIO, Union

from .graphs import GraphError, HammingGraph, Vertex, are_ints, format_vertex, hamming
from .graphs import parse_vertex, vertex_template
from .ordering import block_columns, walk_is_graceful

RadioLabeling = dict[Vertex, int]
Ordering = Sequence[Vertex]

# Positions per chunk of the window scan.
_CHUNK = 4096
# Rows per chunk of verify_labeling_csv's reader and of the CSV writer.
# Larger chunks ran no faster, and their temporaries raised the peak RSS of
# verify 30x30x30 (1,024 rows by 0.3 MB, 4,096 by 1 MB).
_CSV_ROWS = 256


class LabelingError(ValueError):
    """Labeling or ordering that does not meet an operation's contract."""


@dataclass(frozen=True)
class Violation:
    """One vertex pair whose label gap is below the radio condition."""

    u: Vertex
    v: Vertex
    required_gap: int
    actual_gap: int

    def to_json(self) -> dict:
        return {
            "u": format_vertex(self.u),
            "v": format_vertex(self.v),
            "required_gap": self.required_gap,
            "actual_gap": self.actual_gap,
        }


@dataclass
class ValidationReport:
    valid: bool
    span: int
    violations: list[Violation]

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "span": self.span,
            "violations": [v.to_json() for v in self.violations],
        }


@dataclass
class GracefulReport:
    graceful: bool


def validate(g: HammingGraph, labeling: RadioLabeling) -> ValidationReport:
    """Check the radio condition for every vertex pair.

    The labels must be positive integers, one for every vertex of g: a key
    that is no vertex raises GraphError, any other breach LabelingError.
    Each violating pair is reported once, by (smaller label, larger label).
    """
    if not isinstance(labeling, dict):
        raise LabelingError("labeling must map vertices to labels")
    labels = labeling.values()
    columns = g.vertex_columns(labeling)
    if not (columns is not None and are_ints(labels) and min(labels, default=1) >= 1):
        # find the first bad item, in dict order, to name it in the error
        for v, label in labeling.items():
            g.check_vertex(v)
            if not are_ints((label,)) or label < 1:
                raise LabelingError(f"label {label!r} for vertex {v} is not a positive integer")
    if len(labeling) != g.vertex_count:
        raise LabelingError(
            f"labeling covers {len(labeling)} of {g.vertex_count} vertices of {g}"
        )
    return _key_report(g, list(_vertex_keys(g, labels, columns)))


def _vertex_keys(
    g: HammingGraph, labels: Iterable[int], columns: Iterable[Iterable[int]]
) -> Iterator[int]:
    """label * N + the vertex's mixed-radix index, its first coordinate most
    significant, for each label and vertex, the vertices given by their
    coordinate columns: sorted, the keys are (label, vertex) order."""
    keys, offset = labels, 0  # offset: what coordinates from 1, not 0, add to a key
    for column, size in zip(columns, g.factor_sizes):
        keys = map(add, map(mul, keys, repeat(size)), column)  # Horner's rule
        offset = offset * size + 1
    # a difference last: CPython allocates a sum one digit more, 16 B per key
    return map(sub, keys, repeat(offset))


def _key_report(g: HammingGraph, keys: list[int]) -> ValidationReport:
    """validate's report on the labeling whose _vertex_keys are keys, which
    are sorted in place and then emptied."""
    sizes, n, diam = g.factor_sizes, g.vertex_count, g.diameter
    keys.sort()
    try:
        labels = array("q", map(floordiv, keys, repeat(n)))
    except OverflowError:  # labels of 2^63 or more stay Python ints
        labels = [key // n for key in keys]
    # each coordinate's digit, the coordinate - 1: the scan only compares them
    digits, weight = [], n
    for size in sizes:
        weight //= size  # of this coordinate in the index
        digits.append(array("I", map(mod, map(floordiv, keys, repeat(weight)), repeat(size))))
    keys.clear()  # before the window scan: the arrays hold every row
    # position order is (smaller label, vertex, larger label, vertex) order,
    # because the keys are sorted
    violations = []
    for i, j in sorted(_window_violations(digits, labels, diam)):
        u, v = (tuple(column[k] + 1 for column in digits) for k in (i, j))
        violations.append(Violation(u, v, diam + 1 - hamming(u, v), labels[j] - labels[i]))
    return ValidationReport(valid=not violations, span=labels[-1], violations=violations)


def _window_violations(
    columns: list[array], labels: Sequence[int], diam: int
) -> Iterator[tuple[int, int]]:
    """Positions i < j of the violating pairs among vertices sorted by
    (label, vertex), given as one array('I') per coordinate, a chunk of
    positions i and one offset j - i at a time.

    A pair violates iff its label gap plus its distance is at most diam.
    Distinct vertices are at distance >= 1, so only gaps below diam can
    violate, and labels never decrease, so once no pair at some offset has
    a gap below diam, no pair further apart has either.
    """
    n = len(labels)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        end = bisect_left(labels, labels[stop - 1] + diam, stop)
        window = labels[start:end]
        # rebased from 2^31, each gap cut to diam: every lane stays below its top bit
        if window[-1] >> 31:
            window = list(accumulate(
                map(min, map(sub, islice(window, 1, None), window), repeat(diam)), initial=0
            ))
        label_lanes = int.from_bytes(array("I", window).tobytes(), "little")
        coordinate_lanes = [int.from_bytes(c[start:end].tobytes(), "little") for c in columns]
        lanes = stop - start
        ones = int.from_bytes(bytes(array("I", [1])) * lanes, "little")
        high = ones << 31
        low = high - ones
        at_least_diam = ones * ((1 << 31) - diam)
        for delta in range(1, len(window)):
            shift = 32 * delta
            # lanes whose partner is past the window borrow, upwards only
            tops = high >> 32 * max(0, lanes + delta - len(window))
            # a lane's top bit is set iff its gap is at least diam
            raised = (label_lanes >> shift) - label_lanes + at_least_diam
            if raised & tops == tops:
                break
            # x + low carries into a lane's top bit iff x != 0; summed over
            # the columns, a lane's count spills only into the next lane's
            # bits below its top bit
            differ = 0
            for column in coordinate_lanes:
                differ += (((column >> shift) ^ column) + low) & high
            # the top bit is now clear iff gap + distance <= diam
            sums = (raised + (differ >> 31) - ones) & tops
            if sums != tops:
                flags = ((sums ^ tops) >> 31).to_bytes(lanes * 4, "little")
                for i in compress(count(start), memoryview(flags).cast("I")):
                    yield i, i + delta


def verify_bijection(g: HammingGraph, ordering: Ordering) -> bool:
    """True iff ordering lists every vertex of g exactly once."""
    return _bijection_columns(g, ordering) is not None


def _bijection_columns(g: HammingGraph, ordering: Ordering) -> list[array] | None:
    """The ordering's coordinates, one array('I') each in position order, if
    it lists every vertex of g once (HammingGraph.vertex_columns); None
    otherwise."""
    if len(ordering) != g.vertex_count or (columns := g.vertex_columns(ordering)) is None:
        return None
    return columns if len(set(ordering)) == len(ordering) else None


def check_graceful(g: HammingGraph, ordering: Ordering) -> GracefulReport:
    """Check whether the consecutive labeling f(x_i) = i is a radio labeling.

    Equivalent to validate() on that labeling: the only pairs that can fail
    are those within a window of diam(G) - 1 positions, and the scan stops
    at the first pair that fails.  Raises LabelingError if the ordering is
    not a bijection onto V(g).
    """
    if (columns := _bijection_columns(g, ordering)) is None:
        raise LabelingError(f"ordering is not a bijection onto the vertices of {g}")
    flagged = _window_violations(columns, range(len(ordering)), g.diameter)
    return GracefulReport(graceful=next(flagged, None) is None)


def next_label(labels: Sequence[int], dist_back: Callable[[int], int], diam: int) -> int:
    """Smallest label above labels[-1] that meets the radio condition.

    labels are those of the vertices placed so far, in increasing order, and
    dist_back(j) is the distance from the new vertex to the one labeled
    labels[j].  Scans back from the last label and stops at the first one
    at least diam below the candidate: that gap and every earlier one
    already satisfy the condition.  With nothing placed the label is 1.
    """
    if not labels:
        return 1
    label = labels[-1] + 1
    for j in range(len(labels) - 1, -1, -1):
        prev = labels[j]
        if prev <= label - diam:
            break
        need = prev + diam + 1 - dist_back(j)
        if need > label:
            label = need
    return label


def span_of_ordering(g: HammingGraph, ordering: Ordering) -> tuple[RadioLabeling, int]:
    """Tightest labeling that respects the given vertex order.

    Assigns f(x_1) = 1 and then gives each vertex the smallest label above
    its predecessor's that satisfies the radio condition against all earlier
    vertices (next_label).  No labeling that is monotone in this order can
    have a smaller span: lowering any label breaks a constraint with an
    earlier vertex.  A radio graceful ordering (check_graceful) gets the
    labels 1..N without the greedy loop, which would assign them too.
    Raises LabelingError if the ordering is not a bijection onto V(g).
    Returns (labeling, span).
    """
    labels: Sequence[int] = range(1, len(ordering) + 1)
    if not check_graceful(g, ordering).graceful:
        labels = greedy_labeler(g.diameter)(ordering)
    return dict(zip(ordering, labels)), labels[-1]


def greedy_labeler(diam: int) -> Callable[[Iterable[Vertex]], array]:
    """The greedy (next_label) of an ordering in runs of rows: each call
    labels the next run and returns its labels, one array('q').  The labels
    increase, so it keeps only the last diam - 1 rows, all next_label reads."""
    labels: deque[int] = deque(maxlen=max(diam - 1, 1))
    placed: deque[Vertex] = deque(maxlen=labels.maxlen)

    def label_run(rows: Iterable[Vertex]) -> array:
        run = array("q")
        for v in rows:
            label = next_label(labels, lambda j: hamming(placed[j], v), diam)
            labels.append(label)
            placed.append(v)
            run.append(label)
        return run

    return label_run


def label_walk(g: HammingGraph) -> Iterator[list[Sequence[int]]]:
    """block_columns(g) where walk_is_graceful(g), its positions the tight
    labels; otherwise its blocks with greedy_labeler's labels in place of
    the positions, a block per run.  Raises GraphError at the call."""
    walk = block_columns(g)
    if walk_is_graceful(g):
        return walk
    label = greedy_labeler(g.diameter)
    return ([*block, label(zip(*block))] for *block, _ in walk)


def read_labeling_csv(source: Union[str, TextIO]) -> RadioLabeling:
    """Read a labeling from CSV with header "vertex,label".

    Vertices use the "(i,j,k)" text form, and a path is read as UTF-8 with
    or without a byte-order mark.  Raises LabelingError on malformed content;
    whether the labeling is total over a graph is checked by validate().
    """
    if isinstance(source, str):
        with open(source, newline="", encoding="utf-8-sig") as fh:
            try:
                return read_labeling_csv(fh)
            except UnicodeDecodeError as exc:
                raise LabelingError(f"{source!r} is not utf-8 text: {exc.reason}") from None
    try:
        reader = csv.reader(source)
        _read_header(reader)
        return _add_rows(reader)
    except csv.Error as exc:  # e.g. a field above csv.field_size_limit()
        raise LabelingError(f"malformed labeling CSV: {exc}") from None


def _canonical_columns(chunk: list[str]) -> list[list[int]] | None:
    """The columns of chunk's rows, its coordinates and then its labels, if
    every line is a row "(d,...,d)",d of one dimension, in ASCII digits
    without leading zeros, ended by an optional CR and a newline, or the
    end of the text; None otherwise.

    Such rows are what the csv reader would make of them, parsed in bulk:
    one regex match for the chunk and one JSON array for its numbers.  The
    field size limit is left to the csv reader, and a row of the chunk may
    still repeat a vertex.
    """
    dimension = chunk[0].count(",")
    text = "".join(chunk)
    row = r'"\(' + ",".join(["[0-9]+"] * dimension) + r'\)",[0-9]+\r?(?:\n|\Z)'
    if not (
        dimension
        and max(map(len, chunk)) <= csv.field_size_limit()
        and re.fullmatch(f"(?:{row})*", text)
    ):
        return None
    numbers = text.replace('"(', "").replace(')"', "").replace("\r", "").replace("\n", ",")
    try:
        values = json.loads(f"[{numbers.rstrip(',')}]")
    except ValueError:  # a leading zero, or more digits than int() takes
        return None
    return [values[c :: dimension + 1] for c in range(dimension + 1)]


def _read_header(reader) -> None:
    try:
        header = next(reader)
    except StopIteration:
        raise LabelingError("empty labeling file") from None
    if [h.strip().lower() for h in header] != ["vertex", "label"]:
        raise LabelingError(f"expected header 'vertex,label', got {header!r}")


def _add_rows(reader) -> RadioLabeling:
    labeling: RadioLabeling = {}
    for row in reader:
        if not row:
            continue
        if len(row) != 2:
            raise LabelingError(f"malformed labeling row {row!r}")
        try:
            vertex = parse_vertex(row[0])
        except GraphError as exc:
            raise LabelingError(str(exc)) from None
        try:
            label = int(row[1])
        except ValueError:
            raise LabelingError(f"malformed label {row[1]!r}") from None
        if vertex in labeling:
            raise LabelingError(f"vertex {format_vertex(vertex)} labeled twice")
        labeling[vertex] = label
    return labeling


def verify_labeling_csv(g: HammingGraph, path: str) -> ValidationReport:
    """validate(g, read_labeling_csv(path)), its report and its errors,
    holding one int per row where it can.

    A regular file of canonical chunks (_canonical_columns) that labels
    every vertex of g once, with positive labels, is read as one key per
    row, label * N + the vertex's mixed-radix index, its first coordinate
    most significant: sorted, the keys are validate's (label, vertex)
    order.  Any other file, and so every file that ends in an error, is
    read from its first line by read_labeling_csv and validated; a pipe is
    read by them alone, as it cannot be read twice.
    """
    report = _verify_canonical(g, path) if os.path.isfile(path) else None
    return validate(g, read_labeling_csv(path)) if report is None else report


def _verify_canonical(g: HammingGraph, path: str) -> ValidationReport | None:
    sizes, n = g.factor_sizes, g.vertex_count
    keys: list[int] = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            lines = iter(fh)
            _read_header(csv.reader(lines))
            while chunk := list(islice(lines, _CSV_ROWS)):
                columns = _canonical_columns(chunk)
                if columns is None or len(columns) != len(sizes) + 1:
                    return None
                *coordinates, labels = columns
                if min(labels) < 1 or not all(
                    min(column) >= 1 and max(column) <= size
                    for column, size in zip(coordinates, sizes)
                ):
                    return None
                keys.extend(_vertex_keys(g, labels, coordinates))
                if len(keys) > n:  # a repeated vertex
                    return None
    except (LabelingError, UnicodeDecodeError, csv.Error):
        return None
    if len(keys) < n:
        return None
    seen = bytearray(n)
    for index in map(mod, keys, repeat(n)):
        seen[index] = 1
    if 0 in seen:  # n rows leave a vertex unseen iff they repeat one
        return None
    return _key_report(g, keys)


def csv_vertex_template(dimension: int) -> str:
    """vertex_template as csv.writer writes it: quoted when it holds a comma."""
    template = vertex_template(dimension)
    return f'"{template}"' if dimension > 1 else template


def write_csv_rows(out: TextIO, row: str, rows: Iterable[Sequence]) -> None:
    """Write row % tuple(r) for every row r of rows, one %-format per chunk
    of _CSV_ROWS rows.  With %s fields, ints and a csv_vertex_template,
    that is csv.writer's text for the same rows."""
    fields = row.count("%s")
    values = chain.from_iterable(rows)
    while chunk := tuple(islice(values, fields * _CSV_ROWS)):
        out.write(row * (len(chunk) // fields) % chunk)


def write_labeling_csv(target: Union[str, TextIO], labeling: RadioLabeling) -> None:
    """Write a labeling, its vertices of one dimension, as CSV rows sorted
    by (label, vertex)."""
    if isinstance(target, str):
        with open(target, "w", newline="", encoding="utf-8") as fh:
            write_labeling_csv(fh, labeling)
        return
    target.write("vertex,label\n")
    if not labeling:
        return
    dimension = len(next(iter(labeling)))
    if set(map(len, labeling)) != {dimension}:
        raise TypeError("the vertices of a labeling must have one dimension")
    pairs = sorted(zip(labeling.values(), labeling))
    rows = map(add, map(itemgetter(1), pairs), zip(map(itemgetter(0), pairs)))  # (*vertex, label)
    write_csv_rows(target, f"{csv_vertex_template(dimension)},%s\n", rows)
