"""Plain-text edge-list formats.

Adjacency file::

    n m
    i j          (one line per edge, 0-indexed, i < j; absent pairs are 0)

Observed (ternary) file::

    n m
    i j v        (one line per OBSERVED pair, v in {0, 1}; absent pairs are
                  unobserved)

read_graph tells the formats apart by the arity of the first pair line,
refuses a header whose n is not the config's before it allocates the n x n
matrix, and refuses a pair listed twice.  write_graph emits pairs in row-major
upper-triangle order, so output bytes are a pure function of the matrix.
The package's CSV and JSON text come from ``csv_text``, ``json_text`` and,
for row tables, ``table_text``; ``write_text`` writes every text artifact.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

from .generate import UNOBSERVED, Adjacency, ObservedMatrix, check_node_count


class GraphFormatError(ValueError):
    """Raised for malformed edge-list files."""


def csv_cell(value) -> str:
    """One CSV cell: booleans in lower case, floats as their exact repr."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_text(columns, rows, lineterminator: str) -> str:
    """The column names, then a line per row of csv_cell values, each ended by
    lineterminator; a cell holding a comma, quote or line break is quoted."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator=lineterminator).writerows(
        [columns, *(map(csv_cell, row) for row in rows)])
    return buffer.getvalue()


def json_text(value) -> str:
    """value as indented JSON with sorted keys, ending with a newline."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def table_text(dicts: list[dict], columns, fmt: str, lineterminator: str) -> str:
    """Row dicts as CSV text (the given columns, in order) or as JSON text."""
    if fmt == "csv":
        rows = ([d.get(col, "") for col in columns] for d in dicts)
        return csv_text(columns, rows, lineterminator)
    if fmt == "json":
        return json_text(dicts)
    raise ValueError(f"unknown format {fmt!r}")


def write_text(path, text: str) -> None:
    """Write an artifact's text to path as it is, line endings included."""
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write_graph(path, graph: Adjacency | ObservedMatrix) -> None:
    """Write an Adjacency as its edges ('i j') or an ObservedMatrix as its
    observed pairs ('i j v')."""
    observed = isinstance(graph, ObservedMatrix)
    m = graph.values if observed else graph.matrix
    iu, ju = np.nonzero(np.triu(m != (UNOBSERVED if observed else 0), k=1))
    columns = (iu, ju, m[iu, ju]) if observed else (iu, ju)
    pairs = zip(*(col.tolist() for col in columns))
    lines = [f"{graph.n} {iu.size}", *(" ".join(map(str, pair)) for pair in pairs)]
    write_text(path, "\n".join(lines) + "\n")


def _parse_header(lines: list[str]) -> int:
    """The node count n of an 'n m' header promising m pair lines."""
    if not lines:
        raise GraphFormatError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphFormatError(f"non-integer header {lines[0]!r}") from exc
    if n < 1 or m < 0:
        raise GraphFormatError(f"invalid header values n={n} m={m}")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"header promises {m} pair lines, found {len(lines) - 1}")
    return n


def _integer(token: str) -> int:
    """int(token); a non-integer token is a GraphFormatError with int()'s text."""
    try:
        return int(token)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def read_graph(path, n: int) -> Adjacency | ObservedMatrix:
    """Read either format, told apart by the arity of the first pair line,
    for a config of n nodes; a header of another node count is a
    ConfigError.  Every pair line must have that arity and name a pair not
    listed before."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    observed = len(lines) > 1 and len(lines[1].split()) == 3
    kind, form = ("observed", "'i j v'") if observed else ("adjacency", "'i j'")
    check_node_count(_parse_header(lines), n)
    unset = UNOBSERVED if observed else 0
    m = np.full((n, n), unset, dtype=np.int8)
    np.fill_diagonal(m, 0)
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2 + observed:
            raise GraphFormatError(f"{kind} lines must be {form}, got {ln!r}")
        i, j = _integer(parts[0]), _integer(parts[1])
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise GraphFormatError(f"pair ({i}, {j}) out of range for n = {n}")
        value = _integer(parts[2]) if observed else 1
        if value not in (0, 1):
            raise GraphFormatError(f"observed value must be 0 or 1, got {value}")
        if m[i, j] != unset:
            raise GraphFormatError(f"pair ({min(i, j)}, {max(i, j)}) listed twice")
        m[i, j] = m[j, i] = value
    return ObservedMatrix(m) if observed else Adjacency(m)
