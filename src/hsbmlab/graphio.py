"""Plain-text edge-list formats.

Adjacency file::

    n m
    i j          (one line per edge, 0-indexed, i < j; absent pairs are 0)

Observed (ternary) file::

    n m
    i j v        (one line per OBSERVED pair, v in {0, 1}; absent pairs are
                  unobserved)

Writers emit pairs in row-major upper-triangle order, so output bytes are a
pure function of the matrix.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .generate import UNOBSERVED, Adjacency, ObservedMatrix


class GraphFormatError(ValueError):
    """Raised for malformed edge-list files."""


def _open_for_write(path):
    if hasattr(path, "write"):
        return path, False
    return open(path, "w"), True


def write_adjacency(path, adj: Adjacency) -> None:
    fh, close = _open_for_write(path)
    try:
        iu, ju = np.nonzero(np.triu(adj.matrix, k=1))
        fh.write(f"{adj.n} {iu.size}\n")
        for i, j in zip(iu.tolist(), ju.tolist()):
            fh.write(f"{i} {j}\n")
    finally:
        if close:
            fh.close()


def write_observed(path, obs: ObservedMatrix) -> None:
    fh, close = _open_for_write(path)
    try:
        upper = np.triu(np.ones_like(obs.values, dtype=bool), k=1)
        iu, ju = np.nonzero(upper & (obs.values != UNOBSERVED))
        fh.write(f"{obs.n} {iu.size}\n")
        vals = obs.values[iu, ju]
        for i, j, v in zip(iu.tolist(), ju.tolist(), vals.tolist()):
            fh.write(f"{i} {j} {v}\n")
    finally:
        if close:
            fh.close()


def _read_lines(path) -> list[str]:
    if hasattr(path, "read"):
        text = path.read()
    else:
        text = Path(path).read_text()
    return [ln for ln in text.splitlines() if ln.strip()]


def _parse_header(lines: list[str]):
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
    return n, m


def _parse_pair(parts: list[str], n: int):
    i, j = int(parts[0]), int(parts[1])
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise GraphFormatError(f"pair ({i}, {j}) out of range for n = {n}")
    return min(i, j), max(i, j)


def _parse_adjacency(lines: list[str]) -> Adjacency:
    n, _ = _parse_header(lines)
    m = np.zeros((n, n), dtype=np.int8)
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"adjacency lines must be 'i j', got {ln!r}")
        i, j = _parse_pair(parts, n)
        m[i, j] = m[j, i] = 1
    return Adjacency(m)


def _parse_observed(lines: list[str]) -> ObservedMatrix:
    n, _ = _parse_header(lines)
    v = np.full((n, n), UNOBSERVED, dtype=np.int8)
    np.fill_diagonal(v, 0)
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise GraphFormatError(f"observed lines must be 'i j v', got {ln!r}")
        i, j = _parse_pair(parts, n)
        val = int(parts[2])
        if val not in (0, 1):
            raise GraphFormatError(f"observed value must be 0 or 1, got {val}")
        v[i, j] = v[j, i] = val
    return ObservedMatrix(v)


def read_adjacency(path) -> Adjacency:
    return _parse_adjacency(_read_lines(path))


def read_observed(path) -> ObservedMatrix:
    return _parse_observed(_read_lines(path))


def read_graph(path) -> Adjacency | ObservedMatrix:
    """Auto-detect the file type from the pair-line arity."""
    lines = _read_lines(path)
    if len(lines) > 1 and len(lines[1].split()) == 3:
        return _parse_observed(lines)
    return _parse_adjacency(lines)
