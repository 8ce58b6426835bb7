"""Every file the package writes goes to a path or an open text stream
(:func:`opened`), and every CSV through :func:`write_rows`.  A value is
written as its ``str``, so a float is its ``repr`` and reads back bit for
bit; ``None`` is an empty cell.  Lines end in ``\\n`` alone."""

import contextlib
from typing import Iterable, Sequence

import numpy as np

from .errors import SizeMismatch


@contextlib.contextmanager
def opened(target):
    """``target`` if it is a text stream (it has ``write``), else the file
    at the path ``target``, opened for writing and closed after."""
    if hasattr(target, "write"):
        yield target
    else:
        with open(target, "w", newline="") as fh:
            yield fh


def _cells(values) -> list[str]:
    """A numpy array's values through one ``tolist()``, which makes them
    Python ints and floats, then ``str`` of each; a numpy float scalar is
    ``repr`` of its float."""
    if isinstance(values, np.ndarray):
        return list(map(str, values.tolist()))
    return ["" if v is None else repr(float(v)) if isinstance(v, np.floating) else str(v)
            for v in values]


def write_rows(target, comments: Sequence[str], names: Sequence[str],
               blocks: Iterable[Sequence]) -> None:
    """Write a ``# `` line per comment, the column names, then the rows of
    each block: a column per name, each a numpy array or a sequence of
    Python values, all of one length, else ``SizeMismatch``.  The first
    block is checked before the target is opened."""
    def rows(columns) -> str:
        cells = [_cells(column) for column in columns]
        if len(cells) != len(names) or len({len(c) for c in cells}) > 1:
            raise SizeMismatch(f"{len(names)} column names for columns of lengths "
                               f"{[len(c) for c in cells]}")
        return "\n".join([*map(",".join, zip(*cells)), ""])

    lines = map(rows, blocks)
    first = next(lines, "")
    with opened(target) as fh:
        fh.writelines(f"# {line}\n" for line in comments)
        fh.write(",".join(names) + "\n")
        fh.write(first)
        fh.writelines(lines)


def write_csv(target, header: dict, names: Sequence[str], columns: Sequence) -> None:
    """:func:`write_rows` of one block under one ``# key=value ...`` line."""
    line = " ".join(f"{k}={v}" for k, v in zip(header, _cells(header.values())))
    write_rows(target, [line], names, [columns])
