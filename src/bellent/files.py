"""Reading and writing the package's files, and the log of one invocation.

`writing` opens every output and `read_text` reads every input, as `recording_reads` logs.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from .errors import MissingDataError, ParameterError, ParseError

# 17 significant digits round-trips any double exactly
_FLOAT_SPEC = ".17g"
# the text of `format_float` as a %-format field
FLOAT_FIELD = "%" + _FLOAT_SPEC
# rows per %-formatting pass in write_table: its tuple and text stay small,
# whatever the length of the table
_LINES_PER_PASS = 4096


def format_float(x: float) -> str:
    """The package's one text form of a float in written files."""
    return format(float(x), _FLOAT_SPEC)


@contextlib.contextmanager
def writing(path):
    """The file at path open for UTF-8 text; an OSError raises MissingDataError.

    Within `recording_reads`, a path naming a file already read raises
    ParameterError before anything is opened, and each opened path is logged.
    """
    log = _io_log.get()
    if log is not None and any(_same_file(path, read) for read in log[0]):
        raise ParameterError(f"refusing to write {path}: this command read it")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            if log is not None:
                log[1].append(path)
            yield fh
    except OSError as exc:
        raise MissingDataError(f"cannot write {path}: {exc.strerror}") from None


def write_table(path, header: str, columns) -> None:
    """A CSV file: the header line, then row i of the equal-length columns per line.

    Each value is written in the text of `format_float`.  Fixed slices of
    rows are formatted in one `%` pass each, which is faster than a call per
    value and holds one slice's text at a time.
    """
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    line = ",".join([FLOAT_FIELD] * table.shape[1]) + "\n"
    with writing(path) as fh:
        fh.write(header + "\n")
        for lo in range(0, len(table), _LINES_PER_PASS):
            chunk = table[lo:lo + _LINES_PER_PASS]
            fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))


def write_json(path, obj) -> None:
    """obj as indented JSON and a newline, to the file at path (stdout for None)."""
    text = json.dumps(obj, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with writing(path) as fh:
            fh.write(text)


def sidecar_path(path) -> Path:
    """`<path>.json`, the metadata file beside a samples file or count table."""
    return Path(f"{path}.json")


# the open log of `recording_reads`: (path -> sha256 of the bytes read,
# the paths `writing` opened)
_io_log = contextvars.ContextVar("bellent_io_log", default=None)


def _same_file(a, b) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist
        return False


@contextlib.contextmanager
def recording_reads():
    """Log, for the block, each file that `read_text` reads and `writing` opens.

    Yields the dict of path, as the loader gave it, -> hex sha256 of the
    bytes read, in read order, and the list of paths written, in open
    order.  Outside the block nothing is recorded.
    """
    token = _io_log.set(({}, []))
    try:
        yield _io_log.get()
    finally:
        _io_log.reset(token)


def read_text(path, what: str) -> str:
    """The UTF-8 text of a file the package reads; `what` names it in errors.

    The bytes are read once, their newlines translated as text mode does,
    and within `recording_reads` their digest is logged under `str(path)`.
    MissingDataError when there is no such file or it cannot be read;
    ParseError, with the line, when its bytes are not UTF-8.
    """
    key, path = str(path), Path(path)
    try:
        data = path.read_bytes()
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}: {what} is not UTF-8 text", line=line) from None
    except (FileNotFoundError, IsADirectoryError):
        raise MissingDataError(f"no such {what}: {path}") from None
    except OSError as exc:
        raise MissingDataError(f"cannot read {what} {path}: {exc.strerror}") from None
    log = _io_log.get()
    if log is not None:
        log[0][key] = hashlib.sha256(data).hexdigest()
    if "\r" in text:  # a two-character replace scans slowly even when nothing matches
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def data_lines(lines) -> list:
    """The line numbers of the non-blank lines after the header, `lines[0]`."""
    return [n for n, line in enumerate(lines[1:], start=2) if line.strip()]


def read_table(path, header: str, what: str) -> np.ndarray:
    """The (rows, k) floats of a `write_table` file of the k columns in `header`.

    Blank lines are skipped.  A wrong header, a row of other than k fields, a bad
    or non-finite number, and a file without rows raise ParseError (with the line).
    """
    lines = read_text(path, what).splitlines()
    if not lines or lines[0] != header:
        raise ParseError(f"{path}: expected header {header!r}", line=1)
    k = header.count(",") + 1
    try:  # one float pass over a one-column table; float() fails on a comma or a blank
        if k > 1:
            raise ValueError
        table = np.fromiter(map(float, lines[1:]), float, len(lines) - 1).reshape(-1, 1)
    except ValueError:  # row by row: skip blanks, name the first faulty row
        table = []
        for n in data_lines(lines):
            fields = lines[n - 1].split(",")
            try:
                if len(fields) != k:
                    raise ValueError(f"expected {k} fields, got {len(fields)}")
                table.extend(map(float, fields))
            except ValueError as exc:
                raise ParseError(f"{path}: {exc}", line=n) from None
        table = np.array(table).reshape(-1, k)
    if not table.size:
        raise ParseError(f"{path}: no data rows")
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():  # the line is looked up on this path only
        raise ParseError(f"{path}: non-finite value", line=data_lines(lines)[finite.argmin()])
    return table


def read_json_object(path, what: str) -> dict:
    """Top-level JSON object of a file; ParseError when it is not one."""
    try:
        obj = json.loads(read_text(path, what))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg}", line=exc.lineno) from None
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return obj


def json_field(obj: dict, key: str, convert, path, default=None):
    """convert(obj[key]), or `default` when the key is absent and one is given.

    Raises ParseError for a missing key without default and for a value
    `convert` rejects.  With `int`, a JSON float must be integral (2.0 reads
    as 2, 2.7 is refused rather than truncated) and a boolean is refused.
    """
    if key not in obj:
        if default is None:
            raise ParseError(f"{path}: missing {key!r}")
        return default
    value = obj[key]
    try:
        if convert is int and (isinstance(value, bool)
                               or isinstance(value, float) and not value.is_integer()):
            raise ValueError(f"expected an integer, got {json.dumps(value)}")
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: bad {key!r}: {exc}") from None
