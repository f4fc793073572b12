"""Reading and writing the package's files, and the log of one invocation.

`writing` opens every output, and `read_text` or `read_lines` reads every
input, as `recording_reads` logs.  A table (`read_table`, and the count
files of `expdata.load_cc`) is read once, in `read_lines` passes of one
fixed block of bytes, so what a load holds besides its result does not
grow with the file; a pass that cannot be converted a column at a time is
walked row by row where it stands, which names its faulty line.
"""

from __future__ import annotations

import codecs
import contextlib
import contextvars
import hashlib
import json
import os
import sys
from array import array
from itertools import chain
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
# bytes per read of read_lines: the text and lines of one block stay small,
# whatever the size of the file
_BLOCK_BYTES = 1 << 16
# the characters at which str.splitlines ends a line
_LINE_ENDS = frozenset("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


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
    """Log, for the block, each file that `read_text` or `read_lines` reads and `writing` opens.

    Yields the dict of path, as the loader gave it, -> hex sha256 of the
    bytes read, in read order, and the list of paths written, in open
    order.  Outside the block nothing is recorded.
    """
    token = _io_log.set(({}, []))
    try:
        yield _io_log.get()
    finally:
        _io_log.reset(token)


@contextlib.contextmanager
def _reading(path, what: str):
    """Within the block, an OSError raises MissingDataError naming `what`."""
    try:
        yield
    except (FileNotFoundError, IsADirectoryError):
        raise MissingDataError(f"no such {what}: {path}") from None
    except OSError as exc:
        raise MissingDataError(f"cannot read {what} {path}: {exc.strerror}") from None


def read_text(path, what: str) -> str:
    """The UTF-8 text of a file the package reads; `what` names it in errors.

    The bytes are read once, their newlines translated as text mode does;
    only within `recording_reads` are they hashed, logged under `str(path)`.
    MissingDataError when there is no such file or it cannot be read;
    ParseError, with the line, when its bytes are not UTF-8.
    """
    key, path, log = str(path), Path(path), _io_log.get()
    with _reading(path, what):
        data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((exc.object[:exc.start] + b".").splitlines())  # CR and CRLF end a line too
        raise ParseError(f"{path}: {what} is not UTF-8 text", line=line) from None
    if log is not None:
        log[0][key] = hashlib.sha256(data).hexdigest()
    if "\r" in text:  # a two-character replace scans slowly even when nothing matches
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def read_lines(path, what: str):
    """Yield the lines of a file a block at a time, as non-empty lists whose
    concatenation is `read_text(path, what).splitlines()`.

    The file is read in binary blocks of `_BLOCK_BYTES` and decoded as UTF-8
    incrementally.  When the read starts within `recording_reads`, each
    block is fed to a sha256, logged as `read_text` logs it once the last
    block is read; outside a log nothing is hashed.  A block's complete
    lines are split by `str.splitlines`, which ends a line at CRLF and at a
    lone CR as text mode's translation to LF does; the line that a block
    leaves open, and a CR that ends a block (it may begin a CRLF), go on in
    the next.
    MissingDataError as `read_text`; ParseError when the bytes are not
    UTF-8, naming the line as `str.splitlines` counts them.
    """
    key, path, log = str(path), Path(path), _io_log.get()
    digest = None if log is None else hashlib.sha256()
    decode = codecs.getincrementaldecoder("utf-8")().decode
    carry, seen = "", 0
    try:
        with _reading(path, what), open(path, "rb") as fh:
            while block := fh.read(_BLOCK_BYTES):
                if digest is not None:
                    digest.update(block)
                text = carry + decode(block)
                lines = text.splitlines()
                end = text[-1:]
                # the last line waits for the next block when no line end follows
                # it, or when a CR does, which may begin a CRLF
                if end == "\r":
                    carry = lines.pop() + end
                elif end and end not in _LINE_ENDS:
                    carry = lines.pop()
                else:
                    carry = ""
                if lines:
                    seen += len(lines)
                    yield lines
        lines = (carry + decode(b"", True)).splitlines()
    except UnicodeDecodeError as exc:
        line = seen + len((carry + exc.object[:exc.start].decode() + ".").splitlines())
        raise ParseError(f"{path}: {what} is not UTF-8 text", line=line) from None
    if lines:
        yield lines
    if digest is not None:
        log[0][key] = digest.hexdigest()


def table_passes(path, header: str, what: str):
    """The lines after `header` as an iterator of `read_lines` passes, the
    first of which may be empty; ValueError when the file's first line is
    not `header` (an empty file has none)."""
    passes = read_lines(path, what)
    first = next(passes, [None])
    if first[0] != header:
        raise ValueError("not the header")
    return chain([first[1:]], passes)


def _rows(lines, k: int):
    """The floats of rows of k fields, flat; ValueError for the first that is not."""
    fields = [line.split(",") for line in lines]
    for row in fields:
        if len(row) != k:
            raise ValueError(f"expected {k} fields, got {len(row)}")
    return map(float, chain.from_iterable(fields))


def read_table(path, header: str, what: str) -> np.ndarray:
    """The (rows, k) floats of a `write_table` file of the k columns in `header`.

    Blank lines are skipped.  A wrong header, a row of other than k fields, a bad
    or non-finite number, and a file without rows raise ParseError (with the line).
    The file is read once, in `table_passes`, into one growing buffer.  A pass
    is converted in one `float` pass; one that cannot be (a blank line, a
    faulty row) is walked row by row, which names the first faulty line.
    Non-finite values are looked for once every row has parsed.
    """
    k = header.count(",") + 1
    try:
        passes = table_passes(path, header, what)
    except ValueError:
        raise ParseError(f"{path}: expected header {header!r}", line=1) from None
    # blanks: the rows before each blank line; row r is on line r + 2 + the blanks up to r
    table, blanks = array("d"), []
    for lines in passes:
        try:  # float() fails on a comma or a blank
            values = map(float, lines) if k == 1 else _rows(lines, k)
            table.frombytes(np.fromiter(values, float, k * len(lines)).tobytes())
        except ValueError:
            for row in lines:
                try:
                    if row.strip():
                        table.fromlist(list(_rows([row], k)))
                    else:
                        blanks.append(len(table) // k)
                except ValueError as exc:
                    raise ParseError(f"{path}: {exc}",
                                     line=len(table) // k + len(blanks) + 2) from None
    if not table:
        raise ParseError(f"{path}: no data rows")
    table = np.asarray(table).reshape(-1, k)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        row = int(finite.argmin())
        raise ParseError(f"{path}: non-finite value",
                         line=row + 2 + int(np.searchsorted(blanks, row, "right")))
    return table


def read_json_object(path, what: str) -> dict:
    """Top-level JSON object of a file; ParseError when it is not one."""
    try:
        obj = json.loads(read_text(path, what))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg}", line=exc.lineno) from None
    except ValueError as exc:  # an integer over int's 4,300-digit string limit
        raise ParseError(f"{path}: {str(exc).partition(';')[0]}") from None
    except RecursionError:  # arrays or objects nested deeper than the decoder recurses
        raise ParseError(f"{path}: JSON nested too deeply") from None
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return obj


# what json_field names and the Python types that JSON gives, per convert
# that takes only its JSON type; a bool is an int in Python and is refused
_JSON_TYPES = {int: ("an integer", (int, float)), float: ("a number", (int, float)),
               str: ("a string", (str,))}


def json_field(obj: dict, key: str, convert, path, default=None):
    """convert(obj[key]), or `default` when the key is absent and one is given.

    Raises ParseError for a missing key without default and for a value
    `convert` rejects.  With `int`, `float` or `str`, the value must have the
    JSON type: a number for `int` and `float` (never a boolean), a string for
    `str`; with `int`, a JSON float must be integral (2.0 reads as 2, 2.7 is
    refused rather than truncated).
    """
    if key not in obj:
        if default is None:
            raise ParseError(f"{path}: missing {key!r}")
        return default
    value = obj[key]
    try:
        if convert in _JSON_TYPES:
            expected, types = _JSON_TYPES[convert]
            if (isinstance(value, bool) or not isinstance(value, types)
                    or convert is int and isinstance(value, float) and not value.is_integer()):
                raise ValueError(f"expected {expected}, got {json.dumps(value)}")
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: bad {key!r}: {exc}") from None
