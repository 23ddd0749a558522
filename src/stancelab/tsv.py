"""The one reader of text files, and the one line reader of tab-separated
text: rule files, manual labels and stage tables. A file loads whole, or
raises an error naming the file and the 1-based line.
"""

from __future__ import annotations

import codecs
from pathlib import Path
from typing import Callable


class StancelabError(Exception):
    """An error that names its cause; the command line prints it as one line."""


class RuleFileError(StancelabError):
    """A rule file or manual-label file that does not parse."""


def _newlines(text: str) -> str:
    """``text`` with each ``\\r\\n`` and each other ``\\r`` read as ``\\n``,
    as text mode reads them."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_text(path, error: type[Exception]) -> str:
    """The whole file ``path`` as UTF-8 text, its line ends read as ``\\n``.

    A file that cannot be read raises ``error`` as ``{path}: cannot read:
    {reason}``, and one that is not UTF-8 as ``{path}:{line}: not UTF-8
    text: {reason}``, naming the line of the first bad byte. A leading UTF-8
    byte-order mark is not data: it is dropped before decoding, so that the
    offset of a bad byte counts from the start of the text. Every file that
    stancelab reads goes through here but the corpus: ``load_corpus`` reads
    it line by line, and a line there that is not UTF-8 is one malformed
    line, counted against the corpus's tolerance, not a fault of the file.
    """
    try:
        data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc.strerror}") from None
    try:
        return _newlines(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = _newlines(data[:exc.start].decode("utf-8")).count("\n") + 1
        raise error(f"{path}:{line}: not UTF-8 text: {exc.reason}") from None


def repeat(first_lines: dict, ident, line: int, what: str) -> str | None:
    """None for a new ``ident``, which ``first_lines`` then maps to ``line``;
    else ``duplicate {what} identifier {ident!r} (first on line {first})``."""
    first = first_lines.setdefault(ident, line)
    return None if first == line else (f"duplicate {what} identifier "
                                       f"{ident!r} (first on line {first})")


def read_tsv(path, n_fields: int, parse, *, header: str | None = None,
             key: tuple[str, Callable] | None = None,
             error: type[Exception] = RuleFileError,
             contents: str | None = None) -> list:
    """``parse(*fields)`` of each data line of ``path``, in file order.

    Blank lines and lines whose first non-blank character is ``#`` are
    skipped. With ``header``, the first line not skipped must equal it, and
    every later line is data. A file that :func:`read_text` refuses, a line
    that does not split on tabs into ``n_fields`` fields, a blank field, a
    line that ``parse`` rejects with ``ValueError``, or, with ``key`` as
    ``(what, ident)``, a line whose ``ident(parse(*fields))`` an earlier
    line had (:func:`repeat`) raises ``error``. ``contents``, when given,
    are read in place of the file's (as the file holding them would read),
    and ``path`` only names the file in errors.
    """
    text = read_text(path, error) if contents is None else _newlines(contents)
    rows = []
    first_lines: dict = {}
    for lineno, line in enumerate(text.split("\n"), 1):
        if line.lstrip()[:1] in ("", "#"):
            continue
        try:
            if header is not None:
                if line != header:
                    raise ValueError(f"expected header {header!r}")
                header = None
                continue
            fields = line.split("\t")
            if len(fields) != n_fields:
                raise ValueError(f"expected {n_fields} tab-separated "
                                 f"fields, found {len(fields)}")
            if not all(field.strip() for field in fields):
                raise ValueError("blank field")
            rows.append(parse(*fields))
            if key and (fault := repeat(first_lines, key[1](rows[-1]),
                                        lineno, key[0])):
                raise ValueError(fault)
        except ValueError as exc:
            raise error(f"{path}:{lineno}: {exc}: {line!r}") from None
    if header is not None:
        raise error(f"{path}: no header line {header!r}")
    return rows
