"""The one line reader of tab-separated text: rule files, manual labels and
stage tables. A file loads whole, or raises an error naming the file and the
1-based line.
"""

from __future__ import annotations

import io


class RuleFileError(Exception):
    """A rule file or manual-label file that does not parse."""


def read_tsv(path, n_fields: int, parse, *, header: str | None = None,
             error: type[Exception] = RuleFileError,
             contents: str | None = None) -> list:
    """``parse(*fields)`` of each data line of ``path``, in file order.

    Blank lines and lines whose first non-blank character is ``#`` are
    skipped. With ``header``, the first line not skipped must equal it, and
    every later line is data. A line that does not split on tabs into
    ``n_fields`` fields, a blank field, or a line that ``parse`` rejects
    with ``ValueError`` raises ``error``. ``contents``, when given, are read
    in place of the file's (as the file holding them would read), and
    ``path`` only names the file in errors.
    """
    rows = []
    with (open(path, encoding="utf-8") if contents is None
          else io.StringIO(contents, newline=None)) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.rstrip("\n")
            if text.lstrip()[:1] in ("", "#"):
                continue
            try:
                if header is not None:
                    if text != header:
                        raise ValueError(f"expected header {header!r}")
                    header = None
                    continue
                fields = text.split("\t")
                if len(fields) != n_fields:
                    raise ValueError(f"expected {n_fields} tab-separated "
                                     f"fields, found {len(fields)}")
                if not all(field.strip() for field in fields):
                    raise ValueError("blank field")
                rows.append(parse(*fields))
            except ValueError as exc:
                raise error(f"{path}:{lineno}: {exc}: {text!r}") from None
    if header is not None:
        raise error(f"{path}: no header line {header!r}")
    return rows
