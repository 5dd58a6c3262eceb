"""The one writer of every file the program leaves behind.

Each file is written to `<path>.tmp` and renamed into place, so a run that
stops part way leaves the previous file whole; a log is appended to instead.
JSON and CSV each have one rendering, so identical inputs give identical bytes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os

import numpy as np


def write_atomic(path, write) -> None:
    """`write(fh)` to `<path>.tmp`, then rename it: a failure leaves `path` whole."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def open_append(path):
    """`path` opened to append UTF-8 text, created if missing: a log grows line by line."""
    return open(path, "a", encoding="utf-8")


def _numpy_value(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def json_text(obj) -> str:
    """Sorted, indented JSON and a final newline; numpy values render as lists or numbers."""
    return json.dumps(obj, indent=2, sort_keys=True, default=_numpy_value) + "\n"


def write_json(path, obj) -> None:
    data = json_text(obj).encode()
    write_atomic(path, lambda fh: fh.write(data))


def write_csv(path, rows, fields) -> None:
    """One row per dict of `rows`, in the columns `fields`; a key outside them raises."""
    buf = io.StringIO(newline="")
    writer = csv.DictWriter(buf, fieldnames=list(fields))
    writer.writeheader()
    writer.writerows(rows)
    data = buf.getvalue().encode()
    write_atomic(path, lambda fh: fh.write(data))
