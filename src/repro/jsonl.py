"""Appending to JSON-lines files that a killed writer may have torn.

The result store (:mod:`repro.service.cache`) and the sweep records
(:mod:`repro.explore.records`) both append one JSON document per line
and skip unreadable lines on read.
"""

from __future__ import annotations

import os


def append_line(path: str | os.PathLike[str], text: str) -> None:
    """Append ``text`` and a newline to ``path``, flushed immediately.

    When a writer killed mid-line left a torn last line, ``text`` starts
    on a new line rather than being glued to the fragment, which would
    make both unreadable.
    """
    line = text.encode("utf-8") + b"\n"
    with open(path, "a+b") as handle:
        end = handle.seek(0, os.SEEK_END)
        if end:
            handle.seek(end - 1)
            if handle.read(1) != b"\n":
                line = b"\n" + line
        handle.write(line)
        handle.flush()
