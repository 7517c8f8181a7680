"""The rows of the ``cohomology`` command, written as the box streams.

Only ``cohomology`` writes rows, and every request is a fresh process, so
the writer lives apart from :mod:`toricdiff.complexes`: the checks, which
load that module, do not load this one.
"""

from __future__ import annotations

import json
from functools import lru_cache

from .complexes import _box_cohomology, _csv_form, _csv_header

__all__ = ["write_cohomology"]


def write_cohomology(out, cone, bound, char, form):
    """Write the cohomology of the box to ``out`` row by row as the box streams.

    ``form`` is text, csv or json, and the bytes are those of
    :class:`~toricdiff.complexes.CohomologyTable`: its CSV, its JSON plus a
    newline, or one ``(m): h=(h)`` line per degree.  The first row is
    located before anything is written, so a cone refused there (one that
    is not full dimensional) leaves ``out`` empty.
    """
    rows = _box_cohomology(cone, bound, char)
    m, h = next(rows)
    if form == "json":
        payload = {
            "rays": [list(r) for r in cone.rays],
            "characteristic": char,
            "bound": bound,
            "cohomology": [None],
        }
        # the document of one placeholder row, cut around that row
        head, tail = json.dumps(payload, indent=2, sort_keys=True).split("\n    null")
        row = _json_form
        first = (row(h) % m)[1:]  # no comma before the first block
        tail += "\n"
    else:
        head = _csv_header(cone.ambient_rank) if form == "csv" else ""
        row = _csv_form if form == "csv" else _text_form
        first, tail = row(h) % m, ""
    out.write(head + first)
    for m, h in rows:
        out.write(row(h) % m)
    out.write(tail)


@lru_cache(maxsize=64)
def _text_form(h):
    """The text line of a row with this h, as a ``%d`` format for its m."""
    return "(" + ",".join(["%d"] * (len(h) - 1)) + "): h=(" + ",".join(map(str, h)) + ")\n"


@lru_cache(maxsize=64)
def _json_form(h):
    """The JSON block of a row with this h and its leading comma, a ``%d`` format for its m.

    The block is the encoder's own output for the row, so its bytes are those
    of :meth:`~toricdiff.complexes.CohomologyTable.to_json`.
    """
    block = json.dumps({"degree": ["%d"] * (len(h) - 1), "h": list(h)}, indent=2, sort_keys=True)
    return ",\n    " + block.replace('"%d"', "%d").replace("\n", "\n    ")
