"""Text, JSON and CSV emission for verdicts and decomposition matrices.

Text forms: a simple label prints as ``D(21,13|2)<5>``, summands join
with `` (+) ``, uniserial layers join with `` | `` socle leftmost, and
diagram summands print their vertex list and below<above edge list.
"""

import csv
import io
import json
from collections.abc import Iterator
from itertools import chain

from .fock import ABOVE, DecompositionMatrix
from .partitions import format_bipartition, is_bihook
from .structure import DIAGRAM, SEMISIMPLE, UNISERIAL, SimpleLabel, Summand, Verdict

# the JSON key of each summand kind's labels
_LABEL_KEY = {SEMISIMPLE: "factors", UNISERIAL: "layers", DIAGRAM: "factors"}


def label_text(lab: SimpleLabel) -> str:
    return f"D({format_bipartition(lab.bipartition)})<{lab.shift}>"


def label_obj(lab: SimpleLabel) -> dict:
    return {"bipartition": format_bipartition(lab.bipartition), "shift": lab.shift}


def summand_obj(s: Summand) -> dict:
    out = {"type": s.kind, _LABEL_KEY[s.kind]: [label_obj(x) for x in s.labels]}
    if s.kind == DIAGRAM:
        out["edges"] = [list(edge) for edge in s.edges]
    return out


def verdict_obj(v: Verdict) -> dict:
    out = {"verdict": v.status, "notes": list(v.notes)}
    if v.structure is not None:
        out["summands"] = [summand_obj(s) for s in v.structure.summands]
    if v.composition is not None:
        out["composition"] = [label_obj(x) for x in v.composition]
    return out


def summand_text(s: Summand) -> str:
    if s.kind == DIAGRAM:
        verts = ", ".join(f"v{i}={label_text(x)}" for i, x in enumerate(s.labels))
        edges = ", ".join(f"v{a}<v{b}" for a, b in s.edges)
        return f"diagram{{{verts}; edges {edges}}}"
    sep = " | " if s.kind == UNISERIAL else " (+) "
    return sep.join(label_text(x) for x in s.labels)


def verdict_text(v: Verdict) -> str:
    lines = [f"verdict: {v.status}"]
    if v.structure is not None:
        lines.append("  " + " (+) ".join(summand_text(s)
                                         for s in v.structure.summands))
    if v.composition is not None:
        lines.append("  composition factors: "
                     + ", ".join(label_text(x) for x in v.composition))
    for note in v.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def _selected_rows(matrix: DecompositionMatrix, rows: str) -> list[int]:
    """The ids of the rows that ``rows`` keeps, in decreasing dominance:
    "all" or "bihooks"; any other value is refused."""
    if rows not in ("all", "bihooks"):
        raise ValueError(f"rows must be 'all' or 'bihooks', got {rows!r}")
    return [sid for sid, lam in enumerate(matrix.rows())
            if rows == "all" or is_bihook(lam)]


def _row_texts(matrix: DecompositionMatrix, kept: list[int], field, plain, punct):
    """Each kept nonzero row's text, in the order of ``kept``, row ids.
    An entry is ``open + row + mid + column + mid + value + close``, a
    label encoded as ``field(format_bipartition(label))`` and a value as
    ``field(plain(value))``, and entries are joined by ``sep`` within and
    across rows.  One walk of the columns in decreasing dominance gives
    each row its tails ``column + mid + value + close`` in that order, in
    a list indexed by row id.  Each label and each entry object is encoded
    once (a matrix shares one object per distinct value), each tail made
    once per column and object, and a row's tails are dropped as its text
    is yielded."""
    open_, mid, close, sep = punct
    labels = matrix.rows()
    # per row id, its tails so far, or None for a row not kept
    tails_of: list = [None] * len(labels)
    for lam in kept:
        tails_of[lam] = []
    encoded: dict[int, str] = {}
    for mu, col in sorted(matrix.columns.items()):
        head = field(format_bipartition(labels[mu])) + mid
        tail_of: dict[int, str] = {}
        for lam, val in col.items():
            tails = tails_of[lam]
            if tails is not None:
                tail = tail_of.get(id(val))
                if tail is None:
                    text = encoded.get(id(val))
                    if text is None:
                        text = encoded[id(val)] = field(plain(val))
                    tail = tail_of[id(val)] = head + text + close
                tails.append(tail)
    lead = ""
    for lam in kept:
        tails, tails_of[lam] = tails_of[lam], None
        if tails:
            prefix = open_ + field(format_bipartition(labels[lam])) + mid
            yield lead + prefix + (sep + prefix).join(tails)
            lead = sep


def _csv_field(text: str) -> str:
    """One field as ``csv.writer`` writes it, quoted where needed."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


# The emitters return text pieces (a head, one per kept nonzero row, a
# tail) read off one walk of the columns: the whole output is never
# built, so a caller that writes each piece holds one row's text.

def matrix_csv(matrix: DecompositionMatrix, rows: str = "all") -> Iterator[str]:
    """The matrix as CSV lines ``row,column,entry`` under a header."""
    return chain(["row,column,entry\n"], _row_texts(
        matrix, _selected_rows(matrix, rows), _csv_field, str, ("", ",", "\n", "")))


def matrix_json_obj(matrix: DecompositionMatrix, rows: str = "all") -> dict:
    """The JSON object of the matrix, one entry at a time through
    ``matrix.row``: the plain route that ``matrix_json`` must match."""
    labels = matrix.rows()
    return {"e": matrix.e, "n": matrix.n, "convention": ABOVE, "entries": [
        [format_bipartition(labels[lam]), format_bipartition(mu), val.to_pairs()]
        for lam in _selected_rows(matrix, rows)
        for mu, val in matrix.row(labels[lam]).items()]}


def matrix_json(matrix: DecompositionMatrix, rows: str = "all") -> Iterator[str]:
    """The pieces of ``json.dumps(matrix_json_obj(matrix, rows))``."""
    head = json.dumps({"e": matrix.e, "n": matrix.n, "convention": ABOVE})
    return chain([f'{head[:-1]}, "entries": ['], _row_texts(
        matrix, _selected_rows(matrix, rows), json.dumps, lambda val: val.to_pairs(),
        ("[", ", ", "]", ", ")), ["]}"])
