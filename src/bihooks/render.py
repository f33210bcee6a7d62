"""Text, JSON and CSV emission for verdicts and decomposition matrices.

Text forms: a simple label prints as ``D(21,13|2)<5>``, summands join
with `` (+) ``, uniserial layers join with `` | `` socle leftmost, and
diagram summands print their vertex list and below<above edge list.
"""

import csv
import io
import json

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


def _matrix_rows(matrix: DecompositionMatrix, rows: str,
                 label=format_bipartition):
    """(row label, [(column label, entry), ...]) for each kept nonzero row,
    in the order of ``matrix.rows()`` and ``matrix.row``: rows and each
    row's columns in decreasing dominance.  ``label`` encodes each label
    once.  ``rows`` is "all" or "bihooks"; any other value is refused."""
    if rows not in ("all", "bihooks"):
        raise ValueError(f"rows must be 'all' or 'bihooks', got {rows!r}")
    text_of = {mu: label(mu) for mu in matrix.regulars()}
    for lam in matrix.rows():
        if rows == "bihooks" and not is_bihook(lam):
            continue
        entries = matrix.row(lam)
        if entries:
            yield label(lam), [(text_of[mu], val) for mu, val in entries.items()]


def _encoded_rows(matrix: DecompositionMatrix, rows: str, label, value):
    """``_matrix_rows`` with every entry encoded by ``value``, once per
    entry object (a matrix shares one object per distinct value)."""
    encoded: dict[int, str] = {}
    for lam, entries in _matrix_rows(matrix, rows, label):
        row = []
        for mu, val in entries:
            text = encoded.get(id(val))
            if text is None:
                text = encoded[id(val)] = value(val)
            row.append((mu, text))
        yield lam, row


def _csv_field(text: str) -> str:
    """One field as ``csv.writer`` writes it, quoted where needed."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


# The encode-once emitters join each row's text first and then the rows,
# so the entries' small strings never all exist at once.

def matrix_csv(matrix: DecompositionMatrix, rows: str = "all") -> str:
    """The matrix as CSV lines ``row,column,entry`` under a header."""
    lines = ["row,column,entry\n"]
    lines.extend(
        "".join([f"{lam},{mu},{val}\n" for mu, val in row])
        for lam, row in _encoded_rows(
            matrix, rows, lambda bp: _csv_field(format_bipartition(bp)),
            lambda val: _csv_field(str(val))))
    return "".join(lines)


def matrix_json_obj(matrix: DecompositionMatrix, rows: str = "all") -> dict:
    """The JSON object of the matrix, one entry at a time: the plain
    route that ``matrix_json`` must match."""
    return {
        "e": matrix.e,
        "n": matrix.n,
        "convention": ABOVE,
        "entries": [
            [lam, mu, val.to_pairs()]
            for lam, entries in _matrix_rows(matrix, rows)
            for mu, val in entries
        ],
    }


def matrix_json(matrix: DecompositionMatrix, rows: str = "all") -> str:
    """``json.dumps(matrix_json_obj(matrix, rows))``, joined from each
    label and each distinct entry encoded once."""
    entries = ", ".join(
        ", ".join([f"[{lam}, {mu}, {val}]" for mu, val in row])
        for lam, row in _encoded_rows(
            matrix, rows, lambda bp: json.dumps(format_bipartition(bp)),
            lambda val: json.dumps(val.to_pairs())))
    head = json.dumps({"e": matrix.e, "n": matrix.n,
                       "convention": ABOVE})
    return f'{head[:-1]}, "entries": [{entries}]}}'
