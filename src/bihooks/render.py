"""Text, JSON and CSV emission for verdicts and decomposition matrices,
with parsers closing the round trip.

Text forms: a simple label prints as ``D(21,13|2)<5>``, summands join
with `` (+) ``, uniserial layers join with `` | `` socle leftmost, and
diagram summands print their vertex list and below<above edge list.
"""

import csv
import io
import json

from .fock import ABOVE, DecompositionMatrix
from .partitions import format_bipartition, is_bihook, parse_bipartition
from .structure import (
    Diagram, ModuleStructure, Semisimple, SimpleLabel, Uniserial, Verdict,
)


def label_text(lab: SimpleLabel) -> str:
    return f"D({format_bipartition(lab.bipartition)})<{lab.shift}>"


def label_obj(lab: SimpleLabel) -> dict:
    return {"bipartition": format_bipartition(lab.bipartition), "shift": lab.shift}


def label_from_obj(obj) -> SimpleLabel:
    return SimpleLabel(parse_bipartition(obj["bipartition"]), int(obj["shift"]))


def summand_obj(s) -> dict:
    if isinstance(s, Semisimple):
        return {"type": "semisimple", "factors": [label_obj(x) for x in s.factors]}
    if isinstance(s, Uniserial):
        return {"type": "uniserial", "layers": [label_obj(x) for x in s.layers]}
    return {"type": "diagram",
            "factors": [label_obj(x) for x in s.vertices],
            "edges": [list(edge) for edge in s.edges]}


def summand_from_obj(obj):
    kind = obj["type"]
    if kind == "semisimple":
        return Semisimple(tuple(label_from_obj(x) for x in obj["factors"]))
    if kind == "uniserial":
        return Uniserial(tuple(label_from_obj(x) for x in obj["layers"]))
    if kind == "diagram":
        return Diagram(tuple(label_from_obj(x) for x in obj["factors"]),
                       tuple((int(a), int(b)) for a, b in obj["edges"]))
    raise ValueError(f"unknown summand type {kind!r}")


def verdict_obj(v: Verdict) -> dict:
    out = {"verdict": v.status, "notes": list(v.notes)}
    if v.structure is not None:
        out["summands"] = [summand_obj(s) for s in v.structure.summands]
    if v.composition is not None:
        out["composition"] = [label_obj(x) for x in v.composition]
    return out


def verdict_from_obj(obj) -> Verdict:
    structure = None
    if "summands" in obj:
        structure = ModuleStructure(
            tuple(summand_from_obj(s) for s in obj["summands"]))
    composition = None
    if "composition" in obj:
        composition = tuple(label_from_obj(x) for x in obj["composition"])
    return Verdict(obj["verdict"], structure, composition,
                   tuple(obj.get("notes", ())))


def summand_text(s) -> str:
    if isinstance(s, Semisimple):
        return " (+) ".join(label_text(x) for x in s.factors)
    if isinstance(s, Uniserial):
        return " | ".join(label_text(x) for x in s.layers)
    verts = ", ".join(f"v{i}={label_text(x)}" for i, x in enumerate(s.vertices))
    edges = ", ".join(f"v{a}<v{b}" for a, b in s.edges)
    return f"diagram{{{verts}; edges {edges}}}"


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
    rows in decreasing dominance and each row's columns in decreasing
    dominance, from one transposition of the columns that holds only the
    column labels; ``label`` encodes each label once."""
    columns = matrix.columns
    text_of = {}
    by_row: dict = {}
    for mu in matrix.regulars():
        text_of[mu] = label(mu)
        for lam, val in columns[mu].items():
            if val:
                by_row.setdefault(lam, []).append(mu)
    for lam in matrix.rows():
        mus = by_row.get(lam)
        if mus and (rows != "bihooks" or is_bihook(lam)):
            yield label(lam), [(text_of[mu], columns[mu][lam]) for mu in mus]


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
