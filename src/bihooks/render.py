"""Text, JSON and CSV emission for verdicts and decomposition matrices,
with parsers closing the round trip.

Text forms: a simple label prints as ``D(21,13|2)<5>``, summands join
with `` (+) ``, uniserial layers join with `` | `` socle leftmost, and
diagram summands print their vertex list and below<above edge list.
"""

import csv
import io

from .fock import DecompositionMatrix
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


def _matrix_rows(matrix: DecompositionMatrix, rows: str):
    """(row label, column label, entry) triples, rows in decreasing
    dominance and each row's columns in decreasing dominance, from one
    transposition of the columns."""
    by_row: dict = {}
    for mu in matrix.regulars():
        mu_text = format_bipartition(mu)
        for lam, val in matrix.columns[mu].items():
            if val:
                by_row.setdefault(lam, []).append((mu_text, val))
    for lam in matrix.rows():
        entries = by_row.get(lam)
        if entries and (rows != "bihooks" or is_bihook(lam)):
            lam_text = format_bipartition(lam)
            for mu_text, val in entries:
                yield lam_text, mu_text, val


def matrix_csv(matrix: DecompositionMatrix, rows: str = "all") -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["row", "column", "entry"])
    for lam, mu, val in _matrix_rows(matrix, rows):
        writer.writerow([lam, mu, str(val)])
    return buf.getvalue()


def matrix_json_obj(matrix: DecompositionMatrix, rows: str = "all") -> dict:
    return {
        "e": matrix.e,
        "n": matrix.n,
        "convention": matrix.convention,
        "entries": [
            [lam, mu, val.to_pairs()] for lam, mu, val in _matrix_rows(matrix, rows)
        ],
    }
