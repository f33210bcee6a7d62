import csv
import hashlib
import io
import json
import random
import tracemalloc

import pytest

from bihooks import fock, verify
from bihooks.cli import main
from bihooks.fock import DecompositionMatrix, canonical_basis
from bihooks.laurent import LaurentPoly, ZERO
from bihooks.render import (
    matrix_csv, matrix_json, matrix_json_obj, verdict_obj, verdict_text,
)
from bihooks.structure import predict


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_structure_text(capsys):
    code, out = run(capsys, "structure", "--e", "3", "--p", "0",
                    "--k", "7", "--j", "5")
    assert code == 0
    assert "decomposable" in out
    for piece in ("D(33,1|2)<5>", "D(21,13|2)<5>", "D(36|-)<5>"):
        assert piece in out


def test_structure_json(capsys):
    code, out = run(capsys, "structure", "--e", "2", "--p", "2",
                    "--k", "2", "--j", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "indecomposable"
    assert obj["summands"][0]["type"] == "diagram"
    assert obj == verdict_obj(predict(2, 2, 2, 2))


def test_uniserial_text_socle_leftmost(capsys):
    code, out = run(capsys, "structure", "--e", "2", "--p", "2",
                    "--k", "3", "--j", "1")
    assert code == 0
    assert "D(8|-)<1> | D(6,1|1)<1> | D(8|-)<1>" in out


def test_decomposable(capsys):
    code, out = run(capsys, "decomposable", "--k", "4", "--j", "1", "--p", "2")
    assert (code, out.strip()) == (0, "decomposable")
    code, out = run(capsys, "decomposable", "--k", "1", "--j", "2", "--p", "3")
    assert (code, out.strip()) == (0, "indecomposable")


def test_llt_csv_and_json(tmp_path, capsys):
    code, out = run(capsys, "llt", "--e", "2", "--n", "2",
                    "--cache-dir", str(tmp_path))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["row", "column", "entry"]
    assert ["2|-", "2|-", "1"] in rows
    code, out = run(capsys, "llt", "--e", "2", "--n", "4", "--rows", "bihooks",
                    "--format", "json", "--cache-dir", str(tmp_path))
    obj = json.loads(out)
    assert obj["e"] == 2 and obj["n"] == 4 and obj["convention"] == "above"
    assert ["2|2", "4|-", [[1, 1]]] in obj["entries"]
    # bihook filter drops rows like ((2,1),(1))... the row labels are bihooks
    from bihooks.partitions import is_bihook, parse_bipartition
    assert all(is_bihook(parse_bipartition(lam)) for lam, _, _ in obj["entries"])


# sha256 of `llt --no-cache` stdout, recorded before the solver and the
# matrix emitters were rewritten; any change to these bytes is a regression
LLT_GOLDEN = [
    (2, 8, ("--format", "json"),
     "7cc3bc7fbb9d7d2df160a88c790c81872dc4a44ba4657c74e1c6a8635affac95"),
    (2, 8, ("--format", "csv"),
     "8e03ab7326e1cb4c603467082de18e8845dcf16dd7f9a844a4507713ab648951"),
    (2, 8, ("--format", "csv", "--rows", "bihooks"),
     "6995ddfb3debe749c279001409a46d8e69420b8220d7284940aef58e96274030"),
    (3, 9, ("--format", "json"),
     "ae1f9ff5f8861e188c6169be08bbbcb70af852256bbe2b4468aa73de306d9946"),
    (3, 9, ("--format", "csv"),
     "18799f120b6915906f8f632ee6595e140f7fb10cd8279c4ee20c7bbb0e232671"),
    (3, 9, ("--format", "csv", "--rows", "bihooks"),
     "5601910da80d17844b0bc9cd791bf380199148678c68870741bf0935f49a851c"),
    (4, 8, ("--format", "json"),
     "c556459ef4c322f2e88f9370a72daf875ce6c21e5eb5269032ec4ba992aa7e94"),
    (4, 8, ("--format", "csv"),
     "53b27e80269c54f938c38511a2599c69fbc2762b6697d9b98ee29e23e3c9a152"),
    (4, 8, ("--format", "csv", "--rows", "bihooks"),
     "88f984e229b6000f1169065e94d0f02129cd3dd4c01719b4c9ec6250da096b27"),
    # recorded before the solver moved to interned shape ids
    (2, 11, ("--format", "json"),
     "07f12a5f09c5e986b86314b0b3a5350a0109acedf5b14cdb3c34e4798901cf47"),
    (3, 11, ("--format", "json"),
     "64f75d8236ff1272cb97efb406e8a2a00cc1b1b75feeb45dc1245a32d53a180e"),
    (4, 10, ("--format", "json"),
     "e962ea7b3afe3ff6e4570546df7a2863dc6746bba46548e5189218df61a24df6"),
    (5, 9, ("--format", "json"),
     "35683df3ce626a94c19c7e2760b25b70b60e8b56b32866e5cfde6e632f81f6fa"),
]


@pytest.mark.parametrize("e, n, extra, digest", LLT_GOLDEN)
def test_llt_output_is_byte_identical(capsys, e, n, extra, digest):
    code, out = run(capsys, "llt", "--e", str(e), "--n", str(n),
                    "--no-cache", *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_llt_rejects_negative_size(tmp_path, capsys):
    code = main(["llt", "--e", "2", "--n", "-3", "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "number of boxes must be >= 0" in captured.err
    assert not list(tmp_path.iterdir())


def test_qdim(capsys):
    code, out = run(capsys, "qdim", "--shape", "2|2", "--e", "2")
    assert (code, out.strip()) == (0, "q^-1 + 4*q + q^3")
    code, out = run(capsys, "qdim", "--shape", "2|2", "--e", "2",
                    "--word", "0,0,1,1")
    assert (code, out.strip()) == (0, "q^-1 + 2*q + q^3")


def test_label_maps(capsys):
    code, out = run(capsys, "mullineux", "--e", "3", "--shape", "15|-")
    assert (code, out.strip()) == (0, "8,7|-")
    code, out = run(capsys, "induce", "--e", "4", "--a", "2", "--b", "1",
                    "--shape", "4|4")
    assert (code, out.strip()) == (0, "6,1|6,1")
    code, out = run(capsys, "induce", "--e", "4", "--a", "2", "--b", "1",
                    "--negate", "--shape", "1,1,1,1|1,1,1,1")
    assert (code, out.strip()) == (0, "2,1,1,1,1,1|2,1,1,1,1,1")
    code, out = run(capsys, "braces", "--e", "3", "--shape", "9,4|2")
    assert (code, out.strip()) == (0, "5,4,2,2|1,1")


def test_schur_commands(capsys):
    code, out = run(capsys, "decompnum", "--n", "10", "--m", "2", "--j", "0",
                    "--p", "3")
    assert (code, out.strip()) == (0, "1")
    code, out = run(capsys, "henke", "--n", "10", "--j", "3", "--p", "3")
    assert code == 0
    assert out.splitlines() == ["10,0: no", "9,1: yes", "8,2: no", "7,3: yes"]
    code, out = run(capsys, "summands", "--k", "4", "--j", "2", "--p", "2")
    assert (code, out.strip()) == (0, "2")
    code, out = run(capsys, "factors", "--k", "7", "--j", "3", "--p", "3",
                    "--format", "json")
    data = json.loads(out)
    assert {"factor": "1,1,1,1,1,1,1,1,1,1", "multiplicity": 2} in data
    code, out = run(capsys, "factors", "--k", "7", "--j", "3", "--p", "3")
    assert code == 0
    assert out.splitlines() == [
        "factor,multiplicity", '"2,2,2,1,1,1,1",1', '"2,2,1,1,1,1,1,1",2',
        '"2,1,1,1,1,1,1,1,1",1', '"1,1,1,1,1,1,1,1,1,1",2']


def test_verify_command(capsys):
    code, out = run(capsys, "verify", "--suite", "words", "--max-kj", "3",
                    "--max-n", "4")
    assert code == 0
    assert "suite words" in out and "ok" in out


@pytest.mark.parametrize("argv, flag", [
    (("--suite", "degrees", "--max-n", "3"), "--max-n"),
    (("--suite", "combinatorics", "--e", "5"), "--e"),
    (("--suite", "structure", "--cache-dir", "."), "--cache-dir"),
])
def test_verify_rejects_a_flag_the_suite_does_not_take(capsys, argv, flag):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: suite {argv[1]!r} does not take {flag}\n"


@pytest.mark.parametrize("argv, message", [
    (("--suite", "llt", "--max-n", "-3", "--max-kj", "1"), "--max-n must be >= 0, got -3"),
    (("--suite", "degrees", "--max-kj", "0"), "--max-kj must be >= 2, got 0"),
    (("--suite", "crystal", "--max-n", "-2"), "--max-n must be >= 0, got -2"),
    (("--suite", "words", "--max-n", "26"),
     "--max-n must be <= 25 for suite 'words', got 26"),
    (("--suite", "llt", "--e", ","), "--e needs at least one value"),
    (("--suite", "schur", "--primes", ","), "--primes needs at least one value"),
    (("--suite", "degrees", "--e", "2,2"), "--e repeats a value"),
    (("--suite", "schur", "--primes", "3,2,3"), "--primes repeats a value"),
    (("--suite", "degrees", "--e", ""), "--e needs at least one value"),
    (("--suite", "schur", "--primes", ""), "--primes needs at least one value"),
])
def test_verify_rejects_an_out_of_range_bound(capsys, argv, message):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {message}\n"


def test_unusable_cache_dir_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(fock, "_MEMORY", {})
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    for argv in (["llt", "--e", "2", "--n", "3"],
                 ["verify", "--suite", "llt", "--e", "2", "--max-n", "2",
                  "--max-kj", "2"]):
        assert main(argv + ["--cache-dir", str(not_a_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(not_a_dir) in captured.err
    # a directory where the cache file belongs
    in_the_way = tmp_path / "llt_e2_n3_above.json"
    in_the_way.mkdir()
    assert main(["llt", "--e", "2", "--n", "3", "--cache-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(in_the_way) in captured.err


@pytest.mark.parametrize("owner, name", [(fock.os, "replace"),
                                         (DecompositionMatrix, "to_obj")])
def test_failed_cache_write_leaves_no_temp_file(tmp_path, capsys, monkeypatch,
                                                owner, name):
    monkeypatch.setattr(fock, "_MEMORY", {})

    def refuse(*args):
        raise OSError("no room")

    monkeypatch.setattr(owner, name, refuse)
    assert main(["llt", "--e", "2", "--n", "3", "--cache-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: no room\n")
    assert list(tmp_path.iterdir()) == []


def test_error_paths(capsys):
    code = main(["structure", "--e", "1", "--p", "0", "--k", "1", "--j", "1"])
    assert code == 2
    code = main(["structure", "--e", "3", "--p", "6", "--k", "1", "--j", "1"])
    assert code == 2
    capsys.readouterr()
    # shapes with an empty first component need the --shape=-|1 form, and
    # errors name shapes in that form
    for argv, message in (
            (["mullineux", "--e", "2", "--shape=-|1"], "-|1 is not regular for e=2"),
            (["induce", "--e", "2", "--a", "1", "--b", "0", "--shape=-|1"],
             "no cogood node of residue 0 on -|1 for e=2"),
            (["qdim", "--shape", "3", "--e", "2"],
             "expected two components separated by '|' in '3'"),
            # a token that is not an integer is refused, an empty one too
            (["qdim", "--shape", "3,,1|-", "--e", "2"],
             "parts must be integers in '3,,1'"),
            (["qdim", "--shape", "2|2", "--e", "2", "--word", "x"],
             "expected comma-separated integers, got 'x'"),
            (["qdim", "--shape", "2|2", "--e", "2", "--word", "0,,0,1,1"],
             "expected comma-separated integers, got '0,,0,1,1'"),
            (["verify", "--suite", "words", "--e", "2,,3", "--max-kj", "2",
              "--max-n", "2"],
             "expected comma-separated integers, got '2,,3'")):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


# sha256 of every verdict's text and indented JSON over a grid that holds
# each kind of summand, both diagrams among them at (p, k, j) = (2, 2, 2)
# and (3, 7, 3); recorded before the summand classes became one record,
# then re-recorded when the 22 verdicts with k < j and no base structure
# lost a note claiming a dual structure for the k >= j note; re-recorded
# again when the composition factors of a conjugate family without a
# structure became the Mullineux images at shift 2k + j, as the llt rows
# give them: against the earlier grid exactly the 236 transposed verdicts
# with no structure changed, each only in its composition factors
VERDICT_GOLDEN = (
    "cadfa75ed5a6640d2f9f9cee38b4d993996b31610207cfe6daf8be946056b39f")


def test_verdict_output_pinned_across_cases():
    h = hashlib.sha256()
    count = 0
    for e in (2, 3):
        for p in (0, 2, 3, 5, 7):
            for total in range(2, 11):
                for j in range(1, total):
                    for a, b in ((0, 0), (1, 0), (1, 1)):
                        if a + b == e:
                            continue
                        for transpose in (False, True):
                            v = predict(total - j, j, e, p, a=a, b=b,
                                        transpose=transpose)
                            h.update(verdict_text(v).encode() + b"\n")
                            h.update(json.dumps(verdict_obj(v), indent=1).encode()
                                     + b"\n")
                            count += 1
    assert count == 2250
    assert h.hexdigest() == VERDICT_GOLDEN


def test_matrix_emitters_agree(tmp_path):
    matrix = canonical_basis(4, 2, cache_dir=str(tmp_path))
    text = "".join(matrix_csv(matrix))
    obj = matrix_json_obj(matrix)
    assert len(text.strip().splitlines()) - 1 == len(obj["entries"])


def _plain_csv(matrix, rows):
    """The CSV writer the encode-once emitter replaced: one writerow and
    one str() per entry, read off the plain JSON object."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["row", "column", "entry"])
    for lam, mu, pairs in matrix_json_obj(matrix, rows)["entries"]:
        writer.writerow([lam, mu, str(LaurentPoly.from_pairs(pairs))])
    return buf.getvalue()


@pytest.mark.parametrize("e", [2, 3, 4])
def test_encode_once_emitters_match_plain_route(e):
    for n in range(11):
        computed = canonical_basis(n, e, use_cache=False)
        loaded = DecompositionMatrix.from_obj(computed.to_obj())
        for matrix in (computed, loaded):
            for rows in ("all", "bihooks"):
                assert "".join(matrix_json(matrix, rows)) == json.dumps(
                    matrix_json_obj(matrix, rows))
                assert "".join(matrix_csv(matrix, rows)) == _plain_csv(matrix, rows)


def _shuffled(matrix, seed):
    """matrix with its columns and each column's entries inserted in a
    shuffled order, every other entry a new object equal to the old one,
    and one entry object placed in a second column."""
    rng = random.Random(seed)
    columns = {}
    for mu in rng.sample(list(matrix.columns), len(matrix.columns)):
        items = list(matrix.columns[mu].items())
        rng.shuffle(items)
        columns[mu] = {lam: LaurentPoly.from_pairs(val.to_pairs()) if k % 2 else val
                       for k, (lam, val) in enumerate(items)}
    first, second = sorted(matrix.columns)[:2]
    shared = columns[first][first]
    columns[second][second] = shared
    return DecompositionMatrix(n=matrix.n, e=matrix.e, columns=columns), shared


@pytest.mark.parametrize("e, n", [(2, 8), (3, 9)])
def test_emitters_read_a_shuffled_matrix_with_shared_entries(e, n):
    computed = canonical_basis(n, e, use_cache=False)
    matrix, shared = _shuffled(computed, seed=e * 100 + n)
    assert list(matrix.columns) != sorted(computed.columns)
    entries = [val for col in matrix.columns.values() for val in col.values()]
    assert sum(val is shared for val in entries) >= 2
    assert any(a == b and a is not b for a, b in zip(entries, entries[1:]))
    for rows in ("all", "bihooks"):
        assert "".join(matrix_json(matrix, rows)) == json.dumps(
            matrix_json_obj(matrix, rows))
        assert "".join(matrix_csv(matrix, rows)) == _plain_csv(matrix, rows)


@pytest.mark.parametrize("e, n", [(2, 8), (3, 9)])
def test_column_walks_read_a_shuffled_matrix(e, n):
    # the simple dimensions and the whole-matrix checks walk the columns
    # once, whatever their insertion order: the same answers and failure
    # lists as on the computed matrix, with the top column's entries
    # raised by q at its regular rows, then at the others
    computed = canonical_basis(n, e, use_cache=False)
    top = min(computed.columns)
    outcomes = []
    for reg in (True, False):
        cols = dict(computed.columns)
        cols[top] = {lam: val + LaurentPoly.q_power(1)
                     if lam != top and (lam in cols) == reg else val
                     for lam, val in cols[top].items()}
        broken = DecompositionMatrix(n=n, e=e, columns=cols)
        shuffled, _ = _shuffled(broken, seed=e * 100 + n)
        assert list(shuffled.columns) != sorted(broken.columns)
        for matrix in (broken, shuffled):
            rep = verify.SuiteReport("llt")
            verify._llt_matrix_checks(rep, matrix, e, n)
            outcomes.append((rep.cases, rep.failures))
    assert outcomes[0] == outcomes[1] and outcomes[2] == outcomes[3]
    assert len(outcomes[0][1]) == 1 and len(outcomes[2][1]) > 1
    shuffled, _ = _shuffled(computed, seed=e * 100 + n)
    want = fock.simple_graded_dims_from(computed)
    got = fock.simple_graded_dims_from(shuffled)
    assert got == want and list(got) == list(want)


def test_matrix_json_drains_in_less_memory_than_its_output():
    matrix = canonical_basis(12, 3, use_cache=False)
    tracemalloc.start()
    try:
        length = sum(map(len, matrix_json(matrix)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < length, (peak, length)


class _Writes:
    """A stdout that keeps each write."""

    def __init__(self):
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)
        return len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


def test_llt_writes_its_output_row_by_row(tmp_path, monkeypatch):
    out = _Writes()
    monkeypatch.setattr("sys.stdout", out)
    assert main(["llt", "--e", "3", "--n", "9", "--cache-dir", str(tmp_path)]) == 0
    text = "".join(out.pieces)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "18799f120b6915906f8f632ee6595e140f7fb10cd8279c4ee20c7bbb0e232671")
    assert len(out.pieces) > 1
    assert max(map(len, out.pieces)) <= len(text) / 10


def _rerun_over_corrupted_cache(tmp_path, capsys, monkeypatch, corrupt):
    """Corrupt a good (2,4) cache file, run `llt` over it, and check the
    output equals `--no-cache` and the file is restored byte for byte."""
    monkeypatch.setattr(fock, "_MEMORY", {})
    _, want = run(capsys, "llt", "--e", "2", "--n", "4", "--no-cache")
    path = tmp_path / "llt_e2_n4_above.json"
    canonical_basis(4, 2, cache_dir=str(tmp_path))
    good = path.read_bytes()
    path.write_bytes(corrupt(good))
    fock._MEMORY.clear()
    code, out = run(capsys, "llt", "--e", "2", "--n", "4",
                    "--cache-dir", str(tmp_path))
    assert (code, out) == (0, want)
    assert path.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def _edit(edit):
    """Corrupt the decoded file object in place with edit(obj)."""
    def corrupt(good):
        obj = json.loads(good)
        edit(obj)
        return json.dumps(obj).encode()
    return corrupt


def _set_entry(col, row, entry):
    """Set the existing entry (row, col) to entry: an index as it is, or a
    pair list appended to values and pointed at."""
    def edit(obj):
        column = obj["columns"][col]
        assert row in column
        if isinstance(entry, list):
            obj["values"].append(entry)
            column[row] = len(obj["values"]) - 1
        else:
            column[row] = entry
    return _edit(edit)


def _rename_rows(old, new):
    def edit(obj):
        hits = [col for col in obj["columns"].values() if old in col]
        assert hits
        for col in hits:
            col[new] = col.pop(old)
    return _edit(edit)


def _add_entry_below_dominance(obj):
    # column 3,1|- does not dominate row 4|-, so a unitriangular matrix
    # has no entry there; q is values[1], a value every check passes
    column = obj["columns"]["3,1|-"]
    assert "4|-" not in column and obj["values"][1] == [[1, 1]]
    column["4|-"] = 1


def _parent_format(obj):
    """The layout written before schema 2: no schema, no values, and each
    entry as its own pair list."""
    values = obj.pop("values")
    del obj["schema"]
    for col in obj["columns"].values():
        col.update((row, values[i]) for row, i in col.items())


@pytest.mark.parametrize("corrupt", [
    lambda good: good[:len(good) // 2],                  # JSONDecodeError
    _edit(lambda obj: obj.pop("columns")),               # KeyError
    _rename_rows("2|2", "2|x"),                          # bad label
    _set_entry("4|-", "4|-", [[float("inf"), 1]]),
    _set_entry("3|1", "3|1", [[0, float("inf")]]),
    _set_entry("4|-", "3,1|-", 99),
    _set_entry("4|-", "3,1|-", -1),
    _set_entry("4|-", "3,1|-", True),
    _set_entry("4|-", "3,1|-", 1.0),
    _edit(lambda obj: obj.pop("values")),
    _edit(_parent_format),
    _edit(lambda obj: obj.update(schema=3)),
    # values that int() would coerce into one the checks pass; the first
    # was served as q^2
    _set_entry("4|-", "3,1|-", [[2.9, 1]]),
    _set_entry("4|-", "3,1|-", [["1", 1]]),
    _set_entry("4|-", "3,1|-", [[1, True]]),
    _set_entry("4|-", "3,1|-", [[1, 1], [2, 0]]),
    _set_entry("4|-", "3,1|-", [[1, 5], [1, 1]]),
    lambda good: b"[" * 5000 + b"]" * 5000,              # RecursionError
    # equal to the (n, e) asked for, but not ints; both were served
    _edit(lambda obj: obj.update(n=4.0)),
    _edit(lambda obj: obj.update(e=2.0)),
], ids=["truncated", "missing-columns", "bad-label", "infinite-exponent",
        "infinite-coefficient", "index-out-of-range", "negative-index",
        "true-as-index", "float-as-index", "missing-values", "parent-format",
        "other-schema",
        "float-exponent", "string-exponent", "bool-coefficient",
        "zero-coefficient", "repeated-exponent", "deeply-nested",
        "float-n", "float-e"])
def test_llt_recomputes_over_undecodable_cache(tmp_path, capsys, monkeypatch,
                                               corrupt):
    _rerun_over_corrupted_cache(tmp_path, capsys, monkeypatch, corrupt)


def test_broken_solve_is_refused_and_never_cached(tmp_path, capsys,
                                                  monkeypatch):
    # no correction is ever applied, so the first approximations come back
    # as columns; the check after the solve must refuse them
    monkeypatch.setattr(fock, "_MEMORY", {})
    monkeypatch.setattr(LaurentPoly, "bar_closure", lambda self: ZERO)
    code = main(["llt", "--e", "2", "--n", "6", "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and "column 5|1" in captured.err
    assert list(tmp_path.iterdir()) == [] and fock._MEMORY == {}


def test_verify_reports_a_wrong_served_entry(tmp_path, capsys, monkeypatch):
    # q + q^2 for q at row 4|1 of column 5|- passes the cache gate, so llt
    # serves it; verify reports the simple dimension fault as one failed
    # case instead of exiting 2
    monkeypatch.setattr(fock, "_MEMORY", {})
    canonical_basis(5, 2, cache_dir=str(tmp_path))
    path = tmp_path / "llt_e2_n5_above.json"
    path.write_bytes(_set_entry("5|-", "4|1", [[1, 1], [2, 1]])(path.read_bytes()))
    fock._MEMORY.clear()
    code, out = run(capsys, "llt", "--e", "2", "--n", "5",
                    "--cache-dir", str(tmp_path))
    assert code == 0 and "4|1,5|-,q + q^2\n" in out
    code, out = run(capsys, "verify", "--suite", "llt", "--e", "2",
                    "--max-n", "5", "--max-kj", "2", "--cache-dir", str(tmp_path))
    assert code == 1
    summary, *fails = out.splitlines()
    assert summary.startswith("suite llt: 177 cases, 1 FAILED")
    assert fails == ["  FAIL: simple dimensions e=2 n=5: graded dimension of "
                     "simple 4|1 came out as 2*q^-1 + 2*q - q^2; q-convention fault"]


@pytest.mark.parametrize("corrupt", [
    _set_entry("4|-", "4|-", [[0, 7]]),
    _set_entry("3|1", "3|1", [[0, 1], [1, 2]]),
    _set_entry("2,1|1", "1|2,1", [[0, 1]]),
    _set_entry("3|1", "1|3", [[-2, 1]]),
    _rename_rows("-|1,1,1,1", "-|1,1,1"),
    _set_entry("3|1", "1,1,1|1", [[1, -1]]),
    _edit(lambda obj: obj["columns"].clear()),
    _edit(lambda obj: obj["columns"].pop("3|1")),
    # 2|2 is not regular at e = 2; its column passes every entry check
    _edit(lambda obj: obj["columns"].update({"2|2": {"2|2": 0}})),
    _edit(lambda obj: obj.update(convention="below")),
    _edit(_add_entry_below_dominance),
    # [] is the zero polynomial as to_pairs writes it; it was served by
    # dropping the entry
    _set_entry("4|-", "3,1|-", []),
], ids=["diagonal-7", "diagonal-not-monomial", "entry-at-q0",
        "entry-at-negative-degree", "label-of-wrong-size",
        "negative-coefficient", "no-columns", "dropped-column",
        "extra-column", "below-convention", "entry-below-dominance",
        "zero-entry"])
def test_llt_recomputes_over_invalid_cache(tmp_path, capsys, monkeypatch,
                                           corrupt):
    # decodable, but breaking an invariant the solver asserts
    _rerun_over_corrupted_cache(tmp_path, capsys, monkeypatch, corrupt)
