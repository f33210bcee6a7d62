"""The ValueError each argument check raises, with its whole message, for
the checks that no other test reaches."""

import re

import pytest

from bihooks import (
    crystal, padic, partitions, render, schur, structure, tableaux, verify,
)
from bihooks.cli import main
from bihooks.fock import canonical_basis
from bihooks.laurent import ONE, quantum_integer

ERRORS = [
    pytest.param(lambda: schur.two_column(3, 5),
                 "need 0 <= 2m <= n, got m=3, n=5", id="two_column"),
    pytest.param(lambda: schur.simultaneous_irreducibility(3, 2, 3),
                 "need n >= 2j >= 2, got n=3, j=2", id="simultaneous_irreducibility"),
    pytest.param(lambda: schur.decomp_number(3, 0, 5, 3),
                 "shapes must fit n=5: m=3, j=0", id="decomp_number"),
    pytest.param(lambda: schur.henke_summand(5, 3, 1, 3),
                 "need 0 <= m <= j <= n-j, got n=5, j=3, m=1", id="henke_summand"),
    pytest.param(lambda: schur.num_summands(1, 2, 3),
                 "need k >= j >= 1, got k=1, j=2", id="num_summands"),
    pytest.param(lambda: schur.kostka((2, 1), (2,)),
                 "|(2, 1)| != |(2,)|", id="kostka"),
    pytest.param(lambda: schur.exterior_weight_dim(1, 1, (1,)),
                 "weight (1,) has size 1 != 2", id="exterior_weight_dim"),
    pytest.param(lambda: crystal.braces_int(-1, 3),
                 "braces of a negative integer", id="braces_int"),
    pytest.param(lambda: partitions.as_partition((2, -1)),
                 "negative part -1", id="as_partition"),
    # past the end of the row, then under a shorter row
    pytest.param(lambda: partitions.add_node(((1,), ()), (1, 3, 1)),
                 "(1, 3, 1) not addable to 1|-", id="add_node-off-row"),
    pytest.param(lambda: partitions.add_node(((1, 1), ()), (2, 2, 1)),
                 "(2, 2, 1) not addable to 1,1|-", id="add_node-under-shorter"),
    # not the end of the row, then above a row as long
    pytest.param(lambda: partitions.remove_node(((1,), ()), (1, 2, 1)),
                 "(1, 2, 1) not removable from 1|-", id="remove_node-off-row"),
    pytest.param(lambda: partitions.remove_node(((1, 1), ()), (1, 1, 1)),
                 "(1, 1, 1) not removable from 1,1|-", id="remove_node-above-equal"),
    pytest.param(lambda: structure.structure_j2(1, 3),
                 "need k >= 2, got 1", id="structure_j2"),
    pytest.param(lambda: structure.almost_ss_structure(3, 2, 0),
                 "p=0 does not divide exactly one of 3..5", id="almost_ss_structure"),
    pytest.param(lambda: structure.decomposability(0, 1, 2),
                 "need k, j >= 1, got k=0, j=1", id="decomposability"),
    pytest.param(lambda: padic.digits(-1, 3),
                 "p-adic digits of a negative number -1", id="digits"),
    pytest.param(lambda: ONE ** -1,
                 "negative powers are not defined here", id="negative-power"),
    pytest.param(lambda: quantum_integer(-1),
                 "quantum integer of a negative number", id="quantum_integer"),
    # a letter is a residue, never read mod e
    pytest.param(lambda: tableaux.word_graded_dimensions(((2, 1), (1,)),
                                                         [(5, 1, 0, 1)], 2),
                 "letter 5 is not a residue 0..1 for e=2", id="word-letter-past-e"),
    pytest.param(lambda: tableaux.word_graded_dimension(((2, 1), (1,)),
                                                        (0, 1, 0, -1), 3),
                 "letter -1 is not a residue 0..2 for e=3", id="word-letter-negative"),
    pytest.param(lambda: tableaux.packed_graded_dimension(((2, 1), (1,)), 2, 0),
                 "packing width must be >= 1, got 0", id="packed-width"),
    pytest.param(lambda: tableaux.standard_tableaux(((2, 1), (1,)),
                                                    word=(2, 2, 3, 3), e=2),
                 "letter 2 is not a residue 0..1 for e=2", id="tableaux-word-letter"),
    # a rows value the command line cannot pass, one letter short
    pytest.param(lambda: render.matrix_csv(canonical_basis(2, 2, use_cache=False),
                                           rows="bihook"),
                 "rows must be 'all' or 'bihooks', got 'bihook'", id="matrix-rows"),
    pytest.param(lambda: verify.run_suite("nope"),
                 "unknown suite 'nope'; choose from ['combinatorics', 'crystal', "
                 "'degrees', 'llt', 'schur', 'structure', 'words']", id="run_suite"),
]


@pytest.mark.parametrize("call, message", ERRORS)
def test_error_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("word, letter", [(["--word", "5,1,0,1"], 5),
                                          (["--word=-1,1,0,1"], -1)])
def test_qdim_refuses_a_letter_outside_the_residues(capsys, word, letter):
    assert main(["qdim", "--shape", "2,1|1", "--e", "2", *word]) == 2
    assert capsys.readouterr() == (
        "", f"error: letter {letter} is not a residue 0..1 for e=2\n")
