"""Exact combinatorics of graded Specht modules indexed by bihooks.

Submodules: ``partitions`` (bipartitions, diagrams, residues, dominance),
``tableaux`` (standard tableaux, the codegree, graded dimensions),
``crystal`` (signatures, regularity, Mullineux and induction label maps),
``laurent``/``padic`` (exact coefficient arithmetic), ``schur``
(two-column Weyl-module facts), ``fock`` (canonical-basis matrices),
``structure`` (module-structure prediction), ``verify`` (cross-check
suites) and ``cli``.
"""

from .laurent import LaurentPoly, quantum_factorial, quantum_integer
from .partitions import (
    Bipartition, Node, Partition, bipartitions, conjugate, dominates,
    format_bipartition, parse_bipartition,
)
from .structure import ModuleStructure, SimpleLabel, Verdict, predict

__version__ = "0.1.0"

__all__ = [
    "Bipartition", "LaurentPoly", "ModuleStructure", "Node", "Partition",
    "SimpleLabel", "Verdict", "bipartitions", "conjugate", "dominates",
    "format_bipartition", "parse_bipartition", "predict",
    "quantum_factorial", "quantum_integer", "__version__",
]
