"""Decision procedures for semigroups given by word-hyperbolic structures:
a regular language of representatives plus a context-free multiplication
table, with polynomial-time word problem and witness-bearing property tests.
"""

from .arithmetic import check_multiply, multiply, represent, word_eq
from .basic import green_related, is_commutative, is_group, is_monoid
from .cfg import Cfg
from .errors import (EmptyProductError, InvariantError, OperandError,
                     ParseError, ReservedSymbolError, WhsgError)
from .freegroup import FreeGroupWord
from .nfa import Nfa
from .oracle import FiniteSemigroup, structure_from_table, table_decide
from .structure import (Verdict, WhStructure, load_structure,
                        normalize_generators, save_structure, validate_necessary)
from .structural import (CliffordSpecies, CsSpecies, Defect,
                         clifford_species_check, cs_species_check,
                         is_clifford, is_completely_simple, is_free,
                         palindromic_defect)
from .transducer import Transducer
from .words import SEP1, SEP2

__version__ = "0.1.0"

__all__ = [
    "Cfg", "CliffordSpecies", "CsSpecies", "Defect", "EmptyProductError",
    "FiniteSemigroup", "FreeGroupWord", "InvariantError", "Nfa",
    "OperandError", "ParseError", "ReservedSymbolError", "SEP1", "SEP2",
    "Transducer", "Verdict", "WhStructure", "WhsgError", "check_multiply",
    "clifford_species_check", "cs_species_check", "green_related",
    "is_clifford", "is_commutative", "is_completely_simple", "is_free",
    "is_group", "is_monoid", "load_structure", "multiply",
    "normalize_generators", "palindromic_defect", "represent",
    "save_structure", "structure_from_table", "table_decide",
    "validate_necessary", "word_eq",
]
