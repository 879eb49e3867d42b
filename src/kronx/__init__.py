"""kronx: sparse Kronecker algebra over single-entry (Hubbard) operators.

Matrices are weighted sums of X_n^(i,j) terms; products, tensor products,
permutations, SU(2) generators and the full Clebsch-Gordan change of basis
are computed by closed-form index arithmetic on those terms.
"""

from .cg import (
    CGMatrix,
    VerificationError,
    build_S,
    cg_coefficient,
    cg_table,
    verify_intertwining,
)
from .coupling import BlockOp, CouplingLayout, block_gen, layout, product_gen
from .exactnum import (
    ClosureError,
    DomainError,
    SqrtRational,
    binomial,
    ceil_ratio,
    floor_ratio,
    hyp3f2_terminating,
    pochhammer,
)
from .fourier import cooley_tukey, dephase, fourier_matrix, is_hadamard
from .hubbard import ResourceError, XSum, identity, x_op
from .kron import kron, kron_many, kron_power
from .models import (
    ConvergenceError,
    HubbardParams,
    JCConfig,
    NLevelHamiltonian,
    SpinChainParams,
    diagonalize,
    heisenberg_h,
    hubbard_h,
    jc_evolution,
    jc_hamiltonian,
    two_cavity_evolution,
)
from .perm import Permutation, commutation_perm, perm_matrix, swap_perm
from .serialize import load_matrix, matrix_from_json, matrix_to_json
from .su2 import Irrep, casimir, j3, jpm, pauli

__version__ = "0.1.0"

__all__ = [
    "BlockOp",
    "CGMatrix",
    "ClosureError",
    "ConvergenceError",
    "CouplingLayout",
    "DomainError",
    "HubbardParams",
    "Irrep",
    "JCConfig",
    "NLevelHamiltonian",
    "Permutation",
    "ResourceError",
    "SpinChainParams",
    "SqrtRational",
    "VerificationError",
    "XSum",
    "binomial",
    "block_gen",
    "build_S",
    "casimir",
    "ceil_ratio",
    "cg_coefficient",
    "cg_table",
    "commutation_perm",
    "cooley_tukey",
    "dephase",
    "diagonalize",
    "floor_ratio",
    "fourier_matrix",
    "heisenberg_h",
    "hubbard_h",
    "hyp3f2_terminating",
    "identity",
    "is_hadamard",
    "j3",
    "jc_evolution",
    "jc_hamiltonian",
    "jpm",
    "kron",
    "kron_many",
    "kron_power",
    "layout",
    "load_matrix",
    "matrix_from_json",
    "matrix_to_json",
    "pauli",
    "perm_matrix",
    "pochhammer",
    "product_gen",
    "swap_perm",
    "two_cavity_evolution",
    "verify_intertwining",
    "x_op",
    "__version__",
]
