"""DFT plans over GF(2^11) for lengths dividing 2047, built from a
43-multiplication 11-point cyclic convolution, with exact complexity
accounting and bit-exact oracle verification."""

from .gf import Field, CountingField, DEFAULT_GENPOLY
from .bilinear import (
    BitMatrix,
    BilinearAlgorithm,
    t5_matrices,
    t5_apply,
    t10_apply,
    conv11_matrices,
    conv11_apply,
    aft_integer_model,
    aft_forward_int,
    aft_inverse_int,
    verify_toeplitz_reduction,
    conv11_int,
)
from .cfft import (
    CosetTable,
    NormalBasis,
    CfftPlan,
    cosets,
    find_normal_basis,
    decompose,
    build_plan,
    evaluate,
    plan_to_json,
    plan_from_json,
    SUPPORTED_LENGTHS,
)
from .slp import Slp, compile_plan, compile_bilinear, equivalent, greedy_cse
from . import oracle

__version__ = "0.1.0"

__all__ = [
    "Field",
    "CountingField",
    "DEFAULT_GENPOLY",
    "BitMatrix",
    "BilinearAlgorithm",
    "t5_matrices",
    "t5_apply",
    "t10_apply",
    "conv11_matrices",
    "conv11_apply",
    "aft_integer_model",
    "aft_forward_int",
    "aft_inverse_int",
    "verify_toeplitz_reduction",
    "conv11_int",
    "CosetTable",
    "NormalBasis",
    "CfftPlan",
    "cosets",
    "find_normal_basis",
    "decompose",
    "build_plan",
    "evaluate",
    "plan_to_json",
    "plan_from_json",
    "SUPPORTED_LENGTHS",
    "Slp",
    "compile_plan",
    "compile_bilinear",
    "greedy_cse",
    "equivalent",
    "oracle",
    "__version__",
]
