"""Calculus and linear algebra over noncommutative division algebras.

The package covers arithmetic in the reals, complexes and quaternions
(algebra), symbolic tensor-monomial polynomials in one or two variables
with order-k derivatives (tensor), matrices under both biring products with
quasideterminants, inverses and rank (biring), series exponentials and
quasiexponentials (series), and integrability/exactness checking of
polynomial forms plus homogeneous linear systems in four product forms
(diffeq). The cli module exposes batch scenarios over the worked examples.
"""

from .algebra import (
    AlgebraDesc,
    AlgebraError,
    Element,
    NotInvertibleError,
    make_algebra,
)
from .biring import (
    BiMatrix,
    MinorSelector,
    QuasideterminantUndefinedError,
    SingularMatrixError,
)
from .diffeq import LinearOde, OdeForm, SolutionCurve
from .report import Report
from .series import SeriesBudgetError
from .tensor import SlotTensor, TensorPolynomial

__all__ = [
    "AlgebraDesc",
    "AlgebraError",
    "BiMatrix",
    "Element",
    "LinearOde",
    "MinorSelector",
    "NotInvertibleError",
    "OdeForm",
    "QuasideterminantUndefinedError",
    "Report",
    "SeriesBudgetError",
    "SingularMatrixError",
    "SlotTensor",
    "SolutionCurve",
    "TensorPolynomial",
    "make_algebra",
]

__version__ = "0.1.0"
