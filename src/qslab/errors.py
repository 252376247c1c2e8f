"""Exception taxonomy.

Two families: model/input validation (CLI exit code 3) and numerical
failures detected while computing (CLI exit code 4).  Every exception
carries a short machine-readable code used in CLI diagnostics.
"""


class QslabError(Exception):
    exit_code = 1
    code = "error"


class ValidationError(QslabError):
    exit_code = 3
    code = "validation"


class NegativeOffDiagonal(ValidationError):
    code = "negative-off-diagonal"


class PositiveRowSum(ValidationError):
    code = "positive-row-sum"


class NoKilling(ValidationError):
    code = "no-killing"


class Reducible(ValidationError):
    code = "reducible"


class InvalidRates(ValidationError):
    code = "invalid-rates"


class ParseError(ValidationError):
    code = "parse-error"


class NumericalError(QslabError):
    exit_code = 4
    code = "numerical"


class DegenerateGap(NumericalError):
    code = "degenerate-gap"


class ZeroEta(NumericalError):
    code = "zero-eta"


class SingularSolve(NumericalError):
    code = "singular-solve"


class UnresolvedDecay(NumericalError):
    code = "unresolved-decay"


class OverflowGuard(NumericalError):
    code = "overflow-guard"


class BudgetExceeded(NumericalError):
    code = "budget-exceeded"


class DegenerateVariance(NumericalError):
    code = "degenerate-variance"
