"""dcbox: build, transform, and exhaustively verify allocation algorithms
in downward-closed single-parameter environments."""

from .adversaries import (
    BlockAdversaryInstance,
    HammingAdversaryInstance,
    Thm1Instance,
    gen_all_ones,
    gen_block_adversary,
    gen_hamming_adversary,
    gen_knapsack,
    gen_random_algorithm,
    gen_random_environment,
    gen_thm1,
)
from .blackbox import (
    Algorithm,
    CaseTable,
    InstrumentedBlackBox,
    tabulate,
)
from .errors import (
    DcboxError,
    DimensionError,
    HammingRestrictionViolation,
    InfeasibleOutputError,
    NonMonotoneRuleError,
    ParameterError,
    ParseError,
    QueryBudgetExceeded,
)
from .model import (
    Allocation,
    Environment,
    FeasibilitySet,
    ValueLadder,
    ValuationVector,
    all_inputs,
    is_feasible,
    normalize_antichain,
    opt_welfare,
)
from .transforms import TRANSFORMATION_IDS, TransformedRule
from .verify import (
    DEFAULT_ENUM_BOUND,
    CachedRule,
    MonotonicityReport,
    MonotonicityViolation,
    WelfareReport,
    check_monotone,
    myerson_payments,
    welfare_report,
)

__version__ = "0.1.0"

__all__ = [
    "Algorithm",
    "Allocation",
    "BlockAdversaryInstance",
    "CachedRule",
    "CaseTable",
    "DcboxError",
    "DEFAULT_ENUM_BOUND",
    "DimensionError",
    "Environment",
    "FeasibilitySet",
    "HammingAdversaryInstance",
    "HammingRestrictionViolation",
    "InfeasibleOutputError",
    "InstrumentedBlackBox",
    "MonotonicityReport",
    "MonotonicityViolation",
    "NonMonotoneRuleError",
    "ParameterError",
    "ParseError",
    "QueryBudgetExceeded",
    "Thm1Instance",
    "TRANSFORMATION_IDS",
    "TransformedRule",
    "ValueLadder",
    "ValuationVector",
    "WelfareReport",
    "all_inputs",
    "check_monotone",
    "gen_all_ones",
    "gen_block_adversary",
    "gen_hamming_adversary",
    "gen_knapsack",
    "gen_random_algorithm",
    "gen_random_environment",
    "gen_thm1",
    "is_feasible",
    "myerson_payments",
    "normalize_antichain",
    "opt_welfare",
    "tabulate",
    "welfare_report",
]
