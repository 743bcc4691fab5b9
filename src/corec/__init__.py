"""Corecursion engine: unique solutions of guarded equation systems and
recursive operation definitions over streams, infinite trees, formal
languages, and CCS-style processes."""

from .behavior import (
    CUT,
    LanguageKind,
    ObservationTree,
    ProcessKind,
    STREAM,
    Step,
    TREE,
    canonicalize_step,
    is_prefix,
    process_actions,
    rat,
    truncate,
)
from .checking import (
    CheckReport,
    Witness,
    bounded_equal,
    diagram_check,
    find_divergence,
    run_suite,
    suite_names,
)
from .rules import (
    ArgObs,
    GsosRule,
    Law,
    RpsDef,
    RuleTable,
    SrpsDef,
    add_rule,
    build_table,
    extend_with_rps,
    register_srps,
    validate_table,
)
from .solver import (
    Engine,
    EngineConfig,
    ExternalRhs,
    SolutionHandle,
    System,
)
from .terms import (
    App,
    Guard,
    OpSym,
    Param,
    Signature,
    Term,
    Var,
    embed_signature,
    free_vars,
    mk_app,
    sig_sum,
    signature,
    substitute,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
