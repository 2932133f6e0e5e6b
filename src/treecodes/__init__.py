"""Workbench for tree codes: constructions, laminar-partition machinery,
brute-force property certification, exact rate bounds, and entropy-ledger
replays of the bound derivations."""

from .core import (
    DivergentDistance,
    TreeCode,
    divergent_distance,
    identity_code,
    make_systematic,
    trivial_code,
)
from .partitions import (
    DeficiencyLedger,
    ImmediacySpec,
    LaminarPartition,
    TaggedBlock,
    build_from_imm,
    chs_partition,
    eks_partition,
    ghk_partition,
    validate_laminar,
)
from .constructions import (
    BlockCode,
    EKSParams,
    ecc_family,
    eks_code,
    eks_params,
    random_code_search,
    table_code,
    table_min_distance,
)
from .verify import (
    CapExceeded,
    Verdict,
    check_chs_condition,
    check_eks_condition,
    check_ghk_condition,
    check_immediacy_function,
    check_neighborhood_decoding,
    check_online_property,
    check_tree_distance,
    exact_distance,
)
from .bounds import (
    BoundReport,
    audit_code,
    ghk_distance_bound,
    imm_rate_upper,
    rate_bound_deficient,
    rate_bound_plain,
)
# the entropy() function itself stays in the submodule to keep
# treecodes.entropy referring to the module
from .entropy import (
    FiniteJoint,
    EntropyLedger,
    ledger_replay,
    mutual_information,
    verify_data_processing,
)

__version__ = "0.1.0"
