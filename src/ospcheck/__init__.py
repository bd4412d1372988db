"""Verification toolkit for deterministic sequential auction mechanisms."""

__version__ = "0.1.0"

from .model import (
    AuctionSetting,
    Behavior,
    Bundle,
    InternalNode,
    Leaf,
    MechanismError,
    MechanismTree,
    attainable,
    build_tree,
    bundle_contains,
    bundle_is_empty,
    realize,
    run,
)
from .valuations import (
    AdditiveValuation,
    Domain,
    GeneralCA,
    GeneralMU,
    SingleMindedCA,
    SingleMindedMU,
    UnitDemandValuation,
    ValuationError,
    adversarial_domain,
    evaluate,
    make_valuation,
    restricted_additive_domain,
)
from .checkers import (
    RatioReport,
    Verdict,
    Witness,
    check_dsic,
    check_ir,
    check_nnt,
    check_osp,
    first_divergence,
    mu_payment_bounds,
    opt_welfare,
    scan_bad_leaf_good_leaf,
    social_welfare,
    utility,
    welfare_ratio,
)
from .structure import (
    AscendingAudit,
    VertexClassification,
    audit_ascending_structure,
    classify_continue_or_quit,
    is_decisive,
    minimal_price,
)
from .mechanisms import (
    MechanismBundle,
    ascending_single_item,
    grand_bundle_ascending,
    second_price_single_item,
    serial_posted_price,
)
from .search import (
    SearchSpace,
    SearchVerdict,
    default_payment_grid,
    falsify_impossibility,
)

__all__ = [name for name in dir() if not name.startswith("_")]
