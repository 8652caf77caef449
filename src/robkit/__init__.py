"""Probabilistic robustness estimation by hierarchical sample reuse.

Estimates the surface-radial robustness curve of an uncertain system on a
radius grid, converts it to the classical ball-uniform curve, and compares
against deterministic complex/real stability margins.
"""

from .gridspec import (
    GridScheme,
    RadiusGrid,
    baseline_m_bound,
    build_grid,
    choose_m,
    classical_meq_bound,
    locate,
    predict_meq,
)
from .indicators import (
    Disk,
    HalfPlane,
    Indicator,
    LtiPlant,
    layered_oracle,
    rank_one_oracle,
    region_stability,
    step_spec,
)
from .margins import (
    MarginResult,
    complex_margin,
    destabilizing_delta,
    real_margin,
)
from .reuse import (
    ComplexityReport,
    RobustnessCurve,
    chernoff_n,
    estimate_curve,
    hsra,
    predicted_speedup,
    radial_sampling,
    ssra,
)
from .segfun import MergeCostCounter, SegFun, merge
from .uncsample import (
    BlockShape,
    DirectionSample,
    NormKind,
    SeededStream,
    UncertaintyInstance,
    norm,
    sample_surface,
    scale,
    surface_points,
)
from .xform import (
    CurveGrid,
    PhiFunction,
    bbp_from_phi,
    bbp_from_scriptp,
    scriptp_from_bbp,
    scriptp_from_phi,
)

__version__ = "0.1.0"

__all__ = [
    "GridScheme",
    "RadiusGrid",
    "build_grid",
    "locate",
    "choose_m",
    "predict_meq",
    "baseline_m_bound",
    "classical_meq_bound",
    "SegFun",
    "MergeCostCounter",
    "merge",
    "NormKind",
    "BlockShape",
    "UncertaintyInstance",
    "DirectionSample",
    "SeededStream",
    "norm",
    "surface_points",
    "sample_surface",
    "scale",
    "radial_sampling",
    "ssra",
    "hsra",
    "chernoff_n",
    "estimate_curve",
    "predicted_speedup",
    "RobustnessCurve",
    "ComplexityReport",
    "CurveGrid",
    "PhiFunction",
    "bbp_from_scriptp",
    "scriptp_from_bbp",
    "scriptp_from_phi",
    "bbp_from_phi",
    "Indicator",
    "LtiPlant",
    "HalfPlane",
    "Disk",
    "region_stability",
    "layered_oracle",
    "rank_one_oracle",
    "step_spec",
    "MarginResult",
    "complex_margin",
    "real_margin",
    "destabilizing_delta",
    "__version__",
]
