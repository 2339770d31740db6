"""Domain-level metacognitive diagnostics for trial-level evaluation records."""

from .binning import RatingScale, pad_counts
from .bootstrap import (
    BootstrapResult,
    ContrastResult,
    HypothesisSpec,
    bootstrap_contrast,
    bootstrap_metric,
    default_hypothesis_specs,
    run_hypothesis_suite,
    tost,
)
from .nonparam import spearman_rho
from .profiles import (
    DomainProfile,
    FormatComparison,
    build_profiles,
    compare_formats,
    rank_profile,
)
from .report import ReportBundle, emit_bar_chart, emit_tables, reproduction_notes
from .sdt import SdtFit, meta_d_fit, phi, phi_inv, type1_fit
from .synth import SynthConfig, generate, oracle_auroc2
from .trialstore import (
    PairingReport,
    TrialRecord,
    TrialSet,
    filter_trials,
    load_trials,
    save_trials,
    validate_paired,
)

__version__ = "0.1.0"
