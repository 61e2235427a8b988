"""Bayesian latent-bias inference for stop-and-search records.

A numpy library with a thin CLI; numpy is its only dependency. The pieces:

* :mod:`latentbias.gaussians`  - the normal CDF and its log, Owen's T, the
  log orthant masses of a bivariate normal, and truncated-normal moments
  and sampling; model-free math.
* :mod:`latentbias.model`      - the cell model (the stop and outcome
  equations and their cell masses), configuration, the three prior regimes
  and the ``(means, variances)`` bias prior.
* :mod:`latentbias.inference`  - the Gibbs sampler, anchoring, traces.
* :mod:`latentbias.likelihood` - held-out scoring of a fitted summary.
* :mod:`latentbias.ranking`    - the skill-ranking baseline.
* :mod:`latentbias.data`       - the :class:`Dataset` tally of stops per
  (group, outcome, force) cell, CSV ingestion, dataset operations, the
  synthetic generator.
"""

from .data import (
    Dataset,
    EthnicityMapping,
    IngestReport,
    SchemeKind,
    SynthReport,
    TrueParams,
    balance,
    coarsen_outcome,
    default_mapping,
    filter_force,
    parse_records,
    read_dataset_csv,
    split,
    synthesize,
    write_dataset_csv,
)
from .errors import (
    ConditioningError,
    DataError,
    DivergenceError,
    DomainError,
    LatentBiasError,
    NumericalError,
)
from .gaussians import sample_truncated_normal, truncated_moments
from .inference import (
    GibbsTrace,
    PosteriorSummary,
    drift_slope,
    read_trace_csv,
    run_gibbs,
    write_trace_csv,
)
from .likelihood import predictive_score
from .model import (
    CellModel,
    ModelConfig,
    PriorKind,
    build_prior,
)
from .ranking import (
    COMMON_LABEL,
    matches_from_dataset,
    trueskill_gibbs,
    write_ranking_csv,
)

__version__ = "0.1.0"
