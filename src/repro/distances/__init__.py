"""Distance substrate: ED family, DTW, envelopes, lower bounds, transfer bounds.

This subpackage is self-contained (numpy only) and provides every distance
primitive the ONEX core and the baselines need:

- :mod:`repro.distances.metrics` — Euclidean-family distances on
  equal-length sequences (L1 / L2 / Chebyshev, raw and length-normalised).
- :mod:`repro.distances.dtw` — dynamic time warping: full matrix, optimal
  warping path, Sakoe–Chiba band, early abandoning, normalised variants.
- :mod:`repro.distances.envelope` — Keogh bounding envelopes in O(n).
- :mod:`repro.distances.lower_bounds` — LB_Kim / LB_Keogh cascades.
- :mod:`repro.distances.bounds` — the ED↔DTW transfer inequality that is
  ONEX's theoretical foundation (DESIGN.md §2).
- :mod:`repro.distances.normalize` — min–max and z-normalisation plus
  streaming statistics.
- :mod:`repro.distances.registry` — the pluggable metric registry mapping
  names to distance kernels, batch kernels, and lower-bound families
  (DESIGN.md §9).
"""

from repro.distances.bounds import (
    TransferBound,
    group_pruning_lower_bound,
    path_multiplicities,
    transfer_bounds,
)
from repro.distances.dtw import (
    DtwPathBatch,
    DtwResult,
    dtw_cost_matrix,
    dtw_distance,
    dtw_distance_batch,
    dtw_distance_early_abandon,
    dtw_path,
    dtw_path_batch,
)
from repro.distances.envelope import QueryEnvelopeCache, keogh_envelope
from repro.distances.lower_bounds import (
    lb_cascade,
    lb_keogh,
    lb_keogh_batch,
    lb_kim,
    lb_kim_batch,
)
from repro.distances.metrics import (
    chebyshev,
    euclidean,
    euclidean_l1,
    euclidean_l2,
    normalized_euclidean,
)
from repro.distances.normalize import (
    RunningStats,
    minmax_normalize,
    sliding_mean_std,
    znormalize,
)
from repro.distances.registry import (
    DistanceRegistry,
    MetricSpec,
    get_metric,
    registered_metrics,
)
from repro.distances.variants import (
    derivative,
    derivative_dtw,
    dtw_barycenter,
    weighted_dtw,
)

__all__ = [
    "DistanceRegistry",
    "DtwPathBatch",
    "DtwResult",
    "MetricSpec",
    "QueryEnvelopeCache",
    "RunningStats",
    "TransferBound",
    "chebyshev",
    "derivative",
    "derivative_dtw",
    "dtw_barycenter",
    "dtw_cost_matrix",
    "dtw_distance",
    "dtw_distance_batch",
    "dtw_distance_early_abandon",
    "dtw_path",
    "dtw_path_batch",
    "euclidean",
    "euclidean_l1",
    "euclidean_l2",
    "get_metric",
    "group_pruning_lower_bound",
    "keogh_envelope",
    "lb_cascade",
    "lb_keogh",
    "lb_keogh_batch",
    "lb_kim",
    "lb_kim_batch",
    "minmax_normalize",
    "normalized_euclidean",
    "path_multiplicities",
    "registered_metrics",
    "sliding_mean_std",
    "transfer_bounds",
    "weighted_dtw",
    "znormalize",
]
