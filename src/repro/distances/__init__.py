"""Distance substrate: ED family, DTW, envelopes, lower bounds, transfer bounds.

This subpackage is self-contained (numpy only) and provides every distance
primitive the ONEX core and the baselines need:

- :mod:`repro.distances.metrics` — Euclidean-family distances on
  equal-length sequences (L1 / L2 / Chebyshev, raw and length-normalised).
- :mod:`repro.distances.dtw` — dynamic time warping: full matrix, optimal
  warping path, Sakoe–Chiba band, early abandoning, normalised variants.
- :mod:`repro.distances.envelope` — Keogh bounding envelopes in O(n).
- :mod:`repro.distances.lower_bounds` — LB_Kim / LB_Keogh, scalar and
  batched.
- :mod:`repro.distances.bounds` — the ED↔DTW transfer inequality that is
  ONEX's theoretical foundation (DESIGN.md §2).
- :mod:`repro.distances.normalize` — min–max and z-normalisation plus
  streaming statistics.
- :mod:`repro.distances.registry` — the pluggable metric registry mapping
  names to distance kernels, batch kernels, and lower-bound families
  (DESIGN.md §9).
"""
