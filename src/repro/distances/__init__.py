"""Distance substrate: input validation, DTW, envelopes, lower bounds, the
transfer lemma, the metric registry.

This subpackage is self-contained (numpy, plus the optional compiled
kernels) and keeps one copy of each metric and bound the ONEX core and
the baselines need:

- :mod:`repro.distances.metrics` — input validation for every distance
  entry point, and ONEX's length-normalised ED.
- :mod:`repro.distances.dtw` — dynamic time warping: full matrix, optimal
  warping path, Sakoe–Chiba band, early abandoning, batch kernels.
- :mod:`repro.distances.native` — the compiled twins of the batch
  kernels and their loader.
- :mod:`repro.distances.envelope` — Keogh bounding envelopes in O(n).
- :mod:`repro.distances.lower_bounds` — LB_Kim / LB_Keogh, scalar and
  batched.
- :mod:`repro.distances.bounds` — the ED→DTW transfer inequality that is
  ONEX's theoretical foundation (DESIGN.md §2), which the query walk and
  the sensitivity profile prune on.
- :mod:`repro.distances.variants` — weighted DTW and DBA barycenters.
- :mod:`repro.distances.normalize` — min–max and z-normalisation plus
  streaming statistics.
- :mod:`repro.distances.registry` — the closed mapping of served metric
  names to distance kernels, batch kernels and lower-bound families
  (DESIGN.md §9).
"""
