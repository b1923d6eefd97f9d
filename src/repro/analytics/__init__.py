"""Collection-level analytics on top of the distance substrate.

- :mod:`repro.analytics.knn` — k-nearest-neighbour classification, the
  canonical evaluation for time series distances (1-NN DTW is the UCR
  archive yardstick) — used by experiment E14 to demonstrate the paper's
  premise that warping-robust similarity beats pointwise ED on shape
  data.
"""

from repro.analytics.knn import KnnClassifier

__all__ = ["KnnClassifier"]
