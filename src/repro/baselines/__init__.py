"""Baselines the paper positions ONEX against.

- :mod:`repro.baselines.brute_force` — exact DTW scan over every
  subsequence; the accuracy ground truth (S10 in DESIGN.md).
- :mod:`repro.baselines.ucr_suite` — the UCR Suite of Rakthanmanon et al.
  (SIGKDD 2012), "the fastest known method" the paper benchmarks against
  (S11).
- :mod:`repro.baselines.embedding` — EBSM-style landmark embedding
  (Athitsos et al., SIGMOD 2008), the approximate-camp representative
  (S13).
- :mod:`repro.baselines.spring` — SPRING stream monitoring under DTW
  (Sakurai et al., ICDE 2007), the exact-streaming camp (reference [7]).
"""

from repro.baselines.brute_force import BruteForceSearcher
from repro.baselines.embedding import EmbeddingSearcher
from repro.baselines.spring import SpringMatcher
from repro.baselines.ucr_suite import UcrSuiteSearcher

__all__ = [
    "BruteForceSearcher",
    "EmbeddingSearcher",
    "SpringMatcher",
    "UcrSuiteSearcher",
]
