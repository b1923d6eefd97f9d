"""ONEX core: similarity groups, the ONEX base, and exploratory operations.

This package is the paper's primary contribution:

- :mod:`repro.core.config` — build/query parameter records.
- :mod:`repro.core.grouping` — ONEX similarity groups (§3.1).
- :mod:`repro.core.base` — the compact ONEX base built offline with ED.
- :mod:`repro.core.query` — DTW-powered online query processor (§3.2/3.3).
- :mod:`repro.core.seasonal` — recurring-pattern (seasonal) mining (Fig. 4).
- :mod:`repro.core.threshold` — data-driven similarity-threshold
  recommendation (§3.3).
- :mod:`repro.core.engine` — the facade mirroring Fig. 1's architecture.
"""

from repro.core.base import BaseStats, OnexBase
from repro.core.config import BuildConfig, QueryConfig
from repro.core.engine import OnexEngine
from repro.core.grouping import SimilarityGroup
from repro.core.query import Match, QueryProcessor, QueryStats
from repro.core.seasonal import SeasonalPattern, find_seasonal_patterns
from repro.core.sensitivity import SensitivityProfile, similarity_profile
from repro.core.threshold import ThresholdRecommendation, recommend_thresholds

__all__ = [
    "BaseStats",
    "BuildConfig",
    "Match",
    "OnexBase",
    "OnexEngine",
    "QueryConfig",
    "QueryProcessor",
    "QueryStats",
    "SeasonalPattern",
    "SensitivityProfile",
    "SimilarityGroup",
    "ThresholdRecommendation",
    "find_seasonal_patterns",
    "recommend_thresholds",
    "similarity_profile",
]
