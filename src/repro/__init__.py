"""ONEX reproduction: interactive time series analytics.

Reproduction of Neamtu et al., *Interactive Time Series Analytics Powered
by ONEX* (SIGMOD 2017 demo).  The package marries two distances: cheap
Euclidean grouping offline (the compact "ONEX base") and robust DTW
exploration online, with a proven transfer inequality bridging the two.

Quickstart::

    from repro import OnexEngine, build_matters_collection

    engine = OnexEngine()
    engine.load_dataset(build_matters_collection())
    query = engine.query_from_series("MATTERS-sim", "MA/GrowthRate")
    match = engine.best_match("MATTERS-sim", query)
    print(match.series_name, match.distance)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.analytics import KnnClassifier
from repro.baselines import (
    BruteForceSearcher,
    EmbeddingSearcher,
    SpringMatcher,
    UcrSuiteSearcher,
)
from repro.core import (
    BaseStats,
    BuildConfig,
    Match,
    OnexBase,
    OnexEngine,
    QueryConfig,
    QueryProcessor,
    QueryStats,
    SeasonalPattern,
    SensitivityProfile,
    SimilarityGroup,
    ThresholdRecommendation,
    find_seasonal_patterns,
    recommend_thresholds,
    similarity_profile,
)
from repro.data import (
    SubsequenceRef,
    TimeSeries,
    TimeSeriesDataset,
    build_electricity_collection,
    build_matters_collection,
    load_ucr_file,
    save_ucr_file,
)
from repro.exceptions import (
    DatasetError,
    InvariantError,
    NotBuiltError,
    OnexError,
    ProtocolError,
    ValidationError,
)
from repro.stream import (
    MonitorRegistry,
    OnlineSpringMatcher,
    PatternMonitor,
    StreamEvent,
    StreamIngestor,
)

__version__ = "1.0.0"

__all__ = [
    "BaseStats",
    "BruteForceSearcher",
    "BuildConfig",
    "EmbeddingSearcher",
    "KnnClassifier",
    "SpringMatcher",
    "UcrSuiteSearcher",
    "DatasetError",
    "InvariantError",
    "Match",
    "MonitorRegistry",
    "NotBuiltError",
    "OnexBase",
    "OnexEngine",
    "OnexError",
    "OnlineSpringMatcher",
    "PatternMonitor",
    "ProtocolError",
    "QueryConfig",
    "QueryProcessor",
    "QueryStats",
    "SeasonalPattern",
    "SensitivityProfile",
    "SimilarityGroup",
    "StreamEvent",
    "StreamIngestor",
    "SubsequenceRef",
    "ThresholdRecommendation",
    "TimeSeries",
    "TimeSeriesDataset",
    "ValidationError",
    "build_electricity_collection",
    "build_matters_collection",
    "find_seasonal_patterns",
    "load_ucr_file",
    "recommend_thresholds",
    "save_ucr_file",
    "similarity_profile",
    "__version__",
]
