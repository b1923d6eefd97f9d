"""Data substrate: time series model, collections, generators, file formats.

- :mod:`repro.data.timeseries` — the immutable :class:`TimeSeries` record.
- :mod:`repro.data.dataset` — :class:`TimeSeriesDataset`, a heterogeneous
  variable-length collection with subsequence enumeration (the raw material
  of the ONEX base) and collection-level min–max normalisation.
- :mod:`repro.data.windows` — strided window extraction for the builder.
- :mod:`repro.data.synthetic` — reusable signal generators.
- :mod:`repro.data.matters` — simulated MATTERS economic panel (DESIGN.md
  substitution S3).
- :mod:`repro.data.electricity` — simulated ElectricityLoad collection
  (substitution S4).
- :mod:`repro.data.ucr_format` — UCR-archive-style text files.
"""

from repro.data.dataset import SubsequenceRef, TimeSeriesDataset
from repro.data.electricity import build_electricity_collection
from repro.data.matters import build_matters_collection
from repro.data.timeseries import TimeSeries
from repro.data.ucr_format import load_ucr_file, save_ucr_file

__all__ = [
    "SubsequenceRef",
    "TimeSeries",
    "TimeSeriesDataset",
    "build_electricity_collection",
    "build_matters_collection",
    "load_ucr_file",
    "save_ucr_file",
]
