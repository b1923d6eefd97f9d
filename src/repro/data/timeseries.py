"""The immutable time series record used throughout the library."""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Mapping

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["TimeSeries"]


class TimeSeries:
    """A named, immutable, uniformly sampled time series.

    Instances are the unit the ONEX engine ingests: heterogeneous lengths
    are expected and fine.  Values are stored as a read-only float64 array —
    1-D ``(length,)`` for the classic univariate case, or 2-D ``(length,
    channels)`` for multivariate series where each time step carries one
    observation per channel.  *metadata* carries domain attributes (state,
    indicator, units, start year, ...) that the visual layer surfaces but
    the algorithms ignore.
    """

    __slots__ = ("_name", "_values", "_metadata")

    def __init__(self, name: str, values, metadata: Mapping[str, Any] | None = None) -> None:
        if not isinstance(name, str) or not name:
            raise ValidationError("name must be a non-empty string")
        arr = np.array(values, dtype=np.float64, copy=True)
        if arr.ndim not in (1, 2):
            raise ValidationError(
                f"series {name!r}: values must be 1-D (length,) or 2-D "
                f"(length, channels), got shape {arr.shape}"
            )
        if arr.ndim == 2 and arr.shape[1] == 0:
            raise ValidationError(
                f"series {name!r}: must have at least one channel"
            )
        if arr.size == 0:
            raise ValidationError(f"series {name!r}: values must be non-empty")
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"series {name!r}: values contain NaN/inf")
        arr.flags.writeable = False
        self._name = name
        self._values = arr
        self._metadata = MappingProxyType(dict(metadata or {}))

    @classmethod
    def _wrap(cls, name: str, values: np.ndarray, metadata: Mapping[str, Any]) -> "TimeSeries":
        """Internal no-copy constructor for pre-validated values.

        *values* must be a read-only float64 array the caller guarantees
        is finite and never mutated in range: a snapshot's mapped array,
        or a prefix view of a store ``OnexBase.grow_series`` only ever
        writes past.
        """
        self = object.__new__(cls)
        self._name = name
        self._values = values
        self._metadata = MappingProxyType(dict(metadata))
        return self

    @property
    def name(self) -> str:
        return self._name

    @property
    def values(self) -> np.ndarray:
        """Read-only float64 array of the observations."""
        return self._values

    @property
    def metadata(self) -> Mapping[str, Any]:
        return self._metadata

    @property
    def channels(self) -> int:
        """Observations per time step (1 for classic univariate series)."""
        return 1 if self._values.ndim == 1 else self._values.shape[1]

    def __len__(self) -> int:
        return self._values.shape[0]

    def subsequence(self, start: int, length: int) -> np.ndarray:
        """Contiguous window ``values[start : start + length]`` (a view).

        Raises :class:`ValidationError` when the window falls outside the
        series, rather than silently returning a short slice.
        """
        if length <= 0:
            raise ValidationError(f"length must be positive, got {length}")
        if start < 0 or start + length > len(self):
            raise ValidationError(
                f"window [{start}, {start + length}) outside series "
                f"{self._name!r} of length {len(self)}"
            )
        return self._values[start : start + length]

    def with_values(self, values) -> "TimeSeries":
        """Copy of this series with replaced values (same name/metadata)."""
        return TimeSeries(self._name, values, self._metadata)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return (
            self._name == other._name
            and self._values.shape == other._values.shape
            and bool(np.array_equal(self._values, other._values))
        )

    def __hash__(self) -> int:
        return hash((self._name, self._values.tobytes()))

    def __repr__(self) -> str:
        if self._values.ndim == 2:
            return (
                f"TimeSeries({self._name!r}, n={len(self)}, "
                f"channels={self.channels})"
            )
        head = ", ".join(f"{v:.3g}" for v in self._values[:4])
        ellipsis = ", ..." if len(self) > 4 else ""
        return f"TimeSeries({self._name!r}, [{head}{ellipsis}], n={len(self)})"
