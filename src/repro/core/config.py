"""Parameter records for ONEX base construction and querying."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.deadline import Deadline
from repro.exceptions import ValidationError

__all__ = ["BuildConfig", "QueryConfig"]


@dataclass(frozen=True)
class BuildConfig:
    """Parameters of the offline ONEX base construction (§3.1).

    Attributes
    ----------
    similarity_threshold:
        ``ST`` — two subsequences are "similar" when their
        length-normalised L1 distance is below this.  Groups are built so
        members sit within ``ST/2`` of their representative.  On a [0, 1]
        min–max normalised dataset, useful values are roughly 0.01–0.3; the
        threshold recommender (:mod:`repro.core.threshold`) suggests one.
    min_length / max_length:
        Subsequence length range to index.  The raw subsequence count grows
        quadratically with series length, so bounding the range is how
        deployments keep preprocessing tractable.
    step:
        Stride between window starts (1 = every subsequence, the paper's
        setting).
    normalize:
        Min–max normalise the dataset (collection-level bounds) at load
        time; the paper always does.
    num_workers:
        Fan the per-length build jobs over this many workers.  ``1`` (the
        default) runs the jobs in-process with no executor; higher values
        engage the configured pool.  Per-length jobs are shared-nothing
        and merged deterministically, so every setting builds an
        identical base (``OnexBase.structure_fingerprint``) — this is an
        execution knob, not a semantic parameter, and it is deliberately
        **not** persisted in saved bases.
    build_executor:
        Pool flavour for ``num_workers > 1``: ``"process"`` (the default;
        sidesteps the GIL — the clustering scan keeps Python-level
        bookkeeping per block) or ``"thread"`` (no fork/pickle overhead;
        useful when the dataset is large relative to the clustering
        work, or where subprocesses are unavailable).
    """

    similarity_threshold: float
    min_length: int
    max_length: int
    step: int = 1
    normalize: bool = True
    num_workers: int = 1
    build_executor: str = "process"

    def __post_init__(self) -> None:
        if not self.similarity_threshold > 0:
            raise ValidationError(
                f"similarity_threshold must be > 0, got {self.similarity_threshold}"
            )
        if self.min_length < 2:
            raise ValidationError(f"min_length must be >= 2, got {self.min_length}")
        if self.max_length < self.min_length:
            raise ValidationError(
                f"max_length ({self.max_length}) < min_length ({self.min_length})"
            )
        if self.step < 1:
            raise ValidationError(f"step must be >= 1, got {self.step}")
        if self.num_workers < 1:
            raise ValidationError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.build_executor not in ("process", "thread"):
            raise ValidationError(
                "build_executor must be 'process' or 'thread', "
                f"got {self.build_executor!r}"
            )

    @property
    def group_radius(self) -> float:
        """``ST/2`` — the member-to-representative construction radius."""
        return self.similarity_threshold / 2.0


@dataclass(frozen=True)
class QueryConfig:
    """Parameters of the online query phase (§3.2/3.3).

    Attributes
    ----------
    mode:
        ``"fast"`` — the paper's strategy: rank representatives by DTW,
        refine only the most promising ``refine_groups`` groups.  Several
        times faster; may miss a best match hiding in an unrefined group.
        ``"exact"`` — refine every group not excluded by a *provable*
        lower bound; always returns the true best match over the indexed
        subsequences.
    refine_groups:
        How many top-ranked groups the fast mode refines (1 reproduces the
        demo's behaviour; a handful trades a little speed for accuracy).
    window:
        Optional Sakoe–Chiba radius for all DTW evaluations.
    use_lower_bounds:
        Toggle the LB_Kim/LB_Keogh pre-filters of the member-refinement
        stage (ablation E9 switches this off).
    use_group_pruning:
        Toggle the transfer-inequality group pruning (ablation E9).
        These two are the paper's §3.3 optimisations and the only
        execution toggles: no field selects between two implementations
        of one stage (DESIGN.md §1).
    deadline:
        Default cooperative :class:`~repro.core.deadline.Deadline` for
        every operation run under this config, checked at the cascade's
        chunk boundaries (DESIGN.md §6).  ``None`` (the default) runs
        unbounded; per-call ``deadline=`` arguments override it.  A
        finished-in-budget operation is bit-identical to an unbounded
        one — the deadline is pure control flow, never a result knob.
    metric:
        Distance metric for query/threshold operations, resolved through
        :mod:`repro.distances.registry` (DESIGN.md §9).  ``"dtw"`` (the
        default) on a univariate base runs the classic representative
        cascade, bit-identical to the pre-registry engine; every other
        metric — and any metric on a multivariate base — runs the
        metric scan with that metric's lower-bound prescreen where one is
        registered and a brute-force-verified full scan where it isn't.
        Unknown names raise :class:`~repro.exceptions.ValidationError`.
    """

    mode: str = "fast"
    refine_groups: int = 1
    window: int | None = None
    use_lower_bounds: bool = True
    use_group_pruning: bool = True
    deadline: Deadline | None = None
    metric: str = "dtw"

    def __post_init__(self) -> None:
        from repro.distances.registry import get_metric

        if self.mode not in ("fast", "exact"):
            raise ValidationError(f"mode must be 'fast' or 'exact', got {self.mode!r}")
        get_metric(self.metric)  # ValidationError for unknown names
        if self.refine_groups < 1:
            raise ValidationError(
                f"refine_groups must be >= 1, got {self.refine_groups}"
            )
        if self.window is not None and self.window < 0:
            raise ValidationError(f"window must be >= 0, got {self.window}")
        if self.deadline is not None and not isinstance(self.deadline, Deadline):
            raise ValidationError(
                f"deadline must be a Deadline, got {type(self.deadline).__name__}"
            )
