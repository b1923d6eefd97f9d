"""Unit tests for repro.analytics.knn (k-NN classification)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analytics.knn import KnnClassifier
from repro.data.synthetic import cylinder_bell_funnel, noisy_sine
from repro.distances.dtw import dtw_distance
from repro.distances.metrics import normalized_euclidean
from repro.exceptions import ValidationError

#: Integer-valued draws, so that equal distances (ties) are common.
integer_valued = st.integers(min_value=-3, max_value=3).map(float)


def make_cbf(kinds, count, noise=0.2, start_seed=0, n=64):
    data, labels = [], []
    seed = start_seed
    for kind in kinds:
        for _ in range(count):
            data.append(cylinder_bell_funnel(kind, n, noise=noise, seed=seed))
            labels.append(kind)
            seed += 1
    return data, labels


class TestKnn:
    def test_cbf_classification_well_above_chance(self):
        train_x, train_y = make_cbf(("cylinder", "bell", "funnel"), 8, start_seed=0)
        test_x, test_y = make_cbf(("cylinder", "bell", "funnel"), 3, start_seed=100)
        clf = KnnClassifier(1, window=5).fit(train_x, train_y)
        assert clf.score(test_x, test_y) >= 0.7  # chance is 1/3

    def test_self_classification_perfect(self):
        train_x, train_y = make_cbf(("cylinder", "bell"), 4, start_seed=10)
        clf = KnnClassifier(1).fit(train_x, train_y)
        assert clf.score(train_x, train_y) == 1.0

    def test_k3_majority_vote(self):
        references = [np.zeros(8), np.zeros(8) + 0.01, np.full(8, 5.0)]
        labels = ["low", "low", "high"]
        clf = KnnClassifier(3).fit(references, labels)
        assert clf.predict(np.zeros(8) + 0.005) == "low"

    def test_tie_breaks_to_nearest(self):
        references = [np.zeros(8), np.full(8, 1.0)]
        clf = KnnClassifier(2).fit(references, ["a", "b"])
        assert clf.predict(np.full(8, 0.1)) == "a"

    def test_custom_distance_changes_result(self):
        """A spike shifted in time: DTW says same class, ED says other."""
        spike_early = np.zeros(20)
        spike_early[3] = 5.0
        spike_late = np.zeros(20)
        spike_late[16] = 5.0
        flatline = np.full(20, 0.25)
        refs = [spike_late, flatline]
        labels = ["spike", "flat"]
        query = spike_early
        dtw_clf = KnnClassifier(1).fit(refs, labels)
        ed_clf = KnnClassifier(1, distance=normalized_euclidean).fit(refs, labels)
        assert dtw_clf.predict(query) == "spike"
        assert ed_clf.predict(query) == "flat"

    def test_neighbors_sorted(self):
        train_x, train_y = make_cbf(("cylinder", "bell"), 5, start_seed=20)
        clf = KnnClassifier(3).fit(train_x, train_y)
        neighbors = clf.neighbors(train_x[0])
        dists = [d for d, _ in neighbors]
        assert dists == sorted(dists)
        assert neighbors[0][0] == pytest.approx(0.0)

    def test_variable_length_references(self):
        refs = [noisy_sine(n, period=10.0, seed=n) for n in (20, 30)]
        clf = KnnClassifier(1).fit(refs, ["short", "long"])
        assert clf.predict(noisy_sine(22, period=10.0, seed=99)) in ("short", "long")

    def test_validation(self):
        with pytest.raises(ValidationError):
            KnnClassifier(0)
        clf = KnnClassifier(1)
        with pytest.raises(ValidationError, match="not fitted"):
            clf.predict([1.0, 2.0])
        with pytest.raises(ValidationError):
            clf.fit([np.zeros(5)], ["a", "b"])
        with pytest.raises(ValidationError):
            KnnClassifier(5).fit([np.zeros(5)], ["a"])
        fitted = KnnClassifier(1).fit([np.zeros(5)], ["a"])
        with pytest.raises(ValidationError):
            fitted.score([], [])


@pytest.mark.usefixtures("kernel_backend")
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    query=st.lists(integer_valued, min_size=1, max_size=8),
    references=st.lists(
        st.lists(integer_valued, min_size=1, max_size=8), min_size=3, max_size=10
    ),
    k=st.sampled_from([1, 3]),
    window=st.sampled_from([None, 2]),
)
def test_neighbors_equal_a_per_reference_loop(query, references, k, window):
    """One ragged kernel call per query gives the per-reference scan's
    ``k`` smallest ``(distance, index)`` pairs, ties to the lower index."""
    clf = KnnClassifier(k, window=window).fit(references, range(len(references)))
    scan = sorted(
        (dtw_distance(query, ref, window=window), idx)
        for idx, ref in enumerate(references)
    )
    assert clf.neighbors(query) == scan[:k]
