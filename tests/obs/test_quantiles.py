"""Tests for the shared nearest-rank percentile helper."""

from repro.obs.quantiles import nearest_rank


class TestNearestRank:
    def test_empty_returns_zero(self):
        assert nearest_rank([], 0.5) == 0.0

    def test_single_sample_is_every_percentile(self):
        for fraction in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert nearest_rank([7.0], fraction) == 7.0

    def test_does_not_sort_in_place(self):
        samples = [3.0, 1.0, 2.0]
        nearest_rank(samples, 0.5)
        assert samples == [3.0, 1.0, 2.0]

    def test_unsorted_input_handled(self):
        assert nearest_rank([4.0, 1.0, 3.0, 2.0], 0.5) == 2.0

    def test_exact_rank_boundary_small_sample(self):
        # ceil(0.5 * 4) = 2 -> the 2nd smallest, NOT the 3rd: the old
        # int(fraction * n) indexing read one element high whenever
        # fraction * n was integral.
        assert nearest_rank([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0

    def test_textbook_definition_on_1_to_100(self):
        samples = [float(value) for value in range(1, 101)]
        assert nearest_rank(samples, 0.50) == 50.0
        assert nearest_rank(samples, 0.95) == 95.0
        assert nearest_rank(samples, 0.99) == 99.0
        assert nearest_rank(samples, 1.00) == 100.0

    def test_non_integral_rank_rounds_up(self):
        # ceil(0.5 * 5) = 3 -> the true median of an odd-length list.
        assert nearest_rank([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0

    def test_zero_fraction_clamps_to_minimum(self):
        assert nearest_rank([5.0, 1.0, 3.0], 0.0) == 1.0

