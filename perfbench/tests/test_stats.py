import statistics

import pytest

import stats


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (99, None),
    (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0),
    (1000, 99.0), (9999, 99.0),
    (10000, 99.9), (10**6, 99.9),
])
def test_tail_percentile_has_ten_samples_beyond_it(n, expected):
    assert stats.tail_percentile(n) == expected


def test_chosen_percentile_really_leaves_ten_samples_beyond():
    for n in range(1, 3000, 7):
        p = stats.tail_percentile(n)
        if p is not None:
            values = list(range(n))
            cut = stats.percentile(values, p)
            assert sum(v > cut for v in values) >= 10


def test_percentile_interpolates_between_ranks():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 100) == 5.0
    assert stats.percentile(values, 90) == pytest.approx(4.6)


def test_quartiles_match_the_statistics_module():
    values = [3.1, 2.9, 3.4, 3.0, 2.8, 3.3, 3.2]
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert stats.quartiles(values)[1] == statistics.median(values)
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_describe_reports_the_sample_count():
    text = stats.describe([1.0, 2.0, 3.0])
    assert "median 2.0000" in text and "3 runs" in text
    assert "no tail percentile below 100 runs" in text
    assert "p90" in stats.describe([float(i) for i in range(100)])
