import resource
import sys
from pathlib import Path

import pytest

from perfbench import harness


@pytest.mark.parametrize("n, want", [(1000, 90), (100, 90), (99, 89), (30, 66),
                                     (25, 60), (20, 50), (19, None), (0, None)])
def test_tail_percentile_leaves_ten_samples_beyond(n, want):
    p = harness.tail_percentile(n)
    assert p == want
    if p is not None:
        assert n * (100 - p) >= 10 * 100
        assert p == 90 or n * (100 - (p + 1)) < 10 * 100


def test_percentile_interpolates_like_numpy():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert harness.percentile(xs, 0) == 1.0
    assert harness.percentile(xs, 50) == 3.0
    assert harness.percentile(xs, 90) == pytest.approx(4.6)
    assert harness.percentile(xs, 100) == 5.0


def test_quartile_spread_is_iqr_over_median():
    xs = [10.0, 11.0, 9.0, 10.0, 10.5, 9.5, 10.0, 10.0, 10.2, 9.8]
    q1, _, q3 = harness.statistics.quantiles(xs, n=4)
    assert harness.quartile_spread(xs) == pytest.approx((q3 - q1) / 10.0)


def test_pin_threads_caps_at_nproc():
    env = {"OMP_NUM_THREADS": "64", "MKL_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "zero", "PASSIVE_DECOY_THREADS": "0"}
    harness.pin_threads(env, 4)
    assert env["OMP_NUM_THREADS"] == "4"
    assert env["MKL_NUM_THREADS"] == "1"
    assert env["OPENBLAS_NUM_THREADS"] == "4"
    assert env["PASSIVE_DECOY_THREADS"] == "4"
    assert env["NUMEXPR_NUM_THREADS"] == "4"          # unset before


def _allocating_child(mb: int) -> list[str]:
    return [sys.executable, "-c", f"b = bytearray({mb} << 20); b[::4096] = b'x' * len(b[::4096])"]


def test_peak_rss_is_per_child(tmp_path: Path):
    big = harness.run_child(_allocating_child(120), {}, tmp_path, tmp_path / "err")
    small = harness.run_child(_allocating_child(8), {}, tmp_path, tmp_path / "err")
    assert big.exit_code == small.exit_code == 0
    assert big.peak_rss_mb > 120
    assert small.peak_rss_mb < big.peak_rss_mb - 80
    # The running maximum over all children still reports the big one.
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    assert children >= big.peak_rss_mb - 1


def test_run_child_reports_exit_code_and_stderr(tmp_path: Path):
    res = harness.run_child([sys.executable, "-c", "import sys; sys.exit('boom')"],
                            {}, tmp_path, tmp_path / "err")
    assert res.exit_code == 1
    assert "boom" in res.stderr
    assert res.wall_s > 0
