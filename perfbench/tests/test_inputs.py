from pathlib import Path

import pytest

from perfbench import inputs


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", ["cli_short", "design_sweep", "mc_records"])
def test_same_seed_same_bytes_other_seed_other_bytes(workload, tmp_path):
    a = inputs.generate(workload, 7, tmp_path / "a", inputs.FULL)
    b = inputs.generate(workload, 7, tmp_path / "b", inputs.FULL)
    c = inputs.generate(workload, 8, tmp_path / "c", inputs.FULL)
    files_a, files_b, files_c = (_files(tmp_path / d) for d in "abc")
    assert files_a and files_a == files_b
    assert files_a.keys() == files_c.keys()
    assert all(files_a[name] != files_c[name] for name in files_a)
    if workload == "mc_records":
        assert [a.pass_seed(i) for i in range(3)] == [b.pass_seed(i) for i in range(3)]
        assert a.pass_seed(0) != c.pass_seed(0)
        assert len({a.pass_seed(i) for i in range(3)}) == 3


def test_sizes_do_not_depend_on_the_seed(tmp_path):
    a = inputs.generate("design_sweep", 1, tmp_path / "a", inputs.FULL)
    b = inputs.generate("design_sweep", 2, tmp_path / "b", inputs.FULL)
    assert a.search_points == b.search_points == 2 * 16 ** 3
    assert len(a.lengths.split(",")) == len(b.lengths.split(",")) == 20_000
    # The lengths travel as one argument; Linux caps one at 128 KiB.
    assert len(a.lengths) < 128 * 1024


def test_generated_configs_load(tmp_path):
    from passive_decoy.config import load_run_config
    for workload in ("cli_short", "design_sweep", "mc_records"):
        inputs.generate(workload, 3, tmp_path / workload, inputs.FULL)
        for path in (tmp_path / workload).glob("*.json"):
            assert load_run_config(str(path)).channel is not None
