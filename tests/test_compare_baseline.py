"""benchmarks/compare_baseline.py gates on the median, not the mean."""

import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / \
    "compare_baseline.py"


def _load():
    spec = importlib.util.spec_from_file_location("compare_baseline", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path, median, mean):
    path.write_text(json.dumps({"benchmarks": [
        {"name": "test_bench_x", "stats": {"median": median, "mean": mean}},
    ]}))
    return str(path)


def test_mean_outlier_with_level_median_passes(tmp_path):
    # One stalled round drags the mean to 3.5x; the median is 1.1x.
    baseline = _write(tmp_path / "base.json", median=1.0, mean=1.0)
    current = _write(tmp_path / "cur.json", median=1.1, mean=3.5)
    assert _load().main([baseline, current, "--max-ratio", "3.0"]) == 0


def test_median_regression_fails(tmp_path):
    baseline = _write(tmp_path / "base.json", median=1.0, mean=1.0)
    current = _write(tmp_path / "cur.json", median=3.5, mean=3.5)
    assert _load().main([baseline, current, "--max-ratio", "3.0"]) == 1
