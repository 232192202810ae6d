"""The benchmark's recorded outputs, held in tier-1.

Config seed 1 of every warm workload in ``perfbench/workloads.py`` runs
through ``run_experiment``, the path a benchmark pass takes, and the sha256
of each rendered report must equal the one in ``perfbench/golden.json``.
The runs read a private copy of ``.selector-cache``, as a benchmark pass
does, so a family missing there is built into the copy and the repository
cache is not written.
"""

import hashlib
import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from beepnet.harness import ExperimentConfig, run_experiment
from beepnet.selectors import clear_memory_cache

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
SEED = WORKLOADS.CONFIG_SEEDS[0]


@pytest.fixture
def private_cache(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir()
    for path in (ROOT / ".selector-cache").glob("*.txt"):
        shutil.copyfile(path, cache / path.name)
    monkeypatch.setenv("BEEPNET_CACHE_DIR", str(cache))
    clear_memory_cache()
    yield cache
    clear_memory_cache()


def test_warm_workloads_reproduce_the_golden_reports(private_cache):
    golden = json.loads((BENCH / "golden.json").read_text())
    for workload, configs in WORKLOADS.WARM.items():
        for label, spec in configs:
            report = run_experiment(ExperimentConfig(seeds=(SEED,), **spec))
            assert report.ok, (workload, label)
            digest = hashlib.sha256(report.render().encode()).hexdigest()
            assert digest == golden[workload][label][str(SEED)], (workload, label)
