import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """One full pipeline run, in-process, on a small synthetic corpus with
    the benchmark's config: (setup inputs, output directory)."""
    import workloads
    from stancelab.config import load_config
    from stancelab.pipeline import Pipeline

    w = workloads.Workload("test_run", 400, boost=workloads.RECENT_BOOST)
    inputs = workloads.setup(w, 3, tmp_path_factory.mktemp("bench") / "s")
    Pipeline(load_config(inputs.dir / "config.yaml")).run_all()
    return inputs, inputs.dir / "out"
