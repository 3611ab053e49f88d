import json

import pytest

from spikelab.verification import run_verification


@pytest.mark.parametrize("master_seed", [0, 11])
def test_battery_identical_at_any_worker_count(master_seed):
    # the reproducibility contract: the master seed alone fixes the report
    reports = [run_verification(n_small=50, seeds=4, master_seed=master_seed,
                                workers=workers).to_jsonable()
               for workers in (1, 2)]
    serial, threaded = (json.dumps(r, sort_keys=True) for r in reports)
    assert serial == threaded
