"""The benchmark's seed-0 outputs, gated here so that every test run checks them.

Each workload of ``perfbench/workloads.py`` is built at full size from seed
0 and run once, untimed, and once more on its unit-permuted copy where it
has one.  The exact before/after differences and subclass sizes of every
report must hash to the digest recorded below, which is
``perfbench/reference.json``'s.  The copy is kept here because that file
changes only with the benchmark: a change that moves these digests for a
stated reason re-records them here, and the benchmark's next revision
brings its own file along.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

SEED_0_DIGESTS = {
    "sim_mech2": "3db360df846a9774ce5016e40056b48f60807a1079abf46e317a5cbc21313c6f",
    "balance_cli_80k": "f955d1a3758aadcd13072755202d21ef14d724c05721bf18b08a51c6aa2b0dc8",
    "balance_exact_80k": "6d2ef1b73780c5192c36476e7651e7430a6a645f93add3ec932887f76325460b",
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_0_digest_is_unchanged(name, tmp_path):
    workload = workloads.WORKLOADS[name](0, "full", tmp_path)
    passes = (False, True) if workload.permutable else (False,)
    for permuted in passes:
        with workloads.captured_reports() as reports:
            workload.run(permuted=permuted)
        assert workloads.numbers_digest(reports) == SEED_0_DIGESTS[name], (
            f"{name}, {'unit-permuted' if permuted else 'unit-ordered'} pass"
        )
