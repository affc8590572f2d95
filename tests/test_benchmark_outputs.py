"""Every benchmark workload's full-size output, pinned by its sha256.

Each workload of ``perfbench/workloads.py`` runs one operation at the size
the benchmark runs it, with seed 1, and its summarized output is hashed: a
string as it is, a tuple as ``json.dumps`` of it.  A change that is meant to
keep outputs byte-identical keeps these digests; one that changes a digest
on purpose says so and records the new one.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "cli_gen": "b76081b346b8e86c67baa82b66f3ec36b35f0331ac6efbab3ab401b43d7ceaa1",
    "cli_test": "79f22b1ffed485935ca402ba5a34e2f20c928b3fda903667ebec571dba66fa24",
    "mc_null": "e32fc9820bffe89f5861fc0c8ddebfefc67f13c9691aaf6f496111a8764bece8",
    "select_h1": "f63c904c8dc7a5355af96279944cb1fdbcb2d0b891f2324f058e33918a813882",
    "certificates": "c0b4c504db49c9806f64a7bed6f6f056073141f1382caf924ef8009da87e8f38",
}


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_workload_output_digest(name, tmp_path):
    workload = _workloads().WORKLOADS[name](1, tmp_path)
    workload.setup()
    workload.before_run()
    output = workload.summarize(workload.run())
    text = output if isinstance(output, str) else json.dumps(output)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
