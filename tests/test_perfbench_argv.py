"""Every command line the benchmark runs still parses, and its one library call still runs.

``perfbench/workloads.py`` drives the CLI through argv lists and calls
``voronoi_diameter_estimate`` directly for ``vdiam6``, so a renamed or removed
flag or name would otherwise surface only when the benchmark runs.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

from spherecorr import cli  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_argvs_parse(monkeypatch, name):
    recorded = []

    def record(argv):
        recorded.append(list(argv))
        return lambda: (0, "")

    monkeypatch.setattr(workloads, "cli_runner", record)
    workloads.build(name, 0)
    assert recorded
    parser = cli.build_parser()
    for argv in recorded:
        parser.parse_args(argv)  # exits 2 on an unknown flag


def test_vdiam6_library_call_runs(monkeypatch):
    monkeypatch.setattr(workloads, "VDIAM6_SAMPLES", 2000)
    (op,) = [op for op in workloads.build("refine", 0).ops if op.name == "vdiam6"]
    code, text = op.run()
    assert code == 0
    assert {"value", "u", "v"} <= set(json.loads(text))
