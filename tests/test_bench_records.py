"""The benchmark records at the root of the repository: each ``BENCH_*.json``
loads, says what it measured and how, and names in its claim only a workload
and a metric that ``BENCHMARK.json`` declares."""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED = ("parent", "change", "command", "host", "method")


def _declared() -> tuple[set, set]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = bench["end_to_end"] + bench["per_layer"]
    return {w["name"] for w in bench["workloads"]}, {m["name"] for m in metrics}


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    assert [key for key in REQUIRED if key not in record] == []
    claim = record.get("claim")
    if isinstance(claim, dict) and "workload" in claim and "metric" in claim:
        workloads, metrics = _declared()
        assert claim["workload"] in workloads
        assert claim["metric"] in metrics
