"""BENCHMARK.json is generated from the code and stays within the contract."""

import json
import re
from pathlib import Path

from bench.run import END_TO_END, manifest

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_code():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == manifest()


def test_manifest_respects_the_contract_limits():
    data = manifest()
    assert set(data) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(data["workloads"]) <= 8
    assert 1 <= len(data["end_to_end"]) <= 16
    assert 1 <= len(data["per_layer"]) <= 128
    assert 1 <= data["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in data[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in data["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in data["end_to_end"] + data["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("higher", "lower")
    for entry in data["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    assert END_TO_END["setup_s"][:2] == ("s", "lower")
    assert END_TO_END["setup_s"][2] == max(bound for _, _, bound in END_TO_END.values())
    # 4 + 22 runs per workload, set-up included, within 3420 s.
    runs = 4 + 22 * len(data["workloads"])
    assert runs * (data["run_seconds"] + 12) <= 3420
