"""Smoke test of the e2e benchmark: ``pytest benchmarks/e2e -q``.

Not part of tier-1 (whose ``testpaths`` is ``tests``).  One ``--quick``
run of the whole set (~15 s) must emit every workload and metric that
``BENCHMARK.json`` names exactly once, with the declared unit, and its
traced spans must nest into consistent trees.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEED = 5


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "record.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", str(SEED),
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, json.loads(out.read_text(encoding="utf-8"))


def test_names_are_well_formed():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_every_metric_emitted_once_with_its_unit(quick_run):
    stdout, record = quick_run
    results = [json.loads(line) for line in stdout.splitlines() if line.startswith('{"correct"')]
    # per workload: one timed result (end-to-end), then one traced (per-layer)
    assert len(results) == 2 * len(SPEC["workloads"])
    for i, workload in enumerate(SPEC["workloads"]):
        for result, declared in ((results[2 * i], SPEC["end_to_end"]),
                                 (results[2 * i + 1], SPEC["per_layer"])):
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            assert list(result["metrics"]) == [m["name"] for m in declared]
            for metric in declared:
                assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        # printed by name, once per run that owns it
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            pattern = r"^  {} +\S+ {}$".format(re.escape(metric["name"]), re.escape(metric["unit"]))
            assert len(re.findall(pattern, stdout, flags=re.M)) == len(SPEC["workloads"])
        merged = record["workloads"][workload["name"]]
        assert set(merged["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert set(merged["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert record["comparable"] is False
    assert set(record["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    # a layer metric nobody computes would read 0 everywhere; these may:
    # no faults are injected, and the --quick shard fits its LRU whole
    quiet = {"runtime.local.retries", "store.decode_ms", "store.bytes_read_per_round",
             "store.evictions_per_round"}
    for metric in SPEC["per_layer"]:
        if metric["name"] not in quiet:
            assert any(run["per_layer"][metric["name"]]
                       for run in record["workloads"].values()), metric["name"]


def test_pairs_measured_the_same_input_and_agree(quick_run):
    _, record = quick_run
    runs = record["workloads"]
    for name, control in (("lr_store", "lr_sim"), ("fm_local", "fm_sim")):
        assert runs[name]["input_sha256"] == runs[control]["input_sha256"]
        assert runs[name]["check_loss"] == pytest.approx(runs[control]["check_loss"], rel=1e-9)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_self_times_sum_to_the_root_spans(quick_run, workload):
    spans = [
        json.loads(line) for line in
        (HERE / "results" / "{}-seed{}.spans.jsonl".format(workload, SEED)).read_text().splitlines()
    ]
    duration = {s["id"]: s["end"] - s["start"] for s in spans}
    own = dict(duration)
    root_of = {}
    for span in spans:                       # ids are in start order: parents first
        parent = span["parent"]
        if parent < 0:
            root_of[span["id"]] = span["id"]
            continue
        assert parent < span["id"]
        own[parent] -= duration[span["id"]]
        root_of[span["id"]] = root_of[parent]
    assert min(own.values()) > -1e-6         # children fit inside their parent
    per_root = {}
    for span_id, root in root_of.items():
        per_root[root] = per_root.get(root, 0.0) + own[span_id]
    rounds = [s for s in spans if s["parent"] < 0 and s["name"] in (
        "core.driver.run_round", "core.localexec.run_local_columnsgd")]
    assert rounds
    for span in rounds:
        assert per_root[span["id"]] == pytest.approx(duration[span["id"]], rel=0.02)
