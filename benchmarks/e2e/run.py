"""End-to-end + per-layer benchmark of ColumnSGD (see README.md here).

Ways in::

    python3 benchmarks/e2e/run.py                      # all workloads, timed + traced
    python3 benchmarks/e2e/run.py --quick              # same path, small, not comparable
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --workload lr_sim --seed 5 --seconds 22 --trace 0

The last form is the one-workload contract of ``BENCHMARK.json``: it
ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}`` holding the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``).  Without ``--workload`` every
workload runs that form in a fresh interpreter, one after another, and
the merged record is written under ``results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
WORK = HERE / ".work"          # store shards of lr_store; emptied after each run
SPEC = ROOT / "BENCHMARK.json"
QUICK_SECONDS = 0.4
#: numbers that repeat exactly between runs of one commit on one seed
EXACT = (
    "input_sha256", "check_loss", "linalg.csr.take_rows_calls", "linalg.ops.flops_per_round",
    "runtime.local.wire_bytes_per_round", "store.bytes_read_per_round",
)


def fail(message: str) -> "NoReturn":
    print("benchmarks/e2e: " + message, file=sys.stderr)
    raise SystemExit(2)


def load_spec() -> dict:
    if not SPEC.is_file():
        fail("no BENCHMARK.json at {}".format(ROOT))
    return json.loads(SPEC.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def run_one(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        fail("the program under test (src/repro) is not in this checkout")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from measure import END_TO_END, PER_LAYER, run_workload

    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick, WORK, RESULTS)
    units = PER_LAYER if args.trace else END_TO_END
    print("  rounds: {} check + {} timed in {:.2f}s, p50 {:.3f} ms, p95 {:.3f} ms "
          "(all timed rounds; not gated)".format(
              record["check_rounds"], record["timed_rounds"], record["timed_seconds"],
              record["round_ms_p50"], record["round_ms_p95"]))
    for name, unit in units.items():
        print("  {:<42} {:>16.6g} {}".format(name, record["metrics"][name], unit))
    print("  ops_attempted {}  ops_failed {}  input sha256 {}".format(
        record["ops_attempted"], record["ops_failed"], record["input_sha256"][:16]))
    for line in record["problems"] + record["round_notes"]:
        print("  FAILED: " + line)
    if args.record_out:
        Path(args.record_out).write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps({
        "correct": not record["problems"],
        "attempted": record["ops_attempted"],
        "failed": record["ops_failed"],
        "metrics": {
            name: {"value": record["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


# ----------------------------------------------------------------------
# every workload, each in a fresh interpreter
# ----------------------------------------------------------------------
def run_set(args, spec: dict, seconds: float) -> dict:
    """Timed then traced run of every workload; returns the merged record."""
    started = time.strftime("%Y%m%dT%H%M%S")
    records = {}
    for workload in (w["name"] for w in spec["workloads"]):
        # the traced run is shorter: it feeds the per-layer split, which
        # is read as shares of a round, not gated
        for trace, budget in ((0, seconds), (1, seconds / 2)):
            scratch = RESULTS / ".record-{}-{}.json".format(workload, trace)
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(budget),
                "--trace", str(trace), "--record-out", str(scratch),
            ] + (["--quick"] if args.quick else [])
            done = subprocess.run(command, cwd=ROOT)
            if done.returncode != 0:
                fail("{} (trace {}) exited with {}".format(workload, trace, done.returncode))
            part = json.loads(scratch.read_text(encoding="utf-8"))
            scratch.unlink()
            merged = records.setdefault(workload, part)
            if merged is not part:
                merged["per_layer"] = part["metrics"]
                merged["traced_run"] = {
                    key: part[key] for key in (
                        "ops_attempted", "ops_failed", "problems", "check_loss",
                        "input_sha256", "timed_rounds")
                }
    return {
        "started": started, "seed": args.seed, "quick": args.quick,
        "comparable": not args.quick, "seconds": seconds, "workloads": records,
        "failures": cross_check(records),
    }


def run_all(args) -> int:
    spec = load_spec()
    seconds = QUICK_SECONDS if args.quick else float(
        args.seconds if args.seconds is not None else spec["run_seconds"])
    RESULTS.mkdir(exist_ok=True)
    runs = [run_set(args, spec, seconds) for _ in range(args.repeat)]
    out = Path(args.out) if args.out else RESULTS / "{}-seed{}{}.json".format(
        runs[0]["started"], args.seed, "-quick" if args.quick else "")
    # one run is a record; repeated runs are a list --compare reads spreads from
    out.write_text(json.dumps(runs[0] if args.repeat == 1 else runs,
                              indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("\nrecord written to {}".format(out))
    failures = [line for run in runs for line in run["failures"]]
    for line in failures:
        print("FAILED: " + line)
    return 1 if failures else 0


def cross_check(records: dict) -> list:
    """What only the whole set can check: pairs, and timed == traced input."""
    failures = []
    for name, record in records.items():
        traced = record["traced_run"]
        if record["ops_failed"] or traced["ops_failed"]:
            failures.append("{}: ops_failed {} timed, {} traced".format(
                name, record["ops_failed"], traced["ops_failed"]))
        for key in ("check_loss", "input_sha256"):
            if record[key] != traced[key]:
                failures.append("{}: {} differs between timed and traced run".format(name, key))
        pair = record["control"]
        if pair is not None:
            ours, theirs = record["check_loss"], records[pair]["check_loss"]
            if abs(ours - theirs) > 1e-9 * abs(theirs):
                failures.append("{} check loss {!r} != {} {!r}".format(name, ours, pair, theirs))
            if record["input_sha256"] != records[pair]["input_sha256"]:
                failures.append("{} and {} measured different inputs".format(name, pair))
    return failures


# ----------------------------------------------------------------------
# --compare A.json B.json
# ----------------------------------------------------------------------
def samples(path: str) -> dict:
    """``{(workload, metric): [values]}`` plus failure rates, from a record.

    ``path`` may hold one record or a JSON list of records (repeated
    runs of one commit); with a single run the spread is unknown.
    """
    loaded = json.loads(Path(path).read_text(encoding="utf-8"))
    runs = loaded if isinstance(loaded, list) else [loaded]
    values, exact, failed, attempted = {}, {}, 0, 0
    if not all(run["comparable"] for run in runs):
        print("note: {} holds a --quick run; its numbers are not comparable".format(path))
    for run in runs:
        for workload, record in run["workloads"].items():
            failed += record["ops_failed"]
            attempted += record["ops_attempted"]
            for metric, value in record["metrics"].items():
                values.setdefault((workload, metric), []).append(value)
            for name in EXACT:
                source = record if name in record else record["per_layer"]
                exact.setdefault((workload, name), set()).add(source[name])
    return {"values": values, "exact": exact, "failure_rate": failed / max(attempted, 1)}


def spread(values: list) -> float:
    """Inter-quartile range as a share of the median (0 for < 2 runs)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def compare(path_a: str, path_b: str) -> int:
    spec = load_spec()
    a, b = samples(path_a), samples(path_b)
    print("{:<10} {:<14} {:>12} {:>12} {:>9} {:>6}  verdict".format(
        "workload", "metric", "A median", "B median", "B vs A", "bound"))
    regressed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a["values"] or key not in b["values"]:
                continue
            base = statistics.median(a["values"][key])
            new = statistics.median(b["values"][key])
            change = (new - base) / base
            worse = -change if metric["better"] == "higher" else change
            noisy = max(spread(a["values"][key]), spread(b["values"][key])) > metric["bound"]
            clear = (min(b["values"][key]) > max(a["values"][key])
                     if metric["better"] == "higher"
                     else max(b["values"][key]) < min(a["values"][key]))
            if noisy and not clear:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict, regressed = "regressed", True
            else:
                verdict = "ok"
            print("{:<10} {:<14} {:>12.6g} {:>12.6g} {:>+8.1%} {:>6.0%}  {}".format(
                workload, metric["name"], base, new, change, metric["bound"], verdict))
    print("exact counts (identical between runs of one commit on one seed):")
    for key in a["exact"]:
        same = a["exact"][key] == b["exact"].get(key)
        print("  {:<10} {:<36} {}".format(*key, "same" if same else "{} -> {}".format(
            sorted(a["exact"][key]), sorted(b["exact"].get(key, [])))))
        if key[1] == "input_sha256" and not same:
            print("FAILED: the two records measured different inputs")
            regressed = True
    print("ops_failed / ops_attempted: A {:.4f}, B {:.4f}".format(
        a["failure_rate"], b["failure_rate"]))
    print("(B vs A is relative to A's median; unresolved = a record's own "
          "quartile spread exceeds the bound)")
    if b["failure_rate"] > a["failure_rate"]:
        print("FAILED: B fails a larger share of its operations")
        regressed = True
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, help="timed seconds per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="rows / 10 and a fraction of a second: a smoke run, "
                             "numbers not comparable")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--out", help="where the full run writes its record")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the whole set this many times (gives --compare a spread)")
    parser.add_argument("--record-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        return run_all(args)
    if args.workload not in {w["name"] for w in load_spec()["workloads"]}:
        fail("unknown workload {!r}".format(args.workload))
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else float(load_spec()["run_seconds"])
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
