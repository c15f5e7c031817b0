"""Command-line interface.

Four subcommands::

    python -m repro info                          # profiles & clusters
    python -m repro train --dataset avazu ...     # train one system
    python -m repro compare --dataset kdd12 ...   # all five systems
    python -m repro evaluate --checkpoint m.npz --dataset avazu

Datasets are either a Table II profile name (a scaled synthetic
stand-in is generated) or a path to a LIBSVM file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.baselines.registry import TRAINER_REGISTRY, make_trainer
from repro.datasets import PROFILES, load_profile, read_libsvm
from repro.datasets.dataset import Dataset
from repro.errors import ConfigurationError
from repro.experiments.report import convergence_table, iteration_time_table, loss_series
from repro.io import load_model, save_model
from repro.metrics import evaluate_classifier, train_test_split
from repro.models.registry import MODEL_REGISTRY, make_model
from repro.optim.registry import OPTIMIZER_REGISTRY, make_optimizer
from repro.sim import SimulatedCluster
from repro.sim.presets import PRESETS as _CLUSTER_PRESETS
from repro.utils import ascii_table, format_bytes

_CLUSTERS = dict(_CLUSTER_PRESETS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ColumnSGD reproduction: train on a simulated cluster.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list dataset profiles, models, and clusters")

    report = sub.add_parser(
        "report", help="stitch benchmarks/results/*.txt into one report"
    )
    report.add_argument("--results-dir", default="benchmarks/results")
    report.add_argument("--output", default=None,
                        help="also write the report to this path")

    desc = sub.add_parser("describe", help="structural report of a dataset")
    desc.add_argument("--dataset", required=True)
    desc.add_argument("--rows", type=int, default=None)
    desc.add_argument("--seed", type=int, default=0)

    def add_common(p):
        p.add_argument("--dataset", required=True,
                       help="profile name ({}) or LIBSVM path".format(
                           "/".join(sorted(PROFILES))))
        p.add_argument("--model", default="lr", choices=sorted(MODEL_REGISTRY))
        p.add_argument("--optimizer", default="sgd", choices=sorted(OPTIMIZER_REGISTRY))
        p.add_argument("--learning-rate", type=float, default=1.0,
                       help="default 1.0 (suits the synthetic stand-ins; the "
                            "paper's Table III rates were tuned on the real "
                            "datasets)")
        p.add_argument("--batch-size", type=int, default=1000)
        p.add_argument("--iterations", type=int, default=100)
        p.add_argument("--eval-every", type=int, default=10)
        p.add_argument("--cluster", default="cluster1", choices=sorted(_CLUSTERS))
        p.add_argument("--workers", type=int, default=None,
                       help="override the cluster preset's machine count")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--rows", type=int, default=None,
                       help="rows to generate for profile datasets")
        p.add_argument("--n-factors", type=int, default=10,
                       help="FM latent factors (fm model only)")
        p.add_argument("--n-classes", type=int, default=None,
                       help="MLR class count (mlr model only)")
        p.add_argument("--n-fields", type=int, default=4,
                       help="FFM field count (ffm model only; features are "
                            "assigned to fields round-robin)")

    train = sub.add_parser("train", help="train one system")
    add_common(train)
    train.add_argument("--system", default="columnsgd", choices=sorted(TRAINER_REGISTRY))
    train.add_argument("--backend", default="sim", choices=("sim", "local"),
                       help="execution substrate: 'sim' charges modeled "
                            "time on the discrete-event simulator; 'local' "
                            "runs real worker processes and measures "
                            "wall-clock rounds (columnsgd and mllib)")
    train.add_argument("--local-processes", type=int, default=0,
                       help="OS processes hosting the workers with "
                            "--backend local (0 = one per worker)")
    train.add_argument("--backup", type=int, default=0,
                       help="S-backup computation level (columnsgd only)")
    train.add_argument("--sync-policy", default=None,
                       choices=("backup", "timeout", "retry"),
                       help="relaxed-barrier policy (columnsgd; real "
                            "measured deadlines with --backend local)")
    train.add_argument("--local-timeout-s", type=float, default=30.0,
                       help="deadline floor in seconds for --backend "
                            "local exchanges (alpha x median rule)")
    train.add_argument("--checkpoint-every", type=int, default=0,
                       help="snapshot the model every N rounds "
                            "(columnsgd; real on-disk spills with "
                            "--backend local)")
    train.add_argument("--chaos-mtbf-rounds", type=float, default=0.0,
                       help="inject faults: Poisson arrivals with this "
                            "mean-time-between-failures in rounds "
                            "(simulated on --backend sim, real process "
                            "faults on --backend local; see docs/faults.md)")
    train.add_argument("--chaos-seed", type=int, default=0,
                       help="seed for the --chaos-mtbf-rounds schedule")
    train.add_argument("--wire-precision", default="fp64", choices=("fp64", "fp32"),
                       help="statistics wire format (columnsgd only)")
    train.add_argument("--early-stop-patience", type=int, default=0,
                       help="stop after N stagnant evaluations (columnsgd only)")
    train.add_argument("--store-dir", default=None,
                       help="shuffle the data into (or reuse) an on-disk "
                            "column-shard store here and train out-of-core "
                            "(columnsgd only; see docs/storage.md)")
    train.add_argument("--memory-budget-mb", type=float, default=0.0,
                       help="bound the store shuffle writer's buffers "
                            "to this many MiB (0 = unbounded; needs "
                            "--store-dir)")
    train.add_argument("--save", default=None, help="checkpoint path (.npz)")

    compare = sub.add_parser("compare", help="run all five systems")
    add_common(compare)
    compare.add_argument(
        "--systems", nargs="+", default=sorted(TRAINER_REGISTRY),
        choices=sorted(TRAINER_REGISTRY),
    )

    evaluate = sub.add_parser("evaluate", help="score a checkpoint on a dataset")
    evaluate.add_argument("--checkpoint", required=True)
    evaluate.add_argument("--dataset", required=True)
    evaluate.add_argument("--rows", type=int, default=None)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument("--test-fraction", type=float, default=0.2)

    return parser


def _load_dataset(name: str, rows: Optional[int], seed: int) -> Dataset:
    if name.lower() in PROFILES:
        return load_profile(name).generate(seed=seed, rows=rows)
    path = Path(name)
    if not path.exists():
        raise SystemExit(
            "dataset {!r} is neither a profile ({}) nor a file".format(
                name, ", ".join(sorted(PROFILES))
            )
        )
    return read_libsvm(path, name=path.stem)


def _resolve_rate(args) -> float:
    return args.learning_rate


def _build_model(args, data: Dataset):
    kwargs = {}
    if args.model == "fm":
        kwargs["n_factors"] = args.n_factors
    if args.model == "mlr":
        if args.n_classes is None:
            raise SystemExit("--n-classes is required for the mlr model")
        kwargs["n_classes"] = args.n_classes
    if args.model == "ffm":
        import numpy as np

        kwargs["n_factors"] = args.n_factors
        kwargs["field_of"] = np.arange(data.n_features) % max(args.n_fields, 1)
    return make_model(args.model, **kwargs)


def _build_cluster(args) -> SimulatedCluster:
    spec = _CLUSTERS[args.cluster]
    if args.workers:
        spec = spec.with_workers(args.workers)
    return SimulatedCluster(spec)


def _run_one(args, system: str, data: Dataset):
    """Build, load and fit one system; a configuration the system
    rejects ends the command with a one-line ``error: ...``."""
    cluster = _build_cluster(args)
    try:
        trainer = make_trainer(
            system,
            _build_model(args, data),
            make_optimizer(args.optimizer, _resolve_rate(args)),
            cluster,
            batch_size=args.batch_size,
            iterations=args.iterations,
            eval_every=args.eval_every,
            seed=args.seed,
            backend=getattr(args, "backend", "sim"),
            local_processes=getattr(args, "local_processes", 0),
            **_fault_extras(args, system),
            **_columnsgd_extras(args, system),
        )
        trainer.load(data)
        return trainer, trainer.fit()
    except ConfigurationError as err:
        raise SystemExit("error: {}".format(err))


def _fault_extras(args, system: str) -> dict:
    extras = {}
    if getattr(args, "local_timeout_s", 30.0) != 30.0:
        extras["local_timeout_s"] = args.local_timeout_s
    if getattr(args, "checkpoint_every", 0):
        if system != "columnsgd":
            raise SystemExit("--checkpoint-every applies to columnsgd only")
        from repro.core.recovery import RecoveryPolicy

        extras["recovery"] = RecoveryPolicy(
            checkpoint_every=args.checkpoint_every
        )
    if getattr(args, "chaos_mtbf_rounds", 0.0):
        from repro.faults import FaultSchedule

        extras["failures"] = FaultSchedule(
            mtbf_rounds=args.chaos_mtbf_rounds,
            seed=getattr(args, "chaos_seed", 0),
        )
    return extras


def cmd_info(args, out) -> int:
    rows = [
        (p.name, "{:,}".format(p.paper_instances), "{:,}".format(p.paper_features),
         format_bytes(p.paper_size_bytes),
         "{:,} x {:,}".format(p.scaled_rows, p.scaled_features))
        for p in PROFILES.values()
    ]
    out.write("dataset profiles (Table II):\n")
    out.write(ascii_table(
        ["profile", "paper rows", "paper features", "paper size", "scaled default"],
        rows,
    ))
    out.write("\n\nmodels: {}\n".format(", ".join(sorted(MODEL_REGISTRY))))
    out.write("optimizers: {}\n".format(", ".join(sorted(OPTIMIZER_REGISTRY))))
    out.write("systems: {}\n".format(", ".join(sorted(TRAINER_REGISTRY))))
    out.write("clusters: cluster1 (8x2cpu/32GB/1Gbps), cluster2 (40x8cpu/50GB/10Gbps)\n")
    return 0


def _columnsgd_extras(args, system: str) -> dict:
    if system != "columnsgd":
        if getattr(args, "store_dir", None):
            raise SystemExit(
                "--store-dir holds a column-shard store; it applies to "
                "--system columnsgd only"
            )
        return {}
    extras = {}
    if getattr(args, "backup", 0):
        extras["backup"] = args.backup
    if getattr(args, "sync_policy", None):
        extras["sync_policy"] = args.sync_policy
    if getattr(args, "wire_precision", "fp64") != "fp64":
        extras["wire_precision"] = args.wire_precision
    if getattr(args, "early_stop_patience", 0):
        extras["early_stop_patience"] = args.early_stop_patience
    if getattr(args, "store_dir", None):
        extras["store_dir"] = args.store_dir
    if getattr(args, "memory_budget_mb", 0.0):
        if not getattr(args, "store_dir", None):
            raise SystemExit("--memory-budget-mb needs --store-dir")
        extras["memory_budget_bytes"] = int(args.memory_budget_mb * 2**20)
    return extras


def cmd_report(args, out) -> int:
    from repro.experiments.paper_report import write_report

    out.write(write_report(args.results_dir, output=args.output))
    out.write("\n")
    return 0


def cmd_describe(args, out) -> int:
    from repro.datasets.analysis import describe

    data = _load_dataset(args.dataset, args.rows, args.seed)
    out.write(describe(data).render() + "\n")
    return 0


def cmd_train(args, out) -> int:
    data = _load_dataset(args.dataset, args.rows, args.seed)
    out.write("dataset: {!r}\n".format(data))
    trainer, result = _run_one(args, args.system, data)
    out.write(result.describe() + "\n")
    timing = "wall-clock" if getattr(args, "backend", "sim") == "local" else "simulated"
    out.write("per-iteration: {:.4f}s ({})\n".format(
        result.avg_iteration_seconds(), timing))
    if result.losses():
        out.write("loss series: {}\n".format(loss_series(result)))
    if args.save:
        save_model(args.save, args.model, result.final_params,
                   metadata={"dataset": args.dataset, "system": args.system})
        out.write("checkpoint written to {}\n".format(args.save))
    return 0


def cmd_compare(args, out) -> int:
    data = _load_dataset(args.dataset, args.rows, args.seed)
    out.write("dataset: {!r}\n".format(data))
    results = {}
    for system in args.systems:
        _, results[system] = _run_one(args, system, data)
    out.write("\nper-iteration time:\n")
    out.write(iteration_time_table(results) + "\n")
    finals = [r.final_loss() for r in results.values() if r.final_loss() is not None]
    if finals:
        target = min(finals) * 1.1
        out.write("\ntime to loss <= {:.4f}:\n".format(target))
        out.write(convergence_table(results, target) + "\n")
    return 0


def cmd_evaluate(args, out) -> int:
    model_name, params, metadata = load_model(args.checkpoint)
    data = _load_dataset(args.dataset, args.rows, args.seed)
    if model_name == "fm":
        model = make_model("fm", n_factors=params.shape[1] - 1)
    elif model_name == "mlr":
        model = make_model("mlr", n_classes=params.shape[1])
    else:
        model = make_model(model_name)
    _, test = train_test_split(data, test_fraction=args.test_fraction, seed=args.seed)
    report = evaluate_classifier(model, params, test)
    out.write("checkpoint: {} (model={}, meta={})\n".format(
        args.checkpoint, model_name, metadata))
    out.write(ascii_table(
        ["metric", "value"],
        [(k, "{:.4f}".format(v)) for k, v in report.items()],
    ))
    out.write("\n")
    return 0


_COMMANDS = {
    "info": cmd_info,
    "describe": cmd_describe,
    "report": cmd_report,
    "train": cmd_train,
    "compare": cmd_compare,
    "evaluate": cmd_evaluate,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """Entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
