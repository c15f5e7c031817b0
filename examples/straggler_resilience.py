"""Stragglers and failures: backup computation + fault tolerance.

Reproduces the stories of Fig 9 and Fig 13 interactively:

1. inject a random straggler per iteration at StragglerLevel 1 and 5 and
   watch per-iteration time inflate;
2. enable 1-backup computation and watch the penalty disappear — the
   master recovers complete statistics from whichever group replica
   finishes first;
3. kill a worker mid-training and watch ColumnSGD reload the shard,
   re-initialise the lost model partition, and re-converge.

Run:  python examples/straggler_resilience.py
"""

from repro import (
    CLUSTER1,
    ColumnSGDConfig,
    ColumnSGDDriver,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    LogisticRegression,
    SGD,
    SimulatedCluster,
    StragglerModel,
    make_classification,
)


def run(data, backup=0, straggler_level=0.0, failures=None, iterations=40):
    cluster = SimulatedCluster(CLUSTER1)
    straggler = (
        StragglerModel(CLUSTER1.n_workers, level=straggler_level, seed=5)
        if straggler_level
        else None
    )
    driver = ColumnSGDDriver(
        LogisticRegression(),
        SGD(1.0),
        cluster,
        config=ColumnSGDConfig(
            batch_size=500, iterations=iterations, eval_every=10, seed=5, backup=backup
        ),
        straggler=straggler,
        failures=failures,
    )
    driver.load(data)
    return driver.fit()


def main():
    data = make_classification(10_000, 20_000, nnz_per_row=15, seed=5)
    print("dataset:", data)

    print("\n--- stragglers (Fig 9) ---")
    pure = run(data)
    print("pure ColumnSGD:        {:.3f}s/iter".format(pure.avg_iteration_seconds()))
    for level in (1.0, 5.0):
        slowed = run(data, straggler_level=level)
        print(
            "StragglerLevel {:.0f}:      {:.3f}s/iter ({:.1f}x slower)".format(
                level,
                slowed.avg_iteration_seconds(),
                slowed.avg_iteration_seconds() / pure.avg_iteration_seconds(),
            )
        )
    backed = run(data, backup=1, straggler_level=5.0)
    print(
        "1-backup + SL5:        {:.3f}s/iter (straggler absorbed)".format(
            backed.avg_iteration_seconds()
        )
    )

    print("\n--- worker failure (Fig 13) ---")
    failed = run(
        data,
        failures=FaultSchedule([FaultEvent(20, FaultKind.WORKER, 3)]),
        iterations=60,
    )
    print("loss trace around the failure at iteration 20:")
    for iteration, sim_time, loss in failed.losses():
        marker = "  <- failure recovery" if iteration == 29 else ""
        print("  iter {:>3}  t={:6.2f}s  loss={:.4f}{}".format(
            iteration, sim_time, loss, marker))
    print("final loss {:.4f} — SGD re-converged without checkpoints".format(
        failed.final_loss()))


if __name__ == "__main__":
    main()
