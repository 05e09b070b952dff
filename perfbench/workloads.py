"""Benchmark workloads: inputs generated from the workload seed, the set-up
a user pays before the first command, and the operations that are timed.

Everything the program receives is generated here from the seed: the
scenario JSON file and the command-line arguments.  The same seed gives
the same inputs.

Run as a script, this module is the set-up probe: it performs one
workload's set-up in a fresh interpreter and prints the seconds it took,
from before ``import fedkd`` to the loaded accuracies.

    python3 perfbench/workloads.py <workload> <seed> <inputs-dir>
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOADS = ("fleet", "cell", "distill")

#: fleet: the four learning methods on identical seeded draws of the stock
#: template.  At this size every training episode draws a distinct
#: scenario, so the reward cache never hits.
FLEET_METHODS = ("proposed", "q-only", "fl-min", "fl-max")
FLEET_TRIALS = 50
FLEET_EPISODES = 1000

#: cell: static scenarios, each trained long enough that the reward cache
#: serves more than nine episodes in ten.  Training and enumeration time
#: depend on the drawn scenario by several percent; two per run average
#: over that.
CELL_EPISODES = 20000
CELL_SCENARIOS = 2

#: distill: kd-demo epochs, and the number of kd seeds with recorded
#: accuracies (the workload seed picks one of them).
KD_EPOCHS = 600
KD_SEEDS = 64

#: Ranges the cell scenario's users are drawn from; they match the stock
#: state quantization, so no state component is clamped.
F_LOC_RANGE = (0.5, 2.0)
D_RANGE = (10.0, 100.0)


#: Per-command times reported beside the end-to-end metrics: metric ->
#: prefix of the operation labels it sums.
COMMAND_TIMES = {
    "fleet": {"proposed_s": "experiment-proposed", "q-only_s": "experiment-q-only",
              "fl_s": "experiment-fl-"},
    "cell": {"train_q_s": "train-q", "exhaustive_s": "exhaustive"},
    "distill": {"kd_demo_s": "kd-demo"},
}


@dataclass
class Op:
    """One timed operation: run(out_dir) -> value, then check(out_dir, value).

    check raises AssertionError with the reason when an output is wrong.
    """

    label: str
    run: Callable[[Path], object]
    check: Callable[[Path, object], None]


@dataclass
class Workload:
    name: str
    seed: int
    inputs: dict                 # generated inputs, recorded in the manifest
    ops: list[Op] = field(default_factory=list)
    modules: dict = field(default_factory=dict)


def draw_inputs(workload: str, seed: int) -> dict:
    """Everything the program will receive, as plain numbers."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "fleet":
        return {"experiment_seed": rng.randrange(2 ** 31), "trials": FLEET_TRIALS,
                "episodes": FLEET_EPISODES, "methods": list(FLEET_METHODS)}
    if workload == "cell":
        return {"episodes": CELL_EPISODES, "scenarios": [
            {"train_seed": rng.randrange(2 ** 31),
             "users": [{"f_loc": rng.uniform(*F_LOC_RANGE), "d": rng.uniform(*D_RANGE)}
                       for _ in range(4)]}
            for _ in range(CELL_SCENARIOS)]}
    return {"kd_seed": rng.randrange(KD_SEEDS), "epochs": KD_EPOCHS}


def setup(workload: str, seed: int, inputs_dir: Path) -> dict:
    """What a user pays before the first command: import fedkd, write and
    parse the scenario config, load the accuracies.  Returns the loaded
    state; distill has no config, so its set-up is the import alone."""
    import fedkd
    from fedkd import accuracy, allocator, cli, config, experiment, kd, model, qlearn

    state = {"modules": {m.__name__: m for m in (fedkd, accuracy, allocator, cli, config,
                                                 experiment, kd, model, qlearn)},
             "inputs": draw_inputs(workload, seed)}
    if workload == "distill":
        return state
    stock = model.default_scenario()
    if workload == "fleet":
        drawn = [stock]
    else:
        drawn = [model.Scenario(users=tuple(model.UserSpec(id=i, **u)
                                            for i, u in enumerate(spec["users"])),
                                server=stock.server, channel=stock.channel,
                                catalog=stock.catalog, teacher=stock.teacher,
                                weights=stock.weights)
                 for spec in state["inputs"]["scenarios"]]
    inputs_dir.mkdir(parents=True, exist_ok=True)
    state["config_paths"], state["scenarios"] = [], []
    for k, scenario in enumerate(drawn):
        path = inputs_dir / f"{workload}-{k}.json"
        path.write_text(config.dump_scenario(scenario) + "\n", encoding="utf-8")
        state["config_paths"].append(path)
        state["scenarios"].append(config.load_scenario(path.read_text(encoding="utf-8")))
    state["accs"] = {method: [accuracy.acc_pair(accuracy.DEFAULT_TABLE, m.name, method,
                                                "noniid")
                              for m in stock.catalog]
                     for method in ("KD", "FL")}
    return state


def build(workload: str, seed: int, inputs_dir: Path) -> Workload:
    """Set up and assemble the workload's operations."""
    state = setup(workload, seed, inputs_dir)
    import checks  # imports numpy and fedkd, so not at the probe's module level

    mods, inputs = state["modules"], state["inputs"]
    cli, qlearn = mods["fedkd.cli"], mods["fedkd.qlearn"]
    wl = Workload(workload, seed, inputs, modules=mods)

    def command(argv):
        # cli.main is looked up at call time, so a traced run goes through
        # the installed wrapper.
        return lambda out: cli.main(argv + ["--out", str(out)])

    if workload == "fleet":
        cfg, s = str(state["config_paths"][0]), str(inputs["experiment_seed"])
        for method in FLEET_METHODS:
            argv = ["experiment", "--config", cfg, "--method", method, "--seed", s,
                    "--trials", str(FLEET_TRIALS), "--episodes", str(FLEET_EPISODES)]
            wl.ops.append(Op(
                f"experiment-{method}",
                command(argv),
                checks.experiment_check(state["scenarios"][0], method,
                                        inputs["experiment_seed"], FLEET_TRIALS,
                                        state["accs"])))
    elif workload == "cell":
        accs = state["accs"]["KD"]
        for k, (sc, path, spec) in enumerate(zip(state["scenarios"], state["config_paths"],
                                                 inputs["scenarios"])):
            argv = ["train-q", "--config", str(path), "--seed", str(spec["train_seed"]),
                    "--episodes", str(CELL_EPISODES)]
            wl.ops.append(Op(f"train-q-{k}", command(argv),
                             checks.train_q_check(sc, spec["train_seed"], CELL_EPISODES)))
            wl.ops.append(Op(f"exhaustive-{k}",
                             lambda out, sc=sc: qlearn.exhaustive_optimum(sc, accs),
                             checks.exhaustive_check(sc, accs, seed, f"train-q-{k}")))
    else:
        kd_seed = inputs["kd_seed"]
        argv = ["kd-demo", "--seed", str(kd_seed), "--epochs", str(KD_EPOCHS)]
        wl.ops.append(Op("kd-demo", command(argv),
                         checks.kd_demo_check(kd_seed, KD_EPOCHS)))
    return wl


if __name__ == "__main__":
    t0 = time.perf_counter()
    setup(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    print(repr(time.perf_counter() - t0))
