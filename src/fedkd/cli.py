"""Command-line entry points.

Subcommands:
    allocate     one-shot optimal resource split for a configured decision
    train-q      train the offload/model agent on a scenario and save the table
    experiment   run one method over seeded trials and emit the report files
    kd-demo      run the toy distillation pipeline and save metrics/parameters
    dump-oracle  write the built-in accuracy table in the interchange format

Every subcommand is deterministic for a fixed --seed: rerunning writes
byte-identical files.  Exit code 0 on success, 1 with a diagnostic on
stderr for any error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pickle
import sys
from pathlib import Path

from . import accuracy, config, kd, qlearn
from .allocator import allocate, kkt_residual
from .experiment import (
    EXPERIMENT_QCONFIG,
    METHODS,
    ExperimentConfig,
    emit_report,
    run_experiment,
)
from .model import check_count, default_scenario


def _load_scenario(path: str | None):
    if path is None:
        return default_scenario(), {}
    doc = config.parse_document(Path(path).read_text(encoding="utf-8"), f"scenario config {path}")
    return config.scenario_from_dict(doc), doc


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_allocate(args) -> int:
    sc, doc = _load_scenario(args.config)
    dec = config.decision_from_dict(doc, sc)
    res = allocate(sc, dec)
    prob, f, b = res.problem, res.allocation.f, res.allocation.b
    payload = {
        "x": list(dec.x),
        "m": list(dec.m),
        "f": list(f),
        "b": list(b),
        "objective_fb": res.objective_fb,
        "objective_fixed_decision": res.objective_fb + prob.constant,
        "kkt_residual": kkt_residual(prob, f, b),
    }
    text = _json_text(payload)
    if args.out:
        _write(Path(args.out) / "allocation.json", text)
    sys.stdout.write(text)
    return 0


def cmd_train_q(args) -> int:
    sc, _ = _load_scenario(args.config)
    cfg = dataclasses.replace(qlearn.QConfig(), episodes=args.episodes)
    accs = [accuracy.acc_pair(accuracy.DEFAULT_TABLE, m.name, "KD", args.distribution)
            for m in sc.catalog]
    table, key = qlearn.train_fixed_scenario(sc, accs, cfg, args.seed)
    greedy = table.greedy_action(key, qlearn.action_count(sc))
    dec = qlearn.decode_action(greedy, sc.n_users, len(sc.catalog))
    summary = {
        "episodes": cfg.episodes,
        "seed": args.seed,
        "states": table.states,
        "entries": len(table),
        "greedy_x": list(dec.x),
        "greedy_m": list(dec.m),
        "greedy_models": [sc.catalog[mi].name for mi in dec.m],
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table.save(out / "qtable.tsv")
    _write(out / "train_summary.json", _json_text(summary))
    print(f"trained {cfg.episodes} episodes; table has {len(table)} entries "
          f"over {table.states} states -> {out}")
    return 0


def cmd_experiment(args) -> int:
    sc, _ = _load_scenario(args.config)
    q = dataclasses.replace(EXPERIMENT_QCONFIG, episodes=args.episodes)
    cfg = ExperimentConfig(scenario=sc, method=args.method, seed=args.seed,
                           trials=args.trials, distribution=args.distribution, q=q)
    report = run_experiment(cfg)
    trials_path, summary_path = emit_report(report, args.out)
    print(f"{args.method}: objective_mean={report.mean('objective'):.6g} "
          f"avg_delay_s_mean={report.mean('avg_delay_s'):.6g} "
          f"-> {trials_path}, {summary_path}")
    return 0


def cmd_kd_demo(args) -> int:
    result = kd_demo(seed=args.seed, epochs=args.epochs)
    out = Path(args.out)
    _write(out / "blob_spec.json", result["spec"].to_json() + "\n")
    _write(out / "teacher_params.json", result["teacher"].to_json() + "\n")
    _write(out / "student_hard_params.json", result["student_hard"].to_json() + "\n")
    _write(out / "student_kd_params.json", result["student_kd"].to_json() + "\n")
    _write(out / "student_simkd_params.json", result["student_simkd"].to_json() + "\n")
    _write(out / "projector.json",
           json.dumps({"w": result["projector"].w.tolist()}, sort_keys=True) + "\n")
    _write(out / "kd_metrics.json", _json_text(result["metrics"]))
    print(json.dumps(result["metrics"], indent=2, sort_keys=True))
    return 0


def _beside(child, parent):
    """(child(), parent()), with child called in a forked child process
    while parent runs in this one.  parent's error is raised first, then
    child's; a child that ends without sending a result raises
    RuntimeError naming its pid and wait status.  If parent raises, or
    this process is interrupted before the child's result is read, the
    child is killed and reaped.  POSIX only (os.fork)."""
    r, w = os.pipe()
    with open(r, "rb") as reader, open(w, "wb") as writer:
        pid = os.fork()
        if pid == 0:
            try:
                try:
                    data = pickle.dumps((True, child()))
                except BaseException as exc:
                    data = pickle.dumps((False, exc))
                writer.write(data)
                writer.flush()
                os._exit(0)
            finally:
                os._exit(1)    # never back into the caller's frames
        writer.close()    # the read below ends when the child's copy closes
        try:
            mine = parent()
            data = reader.read()
        except BaseException:
            import signal    # only on this path: `import fedkd.cli` does not load it

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
    _, status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"child {pid} ended without a result (wait status {status})")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value, mine


def kd_demo(*, seed: int, epochs: int) -> dict:
    """Toy Non-IID pipeline: federated teacher, then one client's students.

    Client 0 holds only the first half of the classes.  Three students are
    trained on that private shard: plain hard-label training, softened
    distillation, and feature-matching distillation with classifier reuse.

    The runs overlap on two processes.  The hard student, which needs no
    teacher, trains in a forked child while this process trains the
    teacher.  That child is reaped, and then the simkd student trains in
    a second child while this process trains the kd student.  Each run
    calls the same kd function with the same arguments as in series, so
    every output keeps its bits.  seed and epochs are checked before any
    run starts.  A failing run raises its own error, in the order
    teacher, hard, kd, simkd: the first that fails in that order is
    raised, and a child still running then is killed.
    """
    epochs = check_count("epochs", epochs, 1)
    seed = check_count("seed", seed, 0)
    spec = kd.BlobSpec(seed=seed)
    train_set, test_set = kd.make_train_test(spec, train_per_class=60, test_per_class=60)
    half = spec.num_classes // 2
    groups = [tuple(range(half)), tuple(range(half, spec.num_classes))]
    parts = kd.split_by_label(train_set, groups)
    private = parts[0]
    own_test = test_set.restrict_labels(groups[0])
    student_arch = kd.NetArch((32,), 8)

    student_hard, teacher = _beside(
        lambda: kd.train_teacher([private], epochs=epochs, lr=0.5, arch=student_arch,
                                 seed=seed + 1),
        lambda: kd.train_teacher(parts, epochs=max(epochs, 400), lr=0.5,
                                 arch=kd.NetArch((32,), 16), seed=seed))
    (student_simkd, proj), (student_kd, _) = _beside(
        lambda: kd.distill_student(teacher, student_arch, private, kd.LossSpec("simkd"),
                                   epochs=epochs, lr=0.1, seed=seed + 1),
        lambda: kd.distill_student(teacher, student_arch, private,
                                   kd.LossSpec("kd", temperature=4.0),
                                   epochs=epochs, lr=0.5, seed=seed + 1))

    def accs(p, override=None):
        return {
            "full_test": kd.measure_accuracy(p, test_set, override),
            "own_test": kd.measure_accuracy(p, own_test, override),
        }

    metrics = {
        "seed": seed,
        "epochs": epochs,
        "partition_labels": [list(g) for g in groups],
        "teacher": accs(teacher),
        "student_hard": accs(student_hard),
        "student_kd": accs(student_kd),
        "student_simkd": accs(student_simkd, (teacher, proj)),
    }
    return {"spec": spec, "teacher": teacher, "student_hard": student_hard,
            "student_kd": student_kd, "student_simkd": student_simkd,
            "projector": proj, "metrics": metrics}


def cmd_dump_oracle(args) -> int:
    text = accuracy.dumps_table(accuracy.DEFAULT_TABLE)
    if args.out:
        _write(Path(args.out) / "accuracy_table.csv", text)
    sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedkd", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("allocate", help="optimal f/b split for a configured decision")
    p.add_argument("--config", required=True, help="scenario JSON with a decision block")
    p.add_argument("--out", default=None, help="directory for allocation.json")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("train-q", help="train the offload/model agent")
    p.add_argument("--config", default=None, help="scenario JSON (default: stock scenario)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--episodes", type=int, default=5000)
    p.add_argument("--distribution", default="noniid", choices=["iid", "noniid"])
    p.add_argument("--out", required=True, help="directory for qtable.tsv")
    p.set_defaults(func=cmd_train_q)

    p = sub.add_parser("experiment", help="run one method over seeded trials")
    p.add_argument("--config", default=None, help="scenario JSON (default: stock scenario)")
    p.add_argument("--method", default="proposed", choices=list(METHODS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--episodes", type=int, default=5000)
    p.add_argument("--distribution", default="noniid", choices=["iid", "noniid"])
    p.add_argument("--out", required=True, help="directory for trials.csv / summary.json")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("kd-demo", help="toy distillation pipeline")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=400)
    p.add_argument("--out", required=True, help="directory for metrics and parameters")
    p.set_defaults(func=cmd_kd_demo)

    p = sub.add_parser("dump-oracle", help="write the built-in accuracy table")
    p.add_argument("--out", default=None, help="directory for accuracy_table.csv")
    p.set_defaults(func=cmd_dump_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # numpy's own refusal of a negative seed names no option.
        check_count("--seed", getattr(args, "seed", 0), 0)
        return args.func(args)
    except (ValueError, KeyError, OSError, kd.DivergenceError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all.
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
