"""Command-line entry point.

Subcommands: gen-data, partition, train-centralized, train-sp, train-sapgnn,
verify-equivalence, sweep, audit. Every subcommand but audit accepts
--config <json> plus repeated --set section.key=value overrides.

Exit codes: 0 success, 2 equivalence-test failure, 3 audit finding, 4 refused
input (a bad config, dataset or file, or a run the protocol refuses), named
on stderr as "sapgnn: refused: <message>".
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import RunConfig, apply_overrides
from .graphs import load_dataset, write_dataset
from .harness import (ExperimentSpec, SWEEP_HEADER, compare_equivalence, run_sweep,
                      train_centralized, train_sp, write_audit_jsonl, write_comm_csv,
                      write_metrics_csv)
from .pool import OPENBLAS_THREADS, holder_pool
from .protocol import ProtocolError, build_dataset, build_partition, run_training
from .wire import AuditLog, verify_privacy_audit

EXIT_OK = 0
EXIT_EQUIVALENCE_FAIL = 2
EXIT_AUDIT_FINDING = 3
EXIT_REFUSED = 4


def _load_config(args) -> RunConfig:
    base = RunConfig().to_dict()
    if args.config:
        base = json.loads(Path(args.config).read_text(encoding="utf-8"))
    apply_overrides(base, args.set or [])
    return RunConfig.from_dict(base)


def _add_config_args(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON run configuration file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config entry, e.g. --set partition.P=3")
    p.add_argument("--out", default=".", help="output directory")


def _write_run_outputs(res, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(res.metrics_rows, out_dir / "metrics.csv")
    if len(res.audit):
        write_comm_csv(res.comm, out_dir / "comm.csv")
        write_audit_jsonl(res.audit, out_dir / "audit.jsonl")


def _write_run_record(out_dir: Path):
    """run.json: what a run's hashes depend on besides its config. OpenBLAS
    runs on the thread count importing the package set (null: none set)."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    pool = holder_pool()
    record = {"numpy": np.__version__, "blas": blas.get("name"),
              "blas_version": blas.get("version"),
              "openblas_threads": OPENBLAS_THREADS,
              "usable_cpus": pool.usable_cpus, "holder_workers": len(pool.worker_cpus)}
    (out_dir / "run.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


def cmd_gen_data(args) -> int:
    g = build_dataset(_load_config(args).dataset)
    write_dataset(g, args.out)
    print(f"wrote {g.n_nodes} nodes / {g.n_edges} edges / F={g.feat_dim} "
          f"C={g.n_classes} to {args.out}")
    return EXIT_OK


def cmd_partition(args) -> int:
    cfg = _load_config(args)
    g = (load_dataset(args.data) if args.data
         else build_dataset(cfg.dataset))
    holders = build_partition(g, cfg.partition)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for p, lg in enumerate(holders):
        write_dataset(lg.graph, out / f"holder-{p}")
    manifest = {**asdict(cfg.partition),
                "holders": [{"holder": p, "nodes": lg.graph.n_nodes,
                             "edges": lg.graph.n_edges,
                             "train_labels": len(lg.graph.train_ids)}
                            for p, lg in enumerate(holders)]}
    (out / "partition.json").write_text(json.dumps(manifest, indent=2) + "\n",
                                        encoding="utf-8")
    for entry in manifest["holders"]:
        print(f"holder {entry['holder']}: {entry['nodes']} nodes, "
              f"{entry['edges']} edges, {entry['train_labels']} train labels")
    return EXIT_OK


def cmd_train_centralized(args) -> int:
    cfg = _load_config(args)
    g = build_dataset(cfg.dataset)
    res = train_centralized(g, cfg.model, lr=cfg.train.lr, max_epochs=cfg.train.max_epochs,
                            patience=cfg.train.patience, seed=cfg.train.seed)
    _write_run_outputs(res, Path(args.out))
    print(f"centralized: best epoch {res.best_epoch}, "
          f"test accuracy {res.final['test_accuracy']:.4f}, "
          f"macro-F1 {res.final['test_macro_f1']:.4f}")
    return EXIT_OK


def cmd_train_sp(args) -> int:
    cfg = _load_config(args)
    g = build_dataset(cfg.dataset)
    holders = build_partition(g, cfg.partition)
    sp = train_sp(holders, g, cfg.model, lr=cfg.train.lr, max_epochs=cfg.train.max_epochs,
                  patience=cfg.train.patience, seed=cfg.train.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for p, res in enumerate(sp.holder_results):
        if res is not None:
            write_metrics_csv(res.metrics_rows, out / f"sp_holder{p}_metrics.csv")
    for p in sp.skipped:
        print(f"holder {p}: skipped (no train labels)")
    print(f"sp over {cfg.partition.P} holders: accuracy "
          f"{sp.mean_accuracy:.4f} +/- {sp.std_accuracy:.4f}, "
          f"macro-F1 {sp.mean_macro_f1:.4f}")
    return EXIT_OK


def cmd_train_sapgnn(args) -> int:
    cfg = _load_config(args)
    res = run_training(cfg)
    _write_run_outputs(res, Path(args.out))
    _write_run_record(Path(args.out))
    report = verify_privacy_audit(res.audit, mode=cfg.mode)
    print(f"sapgnn ({cfg.mode}, {cfg.share_mode} shares): best epoch {res.best_epoch}, "
          f"test accuracy {res.final['test_accuracy']:.4f}, "
          f"macro-F1 {res.final['test_macro_f1']:.4f}")
    print(report.summary())
    return EXIT_OK if report.ok else EXIT_AUDIT_FINDING


def cmd_verify_equivalence(args) -> int:
    cfg = _load_config(args)
    try:
        report = compare_equivalence(cfg)
    except ValueError as exc:
        if cfg.model.update_kind.monotone:   # any other refusal reaches main
            raise
        print(f"refused: {exc}")
        return EXIT_EQUIVALENCE_FAIL
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_EQUIVALENCE_FAIL


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    spec = ExperimentSpec(base=cfg,
                          P_values=[int(x) for x in args.P.split(",")],
                          q_values=[float(x) for x in args.q.split(",")],
                          methods=args.methods.split(","),
                          repeats=args.repeats, seed_base=args.seed_base)
    out = Path(args.out)
    if out.is_dir():
        out = out / "sweep.csv"
    rows = run_sweep(spec, out)
    print(f"wrote {len(rows)} new rows to {out} (header: {','.join(SWEEP_HEADER)})")
    return EXIT_OK


def cmd_audit(args) -> int:
    log = AuditLog.from_jsonl(Path(args.log).read_text(encoding="utf-8"))
    report = verify_privacy_audit(log, mode=args.mode)
    print(report.summary())
    return EXIT_OK if report.ok else EXIT_AUDIT_FINDING


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sapgnn",
                                     description="Split-learning GNN protocol simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write the config's dataset as a dataset directory")
    _add_config_args(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("partition", help="split a dataset into holder subgraphs")
    _add_config_args(p)
    p.add_argument("--data", help="dataset directory (default: config dataset)")
    p.set_defaults(func=cmd_partition)

    for name, func in (("train-centralized", cmd_train_centralized),
                       ("train-sp", cmd_train_sp),
                       ("train-sapgnn", cmd_train_sapgnn),
                       ("verify-equivalence", cmd_verify_equivalence)):
        p = sub.add_parser(name)
        _add_config_args(p)
        p.set_defaults(func=func)

    p = sub.add_parser("sweep", help="run a method x P x q x repeat sweep")
    _add_config_args(p)
    p.add_argument("--P", default="1,2,3,4", help="comma-separated holder counts")
    p.add_argument("--q", default="0", help="comma-separated label-skew percentages")
    p.add_argument("--methods", default="sp,sapgnn,centralized")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--seed-base", type=int, default=1000)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("audit", help="check an exported audit log")
    p.add_argument("--log", required=True, help="audit .jsonl file")
    p.add_argument("--mode", choices=["naive", "secure-pooling"],
                   help="expected mode (default: inferred)")
    p.set_defaults(func=cmd_audit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ProtocolError, OSError) as exc:   # WireError is a ValueError
        print(f"sapgnn: refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())
