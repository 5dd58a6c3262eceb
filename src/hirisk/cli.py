"""Command line entry points.

Subcommands cover the whole workflow: generate the benchmark, train a
model, evaluate a checkpoint, run the ablation grid, profile the analytic
cost model, and spot-check gradients. Every training-adjacent command takes
an optional JSON config plus repeatable dotted overrides, e.g.

    hirisk train --set train.steps=500 --set model.ablation.no_em=true
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from . import costmodel, ops
from .autograd import Tensor, concat, swapaxes
from .config import RunConfig, apply_override, load_config
from .files import open_append, write_csv, write_json
from .gradcheck import finite_difference_check
from .model import MODEL_SCENE_FIELDS
from .rng import named_rng
from .scenes import load_dataset
from .train import (
    GRID_ROWS,
    GateError,
    TrainAbort,
    evaluate_model,
    format_grid,
    load_checkpoint,
    load_or_generate,
    run_ablation_grid,
    train_model,
)


class Logger:
    """Prints each line and appends it to `<run_dir>/log.txt`; closes it on leaving `with`."""

    def __init__(self, run_dir: str):
        with bad_input("--run-dir"):
            os.makedirs(run_dir, exist_ok=True)
            self.fh = open_append(os.path.join(run_dir, "log.txt"))

    def __call__(self, msg: str):
        print(msg)
        print(msg, file=self.fh, flush=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def usage_error(msg: str):
    """End the command as argparse does on a bad argument: one line, exit 2."""
    print(f"hirisk: error: {msg}", file=sys.stderr)
    raise SystemExit(2)


@contextlib.contextmanager
def bad_input(arg: str):
    """Make a KeyError, ValueError or OSError raised while reading `arg` a usage error.
    Wrap only the reading of inputs: a fault in training or decoding keeps its traceback."""
    try:
        yield
    except (KeyError, ValueError, OSError) as err:
        usage_error(f"{arg}: {err.args[0] if isinstance(err, KeyError) else err}")


def int_list(arg: str, text: str) -> list[int]:
    """The integers of a comma-separated `arg`; a usage error when there are none."""
    with contextlib.suppress(ValueError):
        values = [int(s) for s in text.split(",") if s != ""]
        if values:
            return values
    usage_error(f"{arg} takes comma-separated integers, got '{text}'")


def make_out_dir(path) -> None:
    """Create the directory `--out` writes into, or refuse a directory, before any work."""
    if path:
        with bad_input("--out"):
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            if os.path.isdir(path):
                raise IsADirectoryError(f"{path} is a directory")


def headline(report: dict) -> str:
    return (f"miou {report['miou']:.4f}  bleu4 {report['bleu4']:.4f}  "
            f"avg {report['avg']:.4f}  class acc {report['risk_class_acc']:.4f}")


def build_cfg(args) -> RunConfig:
    with bad_input(f"--config {args.config}"):
        cfg = load_config(args.config) if args.config else RunConfig()
    for item in args.set or []:
        if "=" not in item:
            usage_error(f"--set {item}: not of the form key=value")
        with bad_input(f"--set {item}"):
            apply_override(cfg, *item.split("=", 1))
    with bad_input("--set"):
        cfg.__post_init__()  # the rules between sections, once every override is in
    return cfg


def add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; defaults apply when omitted")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="dotted config override, repeatable")


# -- subcommands ---------------------------------------------------------------


def cmd_generate_data(args) -> int:
    cfg = build_cfg(args)
    with bad_input("--out"):
        load_or_generate(cfg, data_dir=args.out)
    print(f"dataset ready at {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = build_cfg(args)
    with Logger(args.run_dir) as log:
        with bad_input("--data"):
            train_ds, test_ds = load_or_generate(cfg, data_dir=args.data, log=log)
        result = train_model(cfg, train_ds, run_dir=args.run_dir, log=log)
    report = evaluate_model(result["model"], test_ds, batch_size=cfg.train.eval_batch)
    write_json(os.path.join(args.run_dir, "metrics.json"), report)
    samples = report["per_sample"]
    write_csv(os.path.join(args.run_dir, "metrics.csv"), samples, samples[0].keys())
    write_json(os.path.join(args.run_dir, "history.json"), result["history"])
    print(headline(report))
    print(f"artifacts in {args.run_dir}")
    return 0


def cmd_evaluate(args) -> int:
    with bad_input("--checkpoint"):
        model, _, cfg, _ = load_checkpoint(args.checkpoint)
    with bad_input("--data"):
        # the fields that shape the model must match; the rest may differ
        test_ds = load_dataset(args.data, args.split, cfg.scene, MODEL_SCENE_FIELDS)
    make_out_dir(args.out)
    report = evaluate_model(model, test_ds, batch_size=cfg.train.eval_batch)
    if args.out:
        write_json(args.out, report)
        print(f"report written to {args.out}")
    print(headline(report))
    return 0


def cmd_ablate(args) -> int:
    cfg = build_cfg(args)
    seeds = int_list("--seeds", args.seeds)
    by_name = dict(GRID_ROWS)
    wanted = args.rows.split(",") if args.rows else list(by_name)
    missing = [w for w in wanted if w not in by_name]
    if missing:
        usage_error(f"--rows: unknown grid rows {missing}; have {list(by_name)}")
    rows = [(w, by_name[w]) for w in wanted]
    with Logger(args.run_dir) as log:
        with bad_input("--data"):
            train_ds, test_ds = load_or_generate(cfg, data_dir=args.data, log=log)
        table = run_ablation_grid(cfg, seeds, train_ds, test_ds, rows=rows,
                                  run_dir=args.run_dir, log=log)
    print(format_grid(table))
    return 0


def cmd_profile_flops(args) -> int:
    grid = int_list("--resolutions", args.resolutions) if args.resolutions else None
    make_out_dir(args.out)
    rows = costmodel.profile(grid)
    summary = costmodel.scaling_summary(rows)
    if args.out:
        write_csv(args.out, rows, costmodel.CSV_COLUMNS)
        print(f"profile written to {args.out}")
    hdr = f"{'res':>5} {'baseline GF':>14} {'hilmd GF':>12} {'baseline GB':>13} {'hilmd GB':>10}"
    print(hdr)
    for r in rows:
        flag = "  OOM" if r["oom_flag"] else ""
        print(f"{r['resolution']:>5} {r['baseline_flops'] / 1e9:>14.1f} "
              f"{r['hilmd_flops'] / 1e9:>12.1f} {r['baseline_mem'] / 1e9:>13.2f} "
              f"{r['hilmd_mem'] / 1e9:>10.2f}{flag}")
    print(f"baseline flops ratio {summary['baseline_flops_ratio']:.1f}x, "
          f"dual-branch {summary['hilmd_flops_ratio']:.2f}x; "
          f"baseline first OOM at {summary['baseline_first_oom']}")
    return 0


def _gradcheck_cases(rng):
    def r(*shape):
        return Tensor(rng.normal(0.0, 1.0, size=shape), requires_grad=True)

    mask = np.triu(np.full((3, 5), -1e9), 3)  # 3 queries, 5 keys: query i sees keys 0..i+2

    return [
        ("matmul", lambda a, b: (a @ b).sum(), [r(3, 4), r(4, 2)]),
        ("linear", lambda x, w, b: (ops.linear(x, w, b) ** 2).sum(), [r(2, 3, 4), r(4, 2), r(2)]),
        ("softmax", lambda a: (ops.softmax_rows(a) * ops.softmax_rows(a)).sum(), [r(3, 5)]),
        ("attention", lambda q, k, v: (ops.attention(q, k, v, 2, mask) ** 2).sum(),
         [r(2, 3, 4), r(2, 5, 4), r(2, 5, 4)]),
        ("layernorm", lambda a, g, b: ops.layer_norm(a, g, b).sum(), [r(4, 6), r(6), r(6)]),
        ("gelu", lambda a: ops.gelu(a).sum(), [r(3, 4)]),
        ("conv2d", lambda x, k: ops.conv2d(x, k, padding=1).sum(), [r(1, 6, 6, 2), r(3, 3, 2, 3)]),
        # the weight gradient re-pads the input
        ("conv2d_s2_bias", lambda x, k, b: (ops.conv2d(x, k, b, stride=2, padding=1) ** 2).sum(),
         [r(2, 7, 7, 2), r(3, 3, 2, 3), r(3)]),
        ("depthwise_conv3d", lambda x, k: (ops.depthwise_conv3d(x, k) ** 2).sum(),
         [r(1, 3, 4, 4, 2), r(3, 3, 3, 2)]),
        ("cross_entropy", lambda a: ops.cross_entropy_logits(a, np.array([1, 3])), [r(2, 5)]),
        ("l1", lambda a: ops.l1_loss(a, np.zeros((2, 4))), [r(2, 4)]),
        # closures that hand a gradient on as `g` itself or as a view of it
        ("views", lambda a: (swapaxes(concat([a + a, a, a]).reshape(2, 3, 3), 0, 2)[1:] ** 2).sum(),
         [r(2, 3)]),
        # a repeated row in the fancy index scatter-adds its gradient
        ("relu_mul_index", lambda a, s: ((ops.relu(a) * s)[np.array([2, 0, 2])] ** 2).sum(),
         [r(3, 4), r(4)]),
    ]


def cmd_gradcheck(args) -> int:
    rng = named_rng(args.seed, "cli/gradcheck")
    worst_all = 0.0
    for name, fn, inputs in _gradcheck_cases(rng):
        worst = finite_difference_check(fn, inputs, rel_tol=args.tol)
        worst_all = max(worst_all, worst)
        print(f"{name:<16} worst rel err {worst:.3e}")
    print(f"all kernels within {args.tol:g} (worst {worst_all:.3e})")
    return 0


# -- wiring --------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hirisk",
                                 description="dual-branch risk captioning and localization")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-data", help="render and cache the benchmark")
    add_config_args(p)
    p.add_argument("--out", required=True, help="dataset directory")
    p.set_defaults(fn=cmd_generate_data)

    p = sub.add_parser("train", help="train a model and evaluate it")
    add_config_args(p)
    p.add_argument("--data", help="cached dataset directory (generated when missing)")
    p.add_argument("--run-dir", required=True, help="artifact directory")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a dataset split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("ablate", help="run the module ablation grid")
    add_config_args(p)
    p.add_argument("--data", help="cached dataset directory")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.add_argument("--rows", help="comma-separated subset of grid rows")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("profile-flops", help="analytic compute and memory profile")
    p.add_argument("--resolutions", help="comma-separated resolutions")
    p.add_argument("--out", help="write CSV here")
    p.set_defaults(fn=cmd_profile_flops)

    p = sub.add_parser("gradcheck", help="finite-difference spot check of the kernels")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(fn=cmd_gradcheck)

    return ap


def main(argv=None) -> int:
    """Run one command. Exit 2 on a usage error or a failed gate, 3 on an abort."""
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except GateError:
        return 2
    except TrainAbort:
        return 3


if __name__ == "__main__":
    sys.exit(main())
