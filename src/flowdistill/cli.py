"""Command-line interface.

Subcommands: ``pretrain``, ``gen-data``, ``distill``, ``sample``, ``eval``,
``ablate``, ``gradcheck``. All take ``--config`` (a JSON file path or the
literal ``default``) and ``--seed``; results land under ``--workdir``.
Reports are CSV plus a JSON file of plot-ready series.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .checkpoint import atomic_write
from .config import load_config, validate_config
from .datagen import STYLES
from .distill import DistillDivergence
from .gradchecks import REL_TOL, gradcheck_battery
from .nets import StudentBundle
from .runner import Workspace
from .solvers import sample_batch, start_noise


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowdistill",
        description="Desk-scale progressive adversarial distillation of toy "
                    "video diffusion models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default="default",
                       help="JSON config path, or 'default'")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--workdir", default="runs/default",
                       help="run directory for checkpoints, data, reports")

    common(sub.add_parser("pretrain", help="pretrain base models and the motion module"))
    common(sub.add_parser("gen-data", help="generate teacher datasets"))

    p = sub.add_parser("distill", help="run the progressive distillation plan")
    common(p)
    p.add_argument("--arm", choices=["cross", "single"], default="cross")

    p = sub.add_parser("sample", help="sample clips from a distilled student")
    common(p)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--style", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=1)

    common(sub.add_parser("eval", help="evaluate distilled students against the teacher"))
    common(sub.add_parser("ablate", help="compare cross-model vs single-model distillation"))
    common(sub.add_parser("gradcheck", help="finite-difference checks of every loss"))
    return parser


def _resolve(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
        validate_config(cfg)
    return cfg, Workspace(cfg, args.workdir)


def _progress(msg: str) -> None:
    print(f"[flowdistill] {msg}", flush=True)


def _write_report(ws, name: str, report) -> None:
    """``reports/<name>.csv`` and the plot series ``<name>_plot.json``."""
    series: dict = {}
    for row in report.rows:
        series.setdefault(row["style"], {"steps": [], "metric": []})
        series[row["style"]]["steps"].append(row["steps"])
        series[row["style"]]["metric"].append(row["metric"])

    def write_plot(path):
        with open(path, "w") as fh:
            json.dump({"series": series, "metadata": report.metadata}, fh, indent=2)

    atomic_write(ws.report_path(f"{name}.csv"), report.to_csv)
    atomic_write(ws.report_path(f"{name}_plot.json"), write_plot)


def cmd_pretrain(args) -> int:
    cfg, ws = _resolve(args)
    bundles = ws.pretrained_bundles(progress=_progress)
    _progress(f"pretrained {len(bundles)} styles into {ws.root}/checkpoints")
    return 0


def cmd_gen_data(args) -> int:
    cfg, ws = _resolve(args)
    bundles = ws.pretrained_bundles(progress=_progress)
    datasets = ws.build_datasets(bundles, progress=_progress)
    for name, ds in datasets.items():
        _progress(f"dataset {name}: {len(ds)} clips ({ds.provenance})")
    return 0


def cmd_distill(args) -> int:
    cfg, ws = _resolve(args)
    bundles = ws.pretrained_bundles(progress=_progress)
    datasets = ws.build_datasets(bundles, progress=_progress)
    motion = ws.distill_arm(args.arm, bundles, datasets, progress=_progress)
    _progress(f"distilled step counts: {', '.join(map(str, motion))}")
    return 0


def cmd_sample(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    cfg, ws = _resolve(args)
    arm = ws.load_arm("cross")
    if args.steps not in arm:
        raise ValueError(f"no distilled stage samples in {args.steps} steps; "
                         f"step counts: {', '.join(map(str, arm))}")
    bundle = StudentBundle(ws.load_base(args.style), arm[args.steps], ws.dims)
    _progress(f"sampling with the {args.steps}-step distilled student")
    # Tokens and start noise each come from one stream that no other
    # command draws from, filled in clip order, so clip i is the same for
    # every --count > i.
    seed = cfg["seed"]
    tokens = np.random.default_rng([seed, 23]).integers(0, ws.dims.vocab,
                                                        size=args.count)
    x_start = start_noise([seed, 29], args.count, ws.dims)
    out = sample_batch(bundle, ws.sched, args.steps, tokens, x_start)
    clips = [{"token": token, "frames": clip.tolist()}
             for token, clip in zip(tokens.tolist(), out)]

    def write(path):
        with open(path, "w") as fh:
            json.dump({"style": args.style, "steps": args.steps, "clips": clips}, fh)

    atomic_write(args.out, write)
    _progress(f"wrote {args.count} clip(s) to {args.out}")
    return 0


def cmd_eval(args) -> int:
    cfg, ws = _resolve(args)
    ev = cfg["eval"]
    cross = ws.load_arm("cross")
    bundles = ws.load_bundles(ev["styles"])
    report = ws.evaluate(bundles, {"cross": cross}, ev["styles"],
                         ev["step_counts"])["cross"]
    _write_report(ws, "main", report)
    for row in report.rows:
        _progress(f"{row['style']:>12} {row['steps']:>2} steps: "
                  f"energy distance {row['metric']:.4f}")
    _progress(f"report written to {ws.report_path('main.csv')}")
    return 0


def cmd_ablate(args) -> int:
    cfg, ws = _resolve(args)
    bundles = ws.pretrained_bundles(progress=_progress)
    datasets = ws.build_datasets(bundles, progress=_progress)
    cross = ws.distill_arm("cross", bundles, datasets, progress=_progress)
    single = ws.distill_arm("single", bundles, datasets, progress=_progress)
    styles = [s.name for s in STYLES]
    reports = ws.evaluate(bundles, {"cross": cross, "single": single}, styles, [4])
    for arm, report in reports.items():
        _write_report(ws, f"ablation_{arm}", report)
    for style in styles:
        c = reports["cross"].cell(style, 4)
        s = reports["single"].cell(style, 4)
        verdict = "cross<=single" if c <= s else "single<cross"
        _progress(f"{style:>12}: cross {c:.4f} vs single {s:.4f} ({verdict})")
    return 0


def cmd_gradcheck(args) -> int:
    cfg, ws = _resolve(args)
    results = gradcheck_battery(ws.sched, ws.dims, seed=cfg["seed"] + 7)
    ok = True
    for res in results:
        status = "ok" if res["passed"] else "FAIL"
        _progress(f"{res['name']:<32} {res['n_params']:>6} params  "
                  f"max rel err {res['max_rel_err']:.2e}  [{status}]")
        ok = ok and res["passed"]
    _progress(f"tolerance {REL_TOL:g}: {'all passed' if ok else 'FAILURES'}")
    return 0 if ok else 1


_COMMANDS = {
    "pretrain": cmd_pretrain,
    "gen-data": cmd_gen_data,
    "distill": cmd_distill,
    "sample": cmd_sample,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "gradcheck": cmd_gradcheck,
}


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:  # str() of a KeyError quotes its message
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    except DistillDivergence as exc:
        print(f"error: {exc}; diagnostics in {exc.dump_path}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
