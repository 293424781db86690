"""Command-line surface: dataset synthesis, training, evaluation, gradient
checking, and filter export.

Exit codes: 0 success, 1 usage error, 2 I/O or data-format error, 3 numeric
failure (NaN loss or a failing gradient check). Machine-readable outputs
carry explicit schema versions; the training stream is CSV ``iter,lr,loss``
with ``#``-prefixed summary lines.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    SynthConfig,
    dataset_stats,
    generate_synthetic,
    load_dataset,
    split_manifest,
    save_manifest,
    parse_json,
    verify_paired_rules,
)
from .errors import NumericError, SupereventsError
from .evaluation import evaluate
from .filters import frame_positions, materialize_stack
from .model import FILTER_VARIANTS, VARIANTS, load_checkpoint, save_checkpoint
from .pooling import soft_attention
from .training import TrainConfig, gradcheck, train

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


def positive_int(text: str) -> int:
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


class _Parser(argparse.ArgumentParser):
    # the contract reserves exit status 1 for usage errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="superevents",
                     description="Latent super-event activity detection")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="JSON file with SynthConfig fields")
    p.add_argument("--seed", type=int, help="generator seed")
    p.add_argument("--videos", type=int, help="number of videos")
    p.add_argument("--dim", type=int, help="feature dimension D")
    p.add_argument("--noise", type=float, help="feature noise sigma")
    p.add_argument("--split", type=int, metavar="N",
                   help="also write manifest_train.json (first N videos) and "
                        "manifest_test.json (rest)")
    # for what SynthConfig.validate rejects, and a --split the video count rules out
    p.set_defaults(usage_error=p.error)

    # a train flag other than --data, --out, --resume and --quiet, and a
    # gradcheck flag other than --instances, sets the TrainConfig field its
    # dest names and defaults to that field's default; gradcheck's seed is
    # that of its first instance
    defaults = TrainConfig()
    p = sub.add_parser("train", help="train a detector")
    p.add_argument("--data", required=True, help="dataset manifest JSON")
    p.add_argument("--variant", choices=VARIANTS, default=defaults.variant)
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.add_argument("--lr", type=float, default=defaults.lr)
    p.add_argument("--lr-decay-every", type=int, default=defaults.lr_decay_every)
    p.add_argument("--lr-decay-factor", type=float, default=defaults.lr_decay_factor)
    p.add_argument("--iters", dest="iterations", type=int, default=defaults.iterations)
    p.add_argument("--batch", dest="batch_size", type=int, default=defaults.batch_size)
    p.add_argument("--filters", dest="num_filters", type=int,
                   default=defaults.num_filters, metavar="M",
                   help="shared temporal structure filters")
    p.add_argument("--gaussians", dest="num_distributions", type=int,
                   default=defaults.num_distributions, metavar="N",
                   help="distributions per filter")
    p.add_argument("--kernel", dest="kernel_length", type=int,
                   default=defaults.kernel_length, metavar="L",
                   help="relative variant kernel length (odd)")
    p.add_argument("--dropout", type=float, default=defaults.dropout)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--quiet", action="store_true", help="suppress the CSV stream")
    p.set_defaults(usage_error=p.error)  # for what TrainConfig.validate rejects

    p = sub.add_parser("eval", help="evaluate a checkpoint (frame mAP)")
    p.add_argument("--data", required=True, help="dataset manifest JSON")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--json", action="store_true", help="emit the JSON report")

    p = sub.add_parser("gradcheck", help="verify analytic gradients")
    p.add_argument("--variant", choices=VARIANTS, default=defaults.variant)
    p.add_argument("--seed", type=int, default=defaults.seed, help="first instance seed")
    p.add_argument("--instances", type=positive_int, default=1)
    p.add_argument("--filters", dest="num_filters", type=int,
                   default=defaults.num_filters, metavar="M")
    p.add_argument("--gaussians", dest="num_distributions", type=int,
                   default=defaults.num_distributions, metavar="N")
    p.set_defaults(usage_error=p.error)  # for what TrainConfig.validate rejects

    p = sub.add_parser("export-filters",
                       help="per-class attention-combined filter matrices as JSON")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--T", type=positive_int, required=True,
                   help="sequence length to evaluate at")
    p.add_argument("--out", required=True, help="JSON path to write")
    return parser


def _validated(config, args):
    """config, if its validate accepts it; a usage error otherwise."""
    try:
        return config.validate()
    except ValueError as exc:
        args.usage_error(str(exc))


def _train_config(args) -> TrainConfig:
    return _validated(TrainConfig(**{f.name: getattr(args, f.name)
                                     for f in fields(TrainConfig) if f.name in args}), args)


def _cmd_synth(args) -> int:
    cfg = SynthConfig()
    if args.config:  # valid on its own, before the flags override it
        doc = parse_json(Path(args.config).read_bytes(), args.config, "synth config")
        cfg = SynthConfig.from_dict(doc, args.config)
    flags = {"seed": args.seed, "num_videos": args.videos, "feature_dim": args.dim,
             "noise_sigma": args.noise}
    cfg = _validated(replace(cfg, **{k: v for k, v in flags.items() if v is not None}),
                     args)
    if args.split is not None and not 0 < args.split < cfg.num_videos:
        args.usage_error(f"--split {args.split} must leave at least one of the "
                         f"{cfg.num_videos} videos on each side")
    manifest = generate_synthetic(cfg, args.out)
    out = Path(args.out)
    print(f"manifest {out / 'manifest.json'}")

    dataset = load_dataset(out / "manifest.json")
    stats = dataset_stats(dataset)
    print(f"videos {stats['videos']}  classes {stats['classes']}  "
          f"frames {stats['frames']}")
    for name, rate in stats["positive_rate"].items():
        print(f"positive_rate {name} {rate}")
    checked, satisfied = verify_paired_rules(dataset, cfg)
    pct = 100.0 * satisfied / checked if checked else 100.0
    print(f"paired_rule_constraints {satisfied}/{checked} satisfied ({pct:.1f}%)")

    if args.split is not None:
        train_m, test_m = split_manifest(manifest, args.split)
        save_manifest(train_m, out / "manifest_train.json")
        save_manifest(test_m, out / "manifest_test.json")
        print(f"split {args.split} train / {len(test_m.videos)} test")
    return EXIT_OK


def _cmd_train(args) -> int:
    config = _train_config(args)
    dataset = load_dataset(args.data)
    state = load_checkpoint(args.resume) if args.resume else None

    if not args.quiet:
        print("iter,lr,loss")

        def stream(iteration, lr, loss):
            print(f"{iteration},{lr:g},{loss!r}")
    else:
        stream = None

    state, losses = train(config, dataset, state=state, on_iteration=stream)
    save_checkpoint(state, args.out)
    report = evaluate(state, dataset)
    print(f"# checkpoint {args.out}")
    if losses:
        print(f"# final_loss {losses[-1]!r}")
    print(f"# final_train_map {report.mean_ap!r}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    state = load_checkpoint(args.model)
    dataset = load_dataset(args.data)
    report = evaluate(state, dataset)
    if args.json:
        print(report.to_json())
    else:
        print(report.format_table())
        if report.excluded_classes:
            names = [report.class_names[i] for i in report.excluded_classes]
            print(f"excluded (no positives): {', '.join(names)}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    config = _train_config(args)
    all_passed = True
    for i in range(args.instances):
        report = gradcheck(config, instance_seed=config.seed + i)
        print(report.format())
        all_passed &= report.passed
    return EXIT_OK if all_passed else EXIT_NUMERIC


def _cmd_export_filters(args) -> int:
    state = load_checkpoint(args.model)
    if state.variant not in FILTER_VARIANTS:
        raise ValueError(
            f"checkpoint variant {state.variant!r} has no temporal structure filters"
        )

    centers = state.params["filter_centers"].astype(np.float64)
    widths = state.params["filter_widths"].astype(np.float64)
    values = materialize_stack(centers, widths, args.T)  # (M, T, N)
    frame_centers, scales = frame_positions(centers, widths, args.T)
    if state.variant == "single":
        attention = np.eye(state.num_classes)
    else:
        attention = soft_attention(state.params["attention_logits"].astype(np.float64))
    combined = np.einsum("cm,mtn->ctn", attention, values)

    doc = {
        "schema_version": 1,
        "variant": state.variant,
        "sequence_length": args.T,
        "num_distributions": state.num_distributions,
        "class_names": state.class_names,
        "attention": attention.tolist(),
        "filters": [
            {
                "frame_centers": frame_centers[m].tolist(),
                "scales": scales[m].tolist(),
                "values": values[m].tolist(),
            }
            for m in range(values.shape[0])
        ],
        "combined": {
            name: combined[c].tolist()
            for c, name in enumerate(state.class_names)
        },
    }
    Path(args.out).write_text(json.dumps(doc) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "export-filters": _cmd_export_filters,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # a usage error, --help or --version
        return int(exc.code or 0)
    except NumericError as exc:
        print(f"superevents: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError, MemoryError, SupereventsError) as exc:
        print(f"superevents: error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
