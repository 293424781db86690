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
    load_manifest,
    verify_paired_rules,
)
from .errors import FormatError, NumericError
from .evaluation import evaluate
from .filters import materialize_stack
from .model import FILTER_VARIANTS, VARIANTS, load_checkpoint, save_checkpoint
from .pooling import soft_attention
from .training import TrainConfig, gradcheck, train

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


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

    p = sub.add_parser("train", help="train a detector")
    p.add_argument("--data", required=True, help="dataset manifest JSON")
    p.add_argument("--variant", choices=VARIANTS, default="attended")
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--lr-decay-every", type=int, default=1000)
    p.add_argument("--lr-decay-factor", type=float, default=0.1)
    p.add_argument("--iters", type=int, default=5000)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--filters", type=int, default=5, metavar="M",
                   help="shared temporal structure filters")
    p.add_argument("--gaussians", type=int, default=3, metavar="N",
                   help="distributions per filter")
    p.add_argument("--kernel", type=int, default=15, metavar="L",
                   help="relative variant kernel length (odd)")
    p.add_argument("--dropout", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--quiet", action="store_true", help="suppress the CSV stream")

    p = sub.add_parser("eval", help="evaluate a checkpoint (frame mAP)")
    p.add_argument("--data", required=True, help="dataset manifest JSON")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--json", action="store_true", help="emit the JSON report")

    p = sub.add_parser("gradcheck", help="verify analytic gradients")
    p.add_argument("--variant", choices=VARIANTS, default="attended")
    p.add_argument("--seed", type=int, default=0, help="first instance seed")
    p.add_argument("--instances", type=int, default=1)
    p.add_argument("--filters", type=int, default=5, metavar="M")
    p.add_argument("--gaussians", type=int, default=3, metavar="N")

    p = sub.add_parser("export-filters",
                       help="per-class attention-combined filter matrices as JSON")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--T", type=int, required=True, help="sequence length to evaluate at")
    p.add_argument("--out", required=True, help="JSON path to write")
    return parser


def _cmd_synth(args) -> int:
    cfg_fields = {}
    if args.config:
        cfg_fields = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(cfg_fields, dict):
            raise FormatError(f"{args.config}: synth config must be a JSON object")
    overrides = {
        "seed": args.seed,
        "num_videos": args.videos,
        "feature_dim": args.dim,
        "noise_sigma": args.noise,
    }
    cfg_fields.update({k: v for k, v in overrides.items() if v is not None})
    cfg = SynthConfig.from_dict(cfg_fields)
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
    config = TrainConfig(
        lr=args.lr,
        lr_decay_every=args.lr_decay_every,
        lr_decay_factor=args.lr_decay_factor,
        iterations=args.iters,
        batch_size=args.batch,
        dropout=args.dropout,
        num_filters=args.filters,
        num_distributions=args.gaussians,
        kernel_length=args.kernel,
        seed=args.seed,
        variant=args.variant,
    ).validate()
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
    config = TrainConfig(variant=args.variant, num_filters=args.filters,
                         num_distributions=args.gaussians)
    all_passed = True
    for i in range(args.instances):
        report = gradcheck(config, instance_seed=args.seed + i)
        print(report.format())
        all_passed &= report.passed
    return EXIT_OK if all_passed else EXIT_NUMERIC


def _cmd_export_filters(args) -> int:
    state = load_checkpoint(args.model)
    if state.variant not in FILTER_VARIANTS:
        raise ValueError(
            f"checkpoint variant {state.variant!r} has no temporal structure filters"
        )
    if args.T < 1:
        raise ValueError("--T must be >= 1")

    values, frame_centers, scales, _ = materialize_stack(
        state.params["filter_centers"].astype(np.float64),
        state.params["filter_widths"].astype(np.float64),
        args.T,
    )  # (M, T, N)
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
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except NumericError as exc:
        print(f"superevents: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, FormatError, json.JSONDecodeError, ValueError) as exc:
        print(f"superevents: error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
