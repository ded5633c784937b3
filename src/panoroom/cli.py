"""Batch CLI tying the pipeline together.

Subcommands: synth, bg, fuse, seglabel, denoise, eval, pointcloud.
All randomness takes an explicit --seed. On failure the tool prints a
single machine-parseable line ``error: <code>: <message>`` to stderr and
exits nonzero.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import bgdepth, denoise, formats, fusion, metrics, synth
from .bgdepth import DepthMap
from .equirect import GridSpec, _int
from .errors import PanoroomError, UsageError
from .fusion import SegMap


def _load(cls, path: str):
    """A ``DepthMap`` or ``SegMap`` from a PFM, by public construction."""
    values = formats.read_pfm(path)
    return cls(grid=GridSpec(width=values.shape[1], height=values.shape[0]), values=values)


def _cmd_synth(args) -> int:
    count = _int("--count", args.count, 1)
    grid = GridSpec(width=2 * args.height, height=args.height)
    config = synth.SceneConfig(plan=args.plan, box_count_range=args.boxes)
    for i in range(count):
        scene = synth.generate_scene(args.seed + i, config)
        formats.write_scene(scene, grid, os.path.join(args.out_dir, f"scene_{i:03d}"))
    return 0


def _cmd_bg(args) -> int:
    layout, grid = formats.layout_from_dict(formats.read_json(args.layout))
    coarse = _load(DepthMap, args.coarse)
    heights = bgdepth.resolve_camera_heights(layout, coarse, grid)
    bg = bgdepth.resolve_background_depth(layout, heights, grid, mode=args.mode)
    formats.write_pfm(bg.values, args.out)
    return 0


def _cmd_fuse(args) -> int:
    coarse = _load(DepthMap, args.coarse)
    bg = _load(DepthMap, args.bg)
    seg = _load(SegMap, args.seg)
    fused = fusion.fuse_depth(coarse, bg, seg)
    formats.write_pfm(fused.values, args.out)
    return 0


def _cmd_seglabel(args) -> int:
    gt = _load(DepthMap, args.gt)
    bg = _load(DepthMap, args.bg)
    labels = fusion.derive_seg_labels(gt, bg, gamma=args.gamma)
    formats.write_pfm(labels.values, args.out)
    return 0


def _cmd_denoise(args) -> int:
    gt = _load(DepthMap, args.gt)
    bg = _load(DepthMap, args.bg)
    room = formats.room_from_dict(formats.read_json(args.room))
    cleaned = denoise.denoise_depth(gt, bg, room, gt.grid, slack=args.slack)
    formats.write_pfm(cleaned.values, args.out)
    return 0


def _cmd_eval(args) -> int:
    pred = _load(DepthMap, args.pred)
    gt = _load(DepthMap, args.gt)
    mask = _load(SegMap, args.mask) if args.mask else None
    report = metrics.eval_metrics(pred, gt, mask)
    formats.write_json({k: float(f"{v:.9g}") for k, v in report.to_dict().items()}, args.json)
    return 0


def _cmd_pointcloud(args) -> int:
    depth = _load(DepthMap, args.depth)
    formats.write_ply_pointcloud(depth.values, args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises ``UsageError`` where argparse would
    print its usage text and exit; its subcommand parsers are the same kind."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on the first call and shared after it."""
    parser = _Parser(prog="panoroom")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic scenes with oracle renders")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--plan", choices=["rect", "lshape"], default="rect")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--height", type=int, default=512, help="image height H (W = 2H)")
    p.add_argument("--boxes", type=int, nargs=2, default=[0, 4], metavar=("LO", "HI"))
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("bg", help="resolve camera heights and background depth")
    p.add_argument("--layout", required=True)
    p.add_argument("--coarse", required=True)
    p.add_argument("--mode", choices=bgdepth.RESOLVE_MODES, default="exact")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bg)

    p = sub.add_parser("fuse", help="segmentation-weighted depth fusion")
    p.add_argument("--coarse", required=True)
    p.add_argument("--bg", required=True)
    p.add_argument("--seg", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("seglabel", help="derive binary background labels")
    p.add_argument("--gt", required=True)
    p.add_argument("--bg", required=True)
    p.add_argument("--gamma", type=float, default=fusion.DEFAULT_SEG_GAMMA)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_seglabel)

    p = sub.add_parser("denoise", help="layout-constrained depth denoising")
    p.add_argument("--gt", required=True)
    p.add_argument("--bg", required=True)
    p.add_argument("--room", required=True)
    p.add_argument("--slack", type=float, default=denoise.DEFAULT_SLACK)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("eval", help="depth metrics report as JSON")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--mask", default=None)
    p.add_argument("--json", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("pointcloud", help="export an ASCII PLY point cloud")
    p.add_argument("--depth", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pointcloud)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except PanoroomError as e:
        print(f"error: {e.code}: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: io: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
