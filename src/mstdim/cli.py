"""Command-line front end.

Subcommands: generate, mst, energy, dim-box, dim-mst, verify, scale.
Every file-producing command writes a manifest sidecar recording the exact
parameters, seed, toolkit version and input digests; re-running a command
with the same manifest (timestamps aside) reproduces the output bit for bit.

Exit codes: 0 success, 2 input error, 3 check failed, 4 estimation failed,
5 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .dimension import (
    WindowPolicy,
    box_dimension,
    energy_table_csv,
    eps_count_csv,
    least_squares_line,
    mst_dimension,
)
from .energy import check_alphas, energies, energy
from .errors import CheckFailedError, InputError, ToolkitError
from .generators import SHAPE_NAMES, ShapeFamily, builtin_shape, generate_uniform
from .lemma_checks import (
    lemma1_sweep,
    lemma2_check,
    lemma4_check,
    theorem1_check,
)
from .metric import (
    Lp,
    PowerQuasi,
    Snowflake,
    read_cloud,
    spec_from_string,
    validate_quasi_metric,
    write_cloud,
)
from .mst import (
    build_mst_kruskal,
    build_mst_prim,
    read_tree,
    tree_total_length,
    write_tree,
)
from .reports import format_float


@dataclass
class RunManifest:
    """Reproducibility record accompanying every output file."""

    command: str
    parameters: dict
    seed: int | None
    toolkit_version: str = __version__
    input_digest: dict = field(default_factory=dict)
    started: str = ""
    finished: str = ""

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "parameters": {k: str(v) for k, v in sorted(self.parameters.items())},
                "seed": self.seed,
                "toolkit_version": self.toolkit_version,
                "input_digest": self.input_digest,
                "started": self.started,
                "finished": self.finished,
            },
            indent=2,
        )


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(command, args, seed, inputs=()):
    params = {
        k: v for k, v in vars(args).items() if k not in ("func",) and v is not None
    }
    return RunManifest(
        command=command,
        parameters=params,
        seed=seed,
        input_digest={str(p): _digest(p) for p in inputs},
        started=time.strftime("%Y-%m-%dT%H:%M:%S"),
    )


def _finish(manifest: RunManifest, out_path) -> None:
    manifest.finished = time.strftime("%Y-%m-%dT%H:%M:%S")
    with open(str(out_path) + ".manifest.json", "w", newline="\n") as fh:
        fh.write(manifest.to_json())
        fh.write("\n")


def _write_output(manifest: RunManifest, path, text: str) -> None:
    """Write ``text`` to ``path`` with LF endings, then its manifest sidecar."""
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    _finish(manifest, path)


def _parse_list(text: str, kind) -> list:
    """A non-empty comma-separated list of ``kind`` (int or float) values."""
    try:
        values = [kind(x) for x in text.split(",") if x.strip()]
    except ValueError:
        values = []
    if not values:
        raise InputError(f"expected a comma-separated {kind.__name__} list, got {text!r}")
    return values


# ----------------------------------------------------------------- generate


def cmd_generate(args) -> int:
    if args.shape == "uniform-cube" and args.seed is None:
        raise InputError("uniform-cube requires --seed (no entropy defaults)")
    if (args.size is None) == (args.depth is None):
        raise InputError("give exactly one of --size and --depth")
    size = args.depth if args.depth is not None else args.size
    manifest = _manifest("generate", args, args.seed or 0)
    cloud, known_dim = builtin_shape(
        args.shape, size, dim=args.dim, seed=args.seed or 0
    )
    write_cloud(cloud, args.out)
    _finish(manifest, args.out)
    dim_note = "" if known_dim is None else f", analytic dimension {known_dim:.5f}"
    print(f"wrote {cloud.n} points in dimension {cloud.ambient_dim}{dim_note}")
    return 0


# ---------------------------------------------------------------------- mst


def cmd_mst(args) -> int:
    spec = spec_from_string(args.metric)
    cloud = read_cloud(args.infile)
    manifest = _manifest("mst", args, None, inputs=[args.infile])
    if args.algo == "prim":
        tree = build_mst_prim(cloud, spec, root=args.root)
    elif args.algo == "kruskal":
        tree = build_mst_kruskal(cloud, spec)
    else:
        raise InputError(f"unknown algorithm {args.algo!r}")
    write_tree(tree, args.out)
    _finish(manifest, args.out)
    total = tree_total_length(tree)
    print(f"{args.algo} tree over {tree.n} points, total length {format_float(total)}")
    return 0


# ------------------------------------------------------------------- energy


def cmd_energy(args) -> int:
    tree = read_tree(args.tree)
    manifest = _manifest("energy", args, None, inputs=[args.tree])
    report = energy(tree, args.alpha)
    print(format_float(report.value))
    if args.out:
        _write_output(manifest, args.out, report.to_text())
    return 0


# ------------------------------------------------------------------ dim-box


def cmd_dim_box(args) -> int:
    spec = spec_from_string(args.metric)
    cloud = read_cloud(args.infile)
    manifest = _manifest("dim-box", args, None, inputs=[args.infile])
    window = WindowPolicy(min_count=args.window_min, max_fraction=args.window_frac)
    estimate = box_dimension(
        cloud,
        spec,
        window=window,
        ratio=args.ratio,
        anchor=args.anchor,
        max_scales=args.max_scales,
    )
    print(format_float(estimate.value))
    print(
        f"scales used {len(estimate.fit_points)}, r2 {estimate.r_squared:.6f}, "
        f"window {estimate.window}"
    )
    if args.out:
        _write_output(manifest, args.out, estimate.to_text() + "\n")
    if args.csv:
        _write_output(manifest, args.csv, eps_count_csv(estimate))
    return 0


# ------------------------------------------------------------------ dim-mst


def cmd_dim_mst(args) -> int:
    spec = spec_from_string(args.metric)
    family = ShapeFamily(args.shape, args.dim)
    manifest = _manifest("dim-mst", args, args.seed)
    estimate = mst_dimension(
        family,
        spec,
        sizes=_parse_list(args.sizes, int),
        alphas=_parse_list(args.alphas, float),
        seed=args.seed,
        reps=args.reps,
    )
    print(format_float(estimate.value))
    crossover = estimate.details.get("crossover_alpha")
    print(
        f"median slope {estimate.slope:.4f}, min r2 {estimate.r_squared:.6f}, "
        f"crossover alpha {crossover}, window {estimate.window}"
    )
    if args.out:
        _write_output(manifest, args.out, estimate.to_text() + "\n")
    if args.csv:
        _write_output(manifest, args.csv, energy_table_csv(estimate))
    return 0


# ------------------------------------------------------------------- verify


def _verify_lemma1(trials, seed):
    reports = []
    for i, d in enumerate((2, 3, 5)):
        reports.append(lemma1_sweep(trials, d, seed + i))
    return reports


def _verify_lemma2(trials, seed):
    # uniform clouds, alternately in d = 2 and d = 3
    clouds = (generate_uniform(100, 2 + i % 2, seed + i) for i in range(trials))
    return [lemma2_check(cloud, build_mst_prim(cloud, Lp(2.0))) for cloud in clouds]


def _verify_lemma4(trials, seed):
    clouds = [generate_uniform(500, 2 + i % 2, seed + i) for i in range(trials)]
    clouds += [builtin_shape("cantor", 8)[0], builtin_shape("sierpinski-triangle", 6)[0]]
    reports = []
    for spec in (Lp(2.0), PowerQuasi(Lp(2.0), 2.0)):
        for cloud in clouds:
            tree = build_mst_prim(cloud, spec)
            reports.extend(lemma4_check(cloud, spec, tree, 2.0**-k) for k in range(1, 9))
    return reports


def _verify_thm1(trials, seed):
    sizes = [2**k for k in range(8, 13)]
    seeds = [seed + i for i in range(min(trials, 5))]
    return [theorem1_check(2, [0.5, 1.0, 2.0, 3.0], sizes, seeds)]


def _verify_quasi(trials, seed):
    reports = []
    cloud2 = generate_uniform(200, 2, seed)
    cloud1 = builtin_shape("interval", 512)[0]
    cases = [
        (Lp(2.0), cloud2),
        (Lp(1.0), cloud2),
        (Snowflake(Lp(2.0), 0.5), cloud2),
        (PowerQuasi(Lp(2.0), 2.0), cloud1),
    ]
    for spec, cloud in cases:
        reports.append(validate_quasi_metric(spec, cloud, trials, seed))
    return reports


VERIFY_SUITES = {
    "lemma1": _verify_lemma1,
    "lemma2": _verify_lemma2,
    "lemma4": _verify_lemma4,
    "thm1": _verify_thm1,
    "quasi": _verify_quasi,
}


def cmd_verify(args) -> int:
    suite = VERIFY_SUITES.get(args.suite)
    if suite is None:
        raise InputError(f"unknown suite {args.suite!r}")
    if args.trials < 1:
        raise InputError(f"trials must be >= 1, got {args.trials}")
    reports = suite(args.trials, args.seed)
    failed = 0
    for report in reports:
        print(report.summary_line())
        if not report.passed:
            failed += 1
    if failed:
        raise CheckFailedError(f"{failed} of {len(reports)} checks failed")
    print(f"all {len(reports)} checks passed")
    return 0


# -------------------------------------------------------------------- scale


def _svg_loglog(series, title) -> str:
    """Hand-rolled scatter + fitted-line plot on log-log axes, as SVG text."""
    width, height, margin = 640, 480, 60
    xs_all = [x for _, pts, _ in series for x, _ in pts]
    ys_all = [y for _, pts, _ in series for _, y in pts]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.1f}" y="24" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height-margin}" x2="{width-margin}" y2="{height-margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height-margin}" stroke="black"/>',
        f'<text x="{width/2:.1f}" y="{height-16}" text-anchor="middle" font-size="12">log n</text>',
        f'<text x="18" y="{height/2:.1f}" font-size="12" transform="rotate(-90 18 {height/2:.1f})" text-anchor="middle">log energy</text>',
    ]
    for idx, (label, pts, fit) in enumerate(series):
        color = palette[idx % len(palette)]
        for x, y in pts:
            parts.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{color}"/>'
            )
        if fit is not None:
            slope, intercept = fit
            parts.append(
                f'<line x1="{sx(x_lo):.2f}" y1="{sy(slope*x_lo+intercept):.2f}" '
                f'x2="{sx(x_hi):.2f}" y2="{sy(slope*x_hi+intercept):.2f}" '
                f'stroke="{color}" stroke-dasharray="4 3"/>'
            )
        parts.append(
            f'<text x="{width-margin+6}" y="{margin+16*idx}" font-size="11" '
            f'fill="{color}" text-anchor="start">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_scale(args) -> int:
    spec = spec_from_string(args.metric)
    family = ShapeFamily(args.shape, args.dim)
    sizes = _parse_list(args.sizes, int)
    alphas = check_alphas(_parse_list(args.alphas, float))
    seeds = _parse_list(args.seeds, int)
    if min(sizes) < 2:
        raise InputError(f"scale needs sizes >= 2 (a tree with edges), got {min(sizes)}")
    manifest = _manifest("scale", args, seeds[0])
    rows = ["shape,n,alpha,seed,energy,max_edge"]
    measured = {}
    cell = 0
    total_cells = len(sizes) * len(seeds)
    for n in sizes:
        for seed in seeds:
            cell += 1
            if args.progress:
                print(f"cell {cell}/{total_cells}", file=sys.stderr)
            cloud = family.generate(n, seed=seed)
            lengths = build_mst_kruskal(cloud, spec).length
            max_edge = float(lengths.max())
            for alpha, value in zip(alphas, energies(lengths, alphas)):
                rows.append(
                    f"{args.shape},{n},{format_float(alpha)},{seed},"
                    f"{format_float(value)},{format_float(max_edge)}"
                )
                measured.setdefault(alpha, {}).setdefault(n, []).append(value)
    _write_output(manifest, args.out, "\n".join(rows) + "\n")
    print(f"wrote {len(rows) - 1} measurements to {args.out}")
    if args.svg:
        series = []
        for alpha in alphas:
            pts = []
            for n in sizes:
                values = measured[alpha][n]
                geo = float(np.exp(np.mean(np.log(values))))
                pts.append((math.log(n), math.log(geo)))
            fit = None
            if len(pts) >= 2:
                slope, intercept, _ = least_squares_line(
                    [p[0] for p in pts], [p[1] for p in pts]
                )
                fit = (slope, intercept)
            series.append((f"alpha={alpha:g}", pts, fit))
        _write_output(manifest, args.svg, _svg_loglog(series, f"{args.shape}: energy growth"))
        print(f"wrote plot to {args.svg}")
    return 0


# --------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mstdim",
        description=(
            "Minimal spanning trees, edge-length energies, and dimension "
            "estimation over finite (quasi-)metric point sets."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a built-in point cloud to a file")
    p.add_argument("--shape", required=True, choices=SHAPE_NAMES)
    p.add_argument("--size", type=int, help="points (uniform/interval) or side (grid)")
    p.add_argument("--depth", type=int, help="composition depth for fractal shapes")
    p.add_argument("--dim", type=int, help="ambient dimension (uniform-cube, grid)")
    p.add_argument("--seed", type=int, help="required for random shapes")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("mst", help="build a spanning tree from a cloud file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--metric", default="l2")
    p.add_argument("--algo", default="prim", choices=("prim", "kruskal"))
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mst)

    p = sub.add_parser("energy", help="alpha-energy of a stored tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("dim-box", help="packing-based dimension of a cloud file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--metric", default="l2")
    p.add_argument("--ratio", type=float, default=0.5, help="schedule ratio")
    p.add_argument("--anchor", type=float, help="schedule anchor (default: diameter)")
    p.add_argument("--max-scales", type=int, default=60, dest="max_scales")
    p.add_argument("--window-min", type=int, default=8, dest="window_min")
    p.add_argument("--window-frac", type=float, default=0.125, dest="window_frac")
    p.add_argument("--out", help="write the estimate record")
    p.add_argument("--csv", help="write the (eps, count) table")
    p.set_defaults(func=cmd_dim_box)

    p = sub.add_parser("dim-mst", help="energy-growth dimension of a shape family")
    p.add_argument("--shape", required=True, choices=SHAPE_NAMES)
    p.add_argument("--dim", type=int)
    p.add_argument("--sizes", required=True, help="comma-separated point counts")
    p.add_argument("--alphas", required=True, help="comma-separated exponents")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--metric", default="l2")
    p.add_argument("--out")
    p.add_argument("--csv", help="write the (n, alpha, energy) table")
    p.set_defaults(func=cmd_dim_mst)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(VERIFY_SUITES))
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scale", help="energy measurements over a (n, alpha, seed) grid")
    p.add_argument("--shape", required=True, choices=SHAPE_NAMES)
    p.add_argument("--dim", type=int)
    p.add_argument("--sizes", required=True)
    p.add_argument("--alphas", required=True)
    p.add_argument("--seeds", required=True)
    p.add_argument("--metric", default="l2")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", help="optional log-log plot")
    p.add_argument("--progress", action="store_true", help="plain cell counter on stderr")
    p.set_defaults(func=cmd_scale)

    return parser


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, ToolkitError):
        return exc.exit_code
    if isinstance(exc, OSError):
        return InputError.exit_code
    return 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
