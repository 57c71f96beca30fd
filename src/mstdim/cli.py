"""Command-line front end.

Subcommands: generate, mst, energy, dim-box, dim-mst, verify, scale.
Every file-producing command writes a manifest sidecar recording the exact
parameters, seed, toolkit version and input digests; re-running a command
with the same manifest (timestamps aside) reproduces the output bit for bit.

Exit codes: 0 success, 1 internal error, 2 input error, 3 check failed,
4 estimation failed, 5 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import __version__
from .dimension import (
    _energy_sweep,
    _growth_fits,
    box_dimension,
    energy_table_csv,
    eps_count_csv,
    mst_dimension,
)
from .energy import energies, energy
from .errors import CheckFailedError, InputError, ToolkitError
from .generators import _IFS, SHAPE_NAMES, ShapeFamily, builtin_shape, generate_uniform
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
    write_tree,
)
from .reports import format_float


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(command, args, seed, inputs=()) -> dict:
    """Reproducibility record accompanying every output file; ``_finish``
    stamps and writes it."""
    params = {k: str(v) for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    return {
        "command": command,
        "parameters": params,
        "seed": seed,
        "toolkit_version": __version__,
        "input_digest": {str(p): _digest(p) for p in inputs},
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "finished": "",
    }


def _finish(manifest: dict, out_path) -> None:
    manifest["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    with open(str(out_path) + ".manifest.json", "w", newline="\n") as fh:
        fh.write(json.dumps(manifest, indent=2) + "\n")


def _write_output(manifest: dict, path, text: str) -> None:
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
    # --depth for the fractals, --size for the other shapes
    flag, other = ("depth", "size") if args.shape in _IFS else ("size", "depth")
    size = getattr(args, flag)
    if size is None or getattr(args, other) is not None:
        raise InputError(f"{args.shape} takes --{flag} and no --{other}")
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
    else:
        tree = build_mst_kruskal(cloud, spec)
    total = energies(tree.length, [1.0])[0]
    write_tree(tree, args.out)
    _finish(manifest, args.out)
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


def _report_estimate(manifest, args, estimate, summary, table_csv) -> int:
    """Print the estimate's value and the ``summary`` line, then write its
    record to ``--out`` and ``table_csv(estimate)`` to ``--csv`` if given."""
    print(format_float(estimate.value))
    print(summary)
    if args.out:
        _write_output(manifest, args.out, estimate.to_text() + "\n")
    if args.csv:
        _write_output(manifest, args.csv, table_csv(estimate))
    return 0


def cmd_dim_box(args) -> int:
    spec = spec_from_string(args.metric)
    cloud = read_cloud(args.infile)
    manifest = _manifest("dim-box", args, None, inputs=[args.infile])
    estimate = box_dimension(cloud, spec, ratio=args.ratio, anchor=args.anchor)
    summary = (
        f"scales used {len(estimate.fit_points)}, r2 {estimate.r_squared:.6f}, "
        f"window {estimate.window}"
    )
    return _report_estimate(manifest, args, estimate, summary, eps_count_csv)


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
    )
    crossover = estimate.details.get("crossover_alpha")
    summary = (
        f"median slope {estimate.slope:.4f}, min r2 {estimate.r_squared:.6f}, "
        f"crossover alpha {crossover}, window {estimate.window}"
    )
    return _report_estimate(manifest, args, estimate, summary, energy_table_csv)


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
    if args.trials < 1:
        raise InputError(f"trials must be >= 1, got {args.trials}")
    reports = VERIFY_SUITES[args.suite](args.trials, args.seed)
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
    """Scatter + fitted-line plot on log-log axes, as SVG text, of (label,
    ``_growth_fits`` entry) pairs; an entry without a slope gets no line."""
    width, height, margin = 640, 480, 60
    xs_all = [x for _, fit in series for x, _ in fit["series"]]
    ys_all = [y for _, fit in series for _, y in fit["series"]]
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
    for idx, (label, fit) in enumerate(series):
        color = palette[idx % len(palette)]
        for x, y in fit["series"]:
            parts.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{color}"/>'
            )
        if fit["slope"] is not None:
            slope, intercept = fit["slope"], fit["intercept"]
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
    member = ShapeFamily(args.shape, args.dim).generate
    sizes = _parse_list(args.sizes, int)
    alphas = _parse_list(args.alphas, float)
    seeds = _parse_list(args.seeds, int)
    manifest = _manifest("scale", args, seeds[0])
    table, longest = _energy_sweep(member, spec, sizes, alphas, [seeds] * len(sizes))
    fits = _growth_fits(sizes, alphas, table) if args.svg else None
    rows = ["shape,n,alpha,seed,energy,max_edge"]
    for n, per_seed, per_seed_longest in zip(sizes, table.tolist(), longest.tolist()):
        for seed, values, max_edge in zip(seeds, per_seed, per_seed_longest):
            for alpha, value in zip(alphas, values):
                rows.append(
                    f"{args.shape},{n},{format_float(alpha)},{seed},"
                    f"{format_float(value)},{format_float(max_edge)}"
                )
    _write_output(manifest, args.out, "\n".join(rows) + "\n")
    print(f"wrote {len(rows) - 1} measurements to {args.out}")
    if args.svg:
        series = [(f"alpha={alpha:g}", fit) for alpha, fit in zip(alphas, fits)]
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
    p.add_argument("--anchor", type=float,
                   help="schedule anchor (default: the exact diameter, a few evaluations per point)")
    p.add_argument("--out", help="write the estimate record")
    p.add_argument("--csv", help="write the (eps, count) table")
    p.set_defaults(func=cmd_dim_box)

    p = sub.add_parser("dim-mst", help="energy-growth dimension of a shape family")
    p.add_argument("--shape", required=True, choices=SHAPE_NAMES)
    p.add_argument("--dim", type=int)
    p.add_argument("--sizes", required=True, help="comma-separated point counts")
    p.add_argument("--alphas", required=True, help="comma-separated exponents")
    p.add_argument("--seed", type=int, required=True)
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
    except Exception as exc:  # a fault of the program: one line, not a traceback
        print(f"error: internal error: {exc!r}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
