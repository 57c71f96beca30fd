"""The benchmark's workloads.

Each workload is a list of ``mstdim`` CLI invocations. ``setup`` commands
write the inputs and count towards ``setup_s``; ``commands`` are timed. In
argument templates ``{dir}`` is the run's work directory and ``{seed}`` /
``{seed1}`` are the workload seed and the seed after it.

The three workloads are chosen so that each planned optimisation has one
workload that exercises it and one that must show no change:

* ``box-fractal`` is dominated by the per-point greedy-packing loop and
  builds no tree (center-driven packing moves it, tree builders do not).
* ``tree-fractal`` is dense Prim and dense Kruskal on a fractal with many
  exact length ties and no packing (tree builders move it, packing does not).
* ``quasi-sweep`` runs many mid-size Prim builds on a quasi-metric and on
  the general-p ``Lp`` kernel in d = 3, where an l2-only or fractal-only
  fast path must predict no change and per-call overhead weighs more.
"""

from __future__ import annotations

from dataclasses import dataclass

# Reference values for seeded outputs are recorded at this seed only.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Command:
    """One CLI invocation and how the gate judges it.

    ``check`` names the gate check for its outputs, ``ref`` the reference
    entry it is compared with (a ``{seed}`` in it means the reference exists
    only for the seed it was recorded at), and ``slot`` the end-to-end metric
    its time is added to, if any.
    """

    argv: tuple
    check: str
    ref: str | None = None
    slot: str | None = None

    def format(self, work_dir: str, seed: int) -> list:
        values = {"dir": work_dir, "seed": seed, "seed1": seed + 1}
        return [part.format(**values) for part in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple
    commands: tuple
    inputs: tuple
    # spans (or row-kernel names) a traced pass of this workload must produce
    layers: tuple


def _generate(shape_args, out, ref):
    return Command(("generate", *shape_args, "--out", "{dir}/" + out), "generate", ref)


CARPET5 = _generate(("--shape", "sierpinski-carpet", "--depth", "5"), "carpet5.csv", "generate-carpet5")
CARPET4 = _generate(("--shape", "sierpinski-carpet", "--depth", "4"), "carpet4.csv", "generate-carpet4")
GRID64 = _generate(("--shape", "grid", "--size", "64"), "grid64.csv", "generate-grid64")

_SETUP_LAYERS = ("cli.generate", "generators.builtin_shape", "metric.write_cloud")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="box-fractal",
            setup=(CARPET5, GRID64),
            commands=(
                Command(
                    ("dim-box", "--in", "{dir}/carpet5.csv", "--ratio", "0.5773502691896258",
                     "--anchor", "1", "--out", "{dir}/box5.json", "--csv", "{dir}/box5.csv"),
                    "box", "box-carpet5", "cmd1_s",
                ),
                Command(
                    ("dim-box", "--in", "{dir}/grid64.csv", "--out", "{dir}/box64.json",
                     "--csv", "{dir}/box64.csv"),
                    "box", "box-grid64", "cmd2_s",
                ),
            ),
            inputs=(
                {"name": "sierpinski-carpet depth 5", "n": 32768, "d": 2, "metric": "l2"},
                {"name": "grid 64x64", "n": 4096, "d": 2, "metric": "l2"},
            ),
            layers=_SETUP_LAYERS + (
                "cli.dim-box", "cli.manifest", "metric.read_cloud", "metric.diameter",
                "dimension.box_dimension", "dimension.greedy_packing", "Lp.one_to_many",
            ),
        ),
        Workload(
            name="tree-fractal",
            setup=(CARPET5, CARPET4),
            commands=(
                Command(
                    ("mst", "--in", "{dir}/carpet5.csv", "--algo", "prim", "--out", "{dir}/t5.json"),
                    "tree", "tree-prim-carpet5", "cmd1_s",
                ),
                Command(
                    ("energy", "--tree", "{dir}/t5.json", "--alpha", "1.5", "--out", "{dir}/e5.json"),
                    "energy", "energy-carpet5",
                ),
                Command(
                    ("mst", "--in", "{dir}/carpet4.csv", "--algo", "kruskal", "--out", "{dir}/k4.json"),
                    "tree", "tree-kruskal-carpet4", "cmd2_s",
                ),
            ),
            inputs=(
                {"name": "sierpinski-carpet depth 5", "n": 32768, "d": 2, "metric": "l2"},
                {"name": "sierpinski-carpet depth 4", "n": 4096, "d": 2, "metric": "l2"},
            ),
            layers=_SETUP_LAYERS + (
                "cli.mst", "cli.energy", "cli.manifest", "metric.read_cloud",
                "mst.build_mst_prim", "mst.build_mst_kruskal", "mst.write_tree",
                "mst.read_tree", "energy.energy", "Lp.one_to_many",
            ),
        ),
        Workload(
            name="quasi-sweep",
            setup=(),
            commands=(
                Command(
                    ("verify", "--suite", "lemma4", "--trials", "40", "--seed", "{seed}"),
                    "verify", "verify-lemma4-trials40", "cmd1_s",
                ),
                Command(
                    ("dim-mst", "--shape", "uniform-cube", "--dim", "3", "--metric", "powerquasi:2",
                     "--sizes", "512,1024,2048,4096,8192", "--alphas", "1,2,3,4", "--seed", "{seed}",
                     "--out", "{dir}/dm.json", "--csv", "{dir}/dm.csv"),
                    "dim-mst", "dim-mst-s{seed}", "cmd2_s",
                ),
                Command(
                    ("scale", "--shape", "uniform-cube", "--dim", "3", "--metric", "lp:3",
                     "--sizes", "512,2048,8192", "--alphas", "1,3", "--seeds", "{seed},{seed1}",
                     "--out", "{dir}/sc.csv", "--svg", "{dir}/sc.svg"),
                    "scale", "scale-s{seed}", "cmd2_s",
                ),
            ),
            inputs=(
                {"name": "verify lemma4: uniform d=2,3 n=500, cantor 8, sierpinski-triangle 6",
                 "n": 500, "d": "2,3", "metric": "l2, powerquasi:2"},
                {"name": "dim-mst uniform-cube", "n": "512..8192", "d": 3, "metric": "powerquasi:2"},
                {"name": "scale uniform-cube", "n": "512..8192", "d": 3, "metric": "lp:3"},
            ),
            layers=(
                "cli.verify", "cli.dim-mst", "cli.scale", "cli.manifest",
                "generators.generate_uniform", "generators.builtin_shape",
                "generators.ShapeFamily.generate", "mst.build_mst_prim",
                "lemma_checks.lemma4_check", "dimension.mst_dimension", "Lp.one_to_many",
            ),
        ),
    )
}

# End-to-end slots per workload, as the README tabulates them.
SLOTS = ("cmd1_s", "cmd2_s")
