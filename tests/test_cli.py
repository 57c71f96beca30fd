import hashlib
import json
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from mstdim import cli, generators
from mstdim.cli import exit_code_for, main
from mstdim.errors import (
    CheckFailedError,
    EstimationError,
    InputError,
    ResourceError,
)
from mstdim.generators import DEFAULT_POINT_BUDGET
from mstdim.metric import Lp, PointCloud, write_cloud
from mstdim.mst import build_mst_prim, read_tree
from mstdim.reports import CheckReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- generate


def test_generate_cantor(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code, stdout, _ = run(
        capsys, "generate", "--shape", "cantor", "--depth", "9", "--out", str(out)
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 512
    assert (tmp_path / "c.csv.manifest.json").exists()
    manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert "512" in stdout


def test_generate_grid_lines(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code, _, _ = run(
        capsys,
        *["generate", "--shape", "grid", "--size", "32", "--dim", "2", "--out", str(out)],
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 1024


def test_generate_uniform_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["generate", "--shape", "uniform-cube", "--size", "1000", "--dim", "3",
            "--seed", "7"]
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    args[-1] = "8"  # different seed
    assert run(capsys, *args, "--out", str(c))[0] == 0
    assert a.read_bytes() != c.read_bytes()


def test_generate_uniform_requires_seed(tmp_path, capsys):
    code, _, err = run(
        capsys,
        *["generate", "--shape", "uniform-cube", "--size", "10", "--out",
          str(tmp_path / "x.csv")],
    )
    assert code == 2
    assert "seed" in err


def test_generate_resource_error(tmp_path, capsys):
    code, _, _ = run(
        capsys,
        *["generate", "--shape", "grid", "--size", "1001", "--dim", "2", "--out",
          str(tmp_path / "x.csv")],
    )
    assert code == 5


@pytest.mark.parametrize(
    "shape_args",
    [
        ["grid", "--size", "2", "--dim", "100000000"],
        ["cantor", "--depth", "100000000"],
        ["sierpinski-carpet", "--depth", "100000000"],
        # 10^13 coordinates, refused before any is drawn
        ["uniform-cube", "--size", "10", "--dim", str(10**12), "--seed", "1"],
    ],
    ids=["grid", "cantor", "carpet", "uniform-cube"],
)
def test_generate_huge_exponent_exits_5(tmp_path, capsys, shape_args):
    code, stdout, err = run(
        capsys, "generate", "--shape", *shape_args, "--out", str(tmp_path / "x.csv")
    )
    assert code == 5
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------- mst


def test_mst_roundtrip_matches_in_process(tmp_path, capsys):
    rng = np.random.default_rng(0)
    cloud = PointCloud(rng.random((40, 2)))
    cloud_path = tmp_path / "cloud.csv"
    write_cloud(cloud, cloud_path)
    tree_path = tmp_path / "tree.json"
    code, _, _ = run(
        capsys,
        *["mst", "--in", str(cloud_path), "--algo", "prim", "--out", str(tree_path)],
    )
    assert code == 0
    stored = read_tree(tree_path)
    direct = build_mst_prim(cloud, Lp(2.0))
    assert stored.edges == direct.edges


def test_mst_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n3.0,nope\n")
    code, _, err = run(
        capsys, *["mst", "--in", str(bad), "--out", str(tmp_path / "t.json")]
    )
    assert code == 2
    assert ":2:" in err


def test_mst_missing_file_exit_code(tmp_path, capsys):
    code, _, _ = run(
        capsys,
        *["mst", "--in", str(tmp_path / "none.csv"), "--out", str(tmp_path / "t.json")],
    )
    assert code == 2


# ------------------------------------------------------------------- energy


def test_energy_prints_unit_square_value(tmp_path, capsys):
    corners = PointCloud([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    cloud_path = tmp_path / "sq.csv"
    write_cloud(corners, cloud_path)
    tree_path = tmp_path / "sq.json"
    run(capsys, *["mst", "--in", str(cloud_path), "--out", str(tree_path)])
    code, stdout, _ = run(
        capsys, *["energy", "--tree", str(tree_path), "--alpha", "1"]
    )
    assert code == 0
    assert stdout.splitlines()[0] == "3"


@pytest.mark.parametrize(
    "record",
    [
        {"n": 2, "builder": "prim", "edges": [[0, 1]]},  # no length
        {"n": 3, "builder": "prim", "edges": [[0, 1, 1.5], [1, 2]]},  # ragged
        {"n": 3, "builder": "prim", "edges": [[0, 1, 0.5], [1, 7, 1.0]]},  # index 7
        {"n": 3, "builder": "prim", "edges": [[0, 1, 0.5], [1, 2, -1.0]]},
        {"n": 3, "builder": "prim", "edges": [[0, 1, 0.5], [1, 2, "nan"]]},
        {"n": 3, "builder": "prim", "edges": [[0, 1, 0.5], [1, 1, 0.5]]},  # self-loop
        {"n": 4, "builder": "prim", "edges": [[0, 1, 1], [1, 2, 1], [2, 0, 1]]},  # cycle
        {"n": 3, "builder": "prim", "edges": [[0, 1, 0.5]]},  # n - 2 edges
        {"n": 3, "builder": "prim", "edges": [[0, 1.5, 0.5], [1, 2, 0.5]]},
        {"n": 3, "builder": "prim", "edges": [[1, 2, 1], [0, 1, 1]]},  # edge 0's u joins later
        {"n": 3, "builder": "prim", "edges": [[0, 1, 1], [2, 1, 1]]},  # vertex 1 added twice
        {"n": 2, "builder": "prim", "edges": [[0, 10**400, 1]]},
        {"n": 2, "builder": "prim", "edges": [[0, "1.0", 1]]},
        {"n": 2, "builder": "x", "edges": [[True, False, True]]},
        {"n": 3, "builder": "prim", "edges": [[0, True, 0.5], [1, 2, 1]]},
        {"n": 2, "builder": None, "edges": [[0, 1, 1.0]]},
        {"n": 2, "builder": ["prim"], "edges": [[0, 1, 1.0]]},
        {"n": 0, "builder": "prim", "edges": []},
        [0, 1, 0.5],
        "[" * 200_000 + "]" * 200_000,
        '{"n": 2, "builder": "prim", "edges": [[0, 1, ' + "1" * 5000 + "]]}",
    ],
    ids=["short-edge", "ragged", "index-range", "negative", "nan", "self-loop", "cycle",
         "edge-count", "non-integer", "prim-joins-later", "prim-adds-twice",
         "huge-index", "string-index", "boolean-edge", "boolean-mixed",
         "builder-null", "builder-list", "empty", "not-object",
         "deep-nesting", "huge-int-literal"],
)
def test_energy_rejects_invalid_tree(tmp_path, capsys, record):
    # a str record is written as raw text, anything else as JSON
    tree_path = tmp_path / "bad.json"
    tree_path.write_text(record if isinstance(record, str) else json.dumps(record))
    code, stdout, err = run(capsys, "energy", "--tree", str(tree_path), "--alpha", "1")
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# ------------------------------------------------------------------ dim-box


def test_dim_box_cantor_default_schedule(tmp_path, capsys):
    out = tmp_path / "c.csv"
    run(capsys, "generate", "--shape", "cantor", "--depth", "9", "--out", str(out))
    code, stdout, _ = run(capsys, "dim-box", "--in", str(out))
    assert code == 0
    value = float(stdout.splitlines()[0])
    assert 0.58 <= value <= 0.68


def test_dim_box_estimation_failure_exit_code(tmp_path, capsys):
    cloud = PointCloud(np.random.default_rng(0).random((10, 2)))
    path = tmp_path / "tiny.csv"
    write_cloud(cloud, path)
    code, _, err = run(capsys, "dim-box", "--in", str(path))
    assert code == 4
    assert "scales" in err


@pytest.mark.parametrize("schedule", [["--ratio", "1e-10"], ["--anchor", "5e-324"]])
def test_dim_box_schedule_underflow_exits_4(tmp_path, capsys, schedule):
    # two piles of 50 points: the counts never leave the window from above,
    # so the schedule runs on until a scale rounds to 0 and must end there
    path = tmp_path / "piles.csv"
    write_cloud(PointCloud([[0.0, 0.0]] * 50 + [[1.0, 0.0]] * 50), path)
    code, _, err = run(capsys, "dim-box", "--in", str(path), *schedule)
    assert code == 4
    assert "only 0 scales inside the window" in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["dim-box", "--in", "{dir}/far.csv"], 2),
        (["dim-box", "--in", "{dir}/far.csv", "--anchor", "1e300"], 4),
        (["dim-box", "--in", "{dir}/grid.csv", "--metric", "powerquasi:1e308"], 2),
    ],
    ids=["diameter", "packing", "power"],
)
def test_overflowing_distances_print_one_error_line(tmp_path, capsys, argv, code):
    # a distance that overflows is inf, not a warning printed before the error
    (tmp_path / "far.csv").write_text("0,0\n1.5e308,1.5e308\n0,1\n")
    write_cloud(generators.builtin_shape("grid", 8)[0], tmp_path / "grid.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run(capsys, *[a.format(dir=tmp_path) for a in argv])
    assert result[:2] == (code, "")
    assert result[2].startswith("error: ") and result[2].count("\n") == 1


def test_dim_box_large_p_reads_like_a_smaller_p(tmp_path, capsys):
    # lp:400 distances no longer overflow to inf or underflow to 0: on 300
    # points the schedule is as short as under lp:50, in place of a fit of
    # slope 0.002 from the broken distances
    path = tmp_path / "u.csv"
    run(capsys, "generate", "--shape", "uniform-cube", "--size", "300", "--seed", "1",
        "--out", str(path))
    results = [
        run(capsys, "dim-box", "--in", str(path), "--metric", metric)
        for metric in ("lp:400", "lp:50")
    ]
    assert results[0][0] == 4
    assert results[0] == results[1]


def test_dim_box_csv_export(tmp_path, capsys):
    cloud_path = tmp_path / "c.csv"
    run(capsys, "generate", "--shape", "cantor", "--depth", "9", "--out", str(cloud_path))
    csv_path = tmp_path / "counts.csv"
    code, _, _ = run(
        capsys,
        *["dim-box", "--in", str(cloud_path), "--ratio", str(1 / 3), "--csv",
          str(csv_path)],
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "eps,count"
    for line in lines[1:]:
        eps, count = line.split(",")
        float(eps), int(count)  # parse back losslessly


# ------------------------------------------------------------------ dim-mst


def test_dim_mst_interval(capsys):
    code, stdout, _ = run(
        capsys,
        *["dim-mst", "--shape", "interval", "--sizes",
          "64,128,256,512,1024", "--alphas", "0.4,0.6,0.8", "--seed", "1"],
    )
    assert code == 0
    value = float(stdout.splitlines()[0])
    assert abs(value - 1.0) <= 0.05


def test_dim_mst_estimation_failure(capsys):
    code, _, err = run(
        capsys,
        *["dim-mst", "--shape", "interval", "--sizes", "64,128,256",
          "--alphas", "5.0", "--seed", "1"],
    )
    assert code == 4
    # (2/3)^2000 underflows: no log of the energy at size 2
    code, _, err = run(
        capsys,
        *["dim-mst", "--shape", "cantor", "--sizes", "2,4,8", "--alphas", "2000", "--seed", "0"],
    )
    assert code == 4
    assert "zero energy at size 2" in err


# ------------------------------------------------------------------- verify


def test_verify_lemma4_passes(capsys):
    code, stdout, _ = run(
        capsys, *["verify", "--suite", "lemma4", "--trials", "2", "--seed", "1"]
    )
    assert code == 0
    assert "all" in stdout and "passed" in stdout


def test_verify_lemma1_passes(capsys):
    code, stdout, _ = run(
        capsys, *["verify", "--suite", "lemma1", "--trials", "5000", "--seed", "1"]
    )
    assert code == 0


def test_verify_quasi_passes(capsys):
    code, stdout, _ = run(
        capsys, *["verify", "--suite", "quasi", "--trials", "500", "--seed", "1"]
    )
    assert code == 0
    assert "weak-triangle" in stdout


@pytest.mark.parametrize("suite, trials, checks", [("lemma2", 3, 3), ("thm1", 1, 1)])
def test_verify_suite_passes(capsys, suite, trials, checks):
    code, stdout, err = run(
        capsys, "verify", "--suite", suite, "--trials", str(trials), "--seed", "1"
    )
    assert code == 0 and err == ""
    lines = stdout.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == ["PASS"] * checks
    assert lines[-1] == f"all {checks} checks passed"


def test_verify_failed_check_exits_3(capsys, monkeypatch):
    report = CheckReport(name="lemma2", parameters={}, passed=False, min_slack=-0.5)
    monkeypatch.setitem(cli.VERIFY_SUITES, "lemma2", lambda trials, seed: [report])
    code, stdout, err = run(capsys, "verify", "--suite", "lemma2", "--seed", "1")
    assert code == 3
    assert stdout == "FAIL lemma2  min_slack=-0.5\n"
    assert err == "error: 1 of 1 checks failed\n"


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nonsense", "--seed", "1"])


# -------------------------------------------------------------------- scale


def test_scale_csv_and_svg(tmp_path, capsys):
    out = tmp_path / "runs.csv"
    svg = tmp_path / "plot.svg"
    code, _, _ = run(
        capsys,
        *["scale", "--shape", "grid", "--dim", "2", "--sizes", "64,256,1024",
          "--alphas", "0.5,1.0", "--seeds", "0", "--out", str(out), "--svg",
          str(svg)],
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "shape,n,alpha,seed,energy,max_edge"
    assert len(lines) == 1 + 3 * 2
    row = lines[1].split(",")
    assert row[0] == "grid" and int(row[1]) == 64
    float(row[4]), float(row[5])
    # SVG is well-formed XML
    tree = ET.parse(svg)
    assert tree.getroot().tag.endswith("svg")


def test_scale_plots_fitted_lines_only_across_sizes(tmp_path, capsys):
    def plot(sizes, alphas="0.5,1.0"):
        svg = tmp_path / "plot.svg"
        argv = ["scale", "--shape", "grid", "--sizes", sizes, "--alphas", alphas,
                "--seeds", "0", "--out", str(tmp_path / "runs.csv"), "--svg", str(svg)]
        assert run(capsys, *argv)[0] == 0
        root = ET.parse(svg).getroot()
        circles = root.findall("{http://www.w3.org/2000/svg}circle")
        lines = [e for e in root.findall("{http://www.w3.org/2000/svg}line")
                 if e.get("stroke-dasharray")]
        return len(circles), len(lines)

    # one size: a point per alpha and nothing to fit
    assert plot("64") == (2, 0)
    assert plot("64", "1") == (1, 0)
    assert plot("64,256") == (4, 2)


def test_scale_deterministic_output(tmp_path, capsys):
    args = [
        "scale", "--shape", "uniform-cube", "--dim", "2", "--sizes", "64,128",
        "--alphas", "1.0", "--seeds", "0,1",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_scale_row_order_fixed_by_grid(tmp_path, capsys):
    out = tmp_path / "runs.csv"
    run(
        capsys,
        *["scale", "--shape", "interval", "--sizes", "64,128", "--alphas",
          "0.5,1.0", "--seeds", "3,4", "--out", str(out)],
    )
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    key = [(int(r[1]), float(r[2]), int(r[3])) for r in rows]
    expected = [
        (n, a, s) for n in (64, 128) for s in (3, 4) for a in (0.5, 1.0)
    ]
    # rows follow the fixed (size, seed, alpha) nesting of the command
    assert key == [(n, a, s) for n in (64, 128) for s in (3, 4) for a in (0.5, 1.0)]


# ------------------------------------------------------------- manifests


def test_every_output_file_has_a_manifest(tmp_path, capsys):
    cloud = tmp_path / "c.csv"
    tree = tmp_path / "t.json"
    assert run(capsys, "generate", "--shape", "cantor", "--depth", "9", "--out", str(cloud))[0] == 0
    cases = [
        (["mst", "--in", str(cloud), "--out", str(tree)], ["t.json"], cloud),
        (["energy", "--tree", str(tree), "--alpha", "1", "--out", str(tmp_path / "e.json")],
         ["e.json"], tree),
        (["dim-box", "--in", str(cloud), "--ratio", str(1 / 3), "--out",
          str(tmp_path / "b.json"), "--csv", str(tmp_path / "b.csv")], ["b.json", "b.csv"], cloud),
        (["dim-mst", "--shape", "interval", "--sizes", "64,128,256", "--alphas", "0.5",
          "--seed", "1", "--out", str(tmp_path / "d.json"), "--csv", str(tmp_path / "d.csv")],
         ["d.json", "d.csv"], None),
        (["scale", "--shape", "interval", "--sizes", "8,16", "--alphas", "1", "--seeds", "0",
          "--out", str(tmp_path / "s.csv"), "--svg", str(tmp_path / "s.svg")],
         ["s.csv", "s.svg"], None),
    ]
    for argv, outputs, source in cases:
        assert run(capsys, *argv)[0] == 0, argv
        digest = {} if source is None else {
            str(source): hashlib.sha256(source.read_bytes()).hexdigest()
        }
        for name in outputs:
            manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
            assert manifest["command"] == argv[0], name
            assert manifest["input_digest"] == digest, name


# ------------------------------------------------------- benchmark tracer


def test_benchmark_tracer_wraps_the_package(tmp_path, capsys, monkeypatch):
    # perfbench/tracing.py wraps package functions by name and calls
    # ``Lp.one_to_many`` positionally: a rename in the package fails here
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracing import Tracer

    original = cli._manifest
    tracer = Tracer()
    tracer.install()
    try:
        cloud, tree = tmp_path / "c.csv", tmp_path / "t.json"
        generate = ["generate", "--shape", "cantor", "--depth", "4", "--out", str(cloud)]
        assert run(capsys, *generate)[0] == 0
        assert run(capsys, "mst", "--in", str(cloud), "--out", str(tree))[0] == 0
    finally:
        tracer.uninstall()
    assert cli._manifest is original
    names = {span.name for span in tracer.spans}
    assert {"cli.manifest", "metric.write_cloud", "metric.read_cloud",
            "mst.build_mst_prim", "mst.write_tree"} <= names
    spans = [*tracer.spans, tracer.orphan]
    assert sum(span.o2m_evals + span.pairs_evals for span in spans) > 0


def test_benchmark_gate_passes_every_workload(tmp_path, monkeypatch):
    # one pass of each benchmark workload at the reference seed, judged by
    # the benchmark's correctness gate: output drift fails here
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    import gate
    from worker import Runner, read_file
    from workloads import DEFAULT_SEED, WORKLOADS

    judge = gate.Gate(json.loads((bench / "reference.json").read_text()), DEFAULT_SEED)
    attempted, failed, problems, cases = 0, 0, [], []
    for name, workload in WORKLOADS.items():
        (tmp_path / name).mkdir()
        runner = Runner(cli, workload, DEFAULT_SEED, str(tmp_path / name))
        runner.gate(judge, runner.run(workload.setup))
        runner.gate(judge, runner.run(workload.commands))
        attempted += runner.attempted
        failed += runner.failed
        problems += runner.problems
        cases += [(c, argv, out, read_file) for c, argv, out in runner.last_outputs]
    assert (attempted, failed, problems) == (12, 0, [])
    assert gate.negative_test(judge, cases) == {"attempted": 10, "failed": 10, "missed": []}


# ------------------------------------------------------- invalid arguments

_SCALE = ["scale", "--shape", "uniform-cube", "--seeds", "0", "--out", "{dir}/s.csv"]
_DIM_MST = ["dim-mst", "--shape", "interval", "--seed", "1", "--out", "{dir}/d.json"]
_DIM_BOX = ["dim-box", "--in", "{dir}/sq.csv", "--out", "{dir}/b.json"]


@pytest.mark.parametrize(
    "argv",
    [
        ["energy", "--tree", "{tree}", "--alpha", "nan", "--out", "{dir}/e.json"],
        ["energy", "--tree", "{tree}", "--alpha", "inf", "--out", "{dir}/e.json"],
        _SCALE + ["--sizes", "8,16", "--alphas=-1,0"],
        _DIM_MST + ["--sizes", "64,128,256", "--alphas", "nan,1"],
        _SCALE + ["--sizes", "1,2", "--alphas", "1", "--svg", "{dir}/s.svg"],
        _SCALE + ["--sizes", ",", "--alphas", "1", "--svg", "{dir}/s.svg"],
        _DIM_MST + ["--sizes", "64,128,256", "--alphas", " , "],
        _DIM_MST + ["--sizes", "a,b", "--alphas", "1"],
        ["verify", "--suite", "lemma2", "--trials", "-5", "--seed", "1"],
        ["verify", "--suite", "lemma4", "--trials", "-5", "--seed", "1"],
        ["verify", "--suite", "thm1", "--trials", "0", "--seed", "1"],
        _DIM_BOX + ["--anchor", "nan"],
        _DIM_BOX + ["--anchor", "inf"],
        ["generate", "--shape", "cantor", "--size", "5", "--depth", "4", "--out", "{dir}/c.csv"],
        ["generate", "--shape", "cantor", "--size", "9", "--out", "{dir}/c.csv"],
        ["generate", "--shape", "grid", "--depth", "8", "--out", "{dir}/g.csv"],
        ["dim-mst", "--shape", "cantor", "--dim", "2", "--seed", "1", "--sizes", "8,16,32",
         "--alphas", "0.5", "--out", "{dir}/d.json"],
        _SCALE[:2] + ["interval", "--dim", "3"] + _SCALE[3:] + ["--sizes", "8,16", "--alphas", "1"],
        _DIM_MST[:2] + ["grid"] + _DIM_MST[3:] + ["--sizes=-4,16,64", "--alphas", "1"],
        _DIM_MST[:2] + ["cantor"] + _DIM_MST[3:] + ["--sizes=1,16,64", "--alphas", "1"],
        ["generate", "--shape", "uniform-cube", "--size", "10", "--seed", "-1",
         "--out", "{dir}/x.csv"],
        ["verify", "--suite", "lemma1", "--trials", "1", "--seed", "-1"],
        ["dim-mst", "--shape", "uniform-cube", "--sizes", "16,32,64", "--alphas", "1",
         "--seed", "-1"],
        ["scale", "--shape", "uniform-cube", "--sizes", "16", "--alphas", "1", "--seeds", "-3",
         "--out", "{dir}/s.csv"],
        ["dim-mst", "--shape", "grid", "--dim", "0", "--sizes", "4,9,16", "--alphas", "1",
         "--seed", "0"],
        _SCALE[:2] + ["grid", "--dim", "0"] + _SCALE[3:] + ["--sizes", "4,9", "--alphas", "1"],
        ["mst", "--in", "{dir}/bytes.bin", "--out", "{dir}/t.json"],
        ["dim-box", "--in", "{dir}/bytes.bin"],
        ["energy", "--tree", "{dir}/bytes.bin", "--alpha", "1"],
        ["scale", "--shape", "grid", "--sizes", "16,64", "--alphas", "1", "--seeds=-1",
         "--out", "{dir}/s.csv"],
        _SCALE + ["--sizes", "64,64", "--alphas", "1"],
        _SCALE + ["--sizes", "64,64", "--alphas", "1", "--svg", "{dir}/s.svg"],
        _DIM_MST + ["--sizes", "64,128,256", "--alphas", "1,1,0.5"],
        _SCALE + ["--sizes", "16,32", "--alphas", "1,1,0.5"],
        ["scale", "--shape", "uniform-cube", "--sizes", "16,32", "--alphas", "1",
         "--seeds", "1,1", "--out", "{dir}/s.csv"],
        ["mst", "--in", "{dir}/far.csv", "--metric", "powerquasi:2", "--out", "{dir}/t.json"],
        ["energy", "--tree", "{dir}/line.json", "--alpha", "1000", "--out", "{dir}/e.json"],
        ["dim-box", "--in", "{dir}/same.csv", "--out", "{dir}/b.json"],
        ["generate", "--shape", "grid", "--size", "1", "--out", "{dir}/g.csv"],
        ["generate", "--shape", "grid", "--size", "3", "--dim", "0", "--out", "{dir}/g.csv"],
    ],
    ids=["energy-nan", "energy-inf", "scale-alpha-nonpositive", "dim-mst-nan",
         "scale-size-1", "scale-no-sizes", "dim-mst-no-alphas", "dim-mst-sizes-not-int",
         "verify-lemma2-trials-negative", "verify-lemma4-trials-negative", "verify-thm1-trials-0",
         "dim-box-anchor-nan", "dim-box-anchor-inf",
         "generate-size-and-depth", "generate-cantor-size", "generate-grid-depth",
         "dim-mst-cantor-dim-2", "scale-interval-dim-3",
         "dim-mst-size-negative", "dim-mst-size-1", "generate-seed-negative",
         "verify-seed-negative", "dim-mst-seed-negative", "scale-seed-negative",
         "dim-mst-dim-0", "scale-dim-0", "mst-not-utf8", "dim-box-not-utf8",
         "energy-not-utf8", "scale-grid-seed-negative", "scale-sizes-repeated",
         "scale-sizes-repeated-svg", "dim-mst-alphas-repeated", "scale-alphas-repeated",
         "scale-seeds-repeated", "mst-total-overflows", "energy-overflows",
         "dim-box-coincident", "generate-grid-size-1", "generate-grid-dim-0"],
)
def test_invalid_numeric_arguments_exit_2(tmp_path, capsys, argv):
    cloud, tree = tmp_path / "sq.csv", tmp_path / "sq.json"
    write_cloud(PointCloud([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]), cloud)
    (tmp_path / "bytes.bin").write_bytes(b"\xff\xfe")
    # lengths 1e308 under powerquasi:2, whose sum overflows
    (tmp_path / "far.csv").write_text("0,0\n1e154,0\n2e154,0\n")
    # the tree of (0, 0), (3, 0), (7, 0): 4^1000 overflows
    (tmp_path / "line.json").write_text('{"n": 3, "builder": "prim", "edges": [[0, 1, 3], [1, 2, 4]]}')
    (tmp_path / "same.csv").write_text("0.5,0.5\n" * 3)
    assert run(capsys, "mst", "--in", str(cloud), "--out", str(tree))[0] == 0
    before = set(tmp_path.iterdir())
    code, stdout, err = run(capsys, *[a.format(tree=tree, dir=tmp_path) for a in argv])
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert set(tmp_path.iterdir()) == before  # nothing written


@pytest.mark.parametrize(
    "argv",
    [
        _DIM_MST[:2] + ["uniform-cube"] + _DIM_MST[3:] + ["--alphas", "1"],
        _SCALE + ["--alphas", "1"],
    ],
    ids=["dim-mst", "scale"],
)
def test_uniform_cube_over_budget_exits_5(tmp_path, capsys, monkeypatch, argv):
    def no_draw(*args):
        raise AssertionError("uniform points drawn over the budget")

    monkeypatch.setattr(generators, "generate_uniform", no_draw)
    sizes = ",".join(str(DEFAULT_POINT_BUDGET + k) for k in (1, 2, 3))
    code, stdout, err = run(capsys, *[a.format(dir=tmp_path) for a in argv], "--sizes", sizes)
    assert code == 5
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_mst_rejects_overflowing_coordinate_span(tmp_path, capsys):
    cloud = tmp_path / "far.csv"
    cloud.write_text("1e308,0\n-1e308,0\n")
    code, stdout, err = run(capsys, "mst", "--in", str(cloud), "--out", str(tmp_path / "t.json"))
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "t.json").exists()


@pytest.mark.parametrize("algo", ["prim", "kruskal"])
def test_mst_measures_a_subnormal_edge(tmp_path, capsys, algo):
    # the square of 1e-320 underflows to 0: the row is rescaled by its gap
    cloud = tmp_path / "two.csv"
    cloud.write_text("0,0\n1e-320,0\n")
    code, stdout, _ = run(capsys, "mst", "--in", str(cloud), "--algo", algo,
                          "--out", str(tmp_path / "t.json"))
    assert code == 0
    assert float(stdout.split("total length ")[1]) == 1e-320


@pytest.mark.parametrize("algo", ["prim", "kruskal"])
def test_mst_rejects_overflowing_length(tmp_path, capsys, algo):
    # 2 ** 1e308 overflows: a record holding the inf would be refused on reading
    cloud = tmp_path / "two.csv"
    cloud.write_text("0,0\n2,0\n")
    code, stdout, err = run(capsys, "mst", "--in", str(cloud), "--metric", "powerquasi:1e308",
                            "--algo", algo, "--out", str(tmp_path / "t.json"))
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "t.json").exists()


# ---------------------------------------------------------------- exit codes


def test_exit_code_mapping():
    assert exit_code_for(InputError("x")) == 2
    assert exit_code_for(CheckFailedError("x")) == 3
    assert exit_code_for(EstimationError("x")) == 4
    assert exit_code_for(ResourceError("x")) == 5
    assert exit_code_for(FileNotFoundError("x")) == 2
    assert exit_code_for(RuntimeError("x")) == 1


def test_unexpected_exception_is_one_error_line_and_exit_1(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_mst", broken)
    argv = ["mst", "--in", str(tmp_path / "c.csv"), "--out", str(tmp_path / "t.json")]
    code, stdout, err = run(capsys, *argv)
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "boom" in err
