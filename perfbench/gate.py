"""Correctness gate for the benchmark's commands.

Each check reads a command's files and captured stdout and tests invariants
that any correct implementation shares (it never compares file digests):

* packing ``(eps, count)`` series in the CSV and the record are equal, and
  the estimate is the least-squares slope of the points the record used;
* a tree has n - 1 edges, spans and is acyclic, and every stored length
  equals the l2 distance recomputed here bit for bit;
* tree totals and energies match a recomputation within 1e-12 relative;
* ``verify`` prints one PASS line per check and "all K checks passed".

Each check also returns the values that reference entries pin. Against a
reference, packing series and box estimates must agree exactly, tree totals
and energies within 1e-12 relative and MST estimates within 1e-9. Tree edge
sets are never compared, so a change of tie-break among equal-length edges
passes while a wrong tree does not.

A check reads files through a ``read(path) -> str`` callable, so the
negative test can feed it corrupted outputs.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

REL_TREE = 1e-12
REL_MST_ESTIMATE = 1e-9

# per reference field: relative tolerance for its floats (absent = exact)
TOLERANCE = {"total": REL_TREE, "energy": REL_TREE, "energies": REL_TREE,
             "rows": REL_TREE, "mst_value": REL_MST_ESTIMATE}


def flag(argv, name):
    return argv[argv.index(name) + 1]


def _rel(a, b):
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def _csv_rows(text, header):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    return [line.split(",") for line in lines[1:]]


def _float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


class Gate:
    """Runs the checks and caches parsed input clouds between iterations."""

    def __init__(self, reference: dict, seed: int):
        self.reference = reference
        self.seed = seed
        self._clouds = {}

    # ---------------------------------------------------------------- judging

    def _check(self, command, argv, stdout, read):
        return getattr(self, "check_" + command.check.replace("-", "_"))(argv, stdout, read)

    def judge(self, command, argv, stdout, read) -> list:
        """Problems found in one command's outputs (empty when correct)."""
        try:
            problems, observed = self._check(command, argv, stdout, read)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"{command.check}: unreadable output: {type(exc).__name__}: {exc}"]
        if command.ref is None:
            return problems
        key = command.ref.format(seed=self.seed)
        ref = self.reference.get(key)
        if ref is None:
            if "{seed}" not in command.ref or self.seed == self.reference["default_seed"]:
                problems.append(f"missing reference entry {key!r}")
            return problems
        problems += [f"{key}: {p}" for p in compare(observed, ref)]
        return problems

    def observe(self, command, argv, stdout, read) -> dict:
        """The values a reference entry for this command pins."""
        problems, observed = self._check(command, argv, stdout, read)
        if problems:
            raise ValueError(f"refusing to record failing outputs: {problems}")
        return observed

    def points(self, path, read):
        text = read(path)
        cached = self._clouds.get(path)
        if cached is None or cached[0] != text:
            rows = [[float(v) for v in line.split(",")] for line in text.splitlines() if line]
            cached = (text, np.array(rows, dtype=np.float64))
            self._clouds[path] = cached
        return cached[1]

    # ---------------------------------------------------------------- checks

    def check_generate(self, argv, stdout, read):
        match = re.match(r"wrote (\d+) points in dimension (\d+)", stdout)
        if match is None:
            return [f"unexpected generate output {stdout!r}"], {}
        n, d = int(match.group(1)), int(match.group(2))
        pts = self.points(flag(argv, "--out"), read)
        problems = []
        if pts.shape != (n, d):
            problems.append(f"cloud file holds {pts.shape}, stdout says ({n}, {d})")
        return problems, {"n": n, "d": d}

    def check_box(self, argv, stdout, read):
        problems = []
        record = json.loads(read(flag(argv, "--out")))
        value = _float(stdout.splitlines()[0])
        series = [[_float(eps), int(count)] for eps, count in _csv_rows(read(flag(argv, "--csv")), "eps,count")]
        if record["method"] != "box":
            problems.append(f"record method {record['method']!r}")
        if record["value"] != value:
            problems.append(f"stdout estimate {value!r} != record {record['value']!r}")
        if record["details"]["series"] != series:
            problems.append("CSV series differs from the record series")
        used = record["details"]["used"]
        if any(point not in series for point in used):
            problems.append("record uses a scale that is not in the series")
        if len(used) < 4:
            problems.append(f"only {len(used)} scales used")
        else:
            x = np.log([1.0 / eps for eps, _ in used])
            y = np.log([float(count) for _, count in used])
            slope = float(np.polyfit(x, y, 1)[0])
            if _rel(slope, value) > 1e-9:
                problems.append(f"estimate {value!r} is not the fit slope {slope!r}")
        return problems, {"value": value, "series": series}

    def check_tree(self, argv, stdout, read):
        problems = []
        if "--metric" in argv and flag(argv, "--metric") != "l2":
            raise ValueError("the tree check recomputes l2 lengths only")
        pts = self.points(flag(argv, "--in"), read)
        record = json.loads(read(flag(argv, "--out")))
        n = pts.shape[0]
        edges = record["edges"]
        if record["n"] != n:
            problems.append(f"record n {record['n']} != cloud n {n}")
        if len(edges) != n - 1:
            problems.append(f"{len(edges)} edges for {n} points")
        u = np.array([e[0] for e in edges], dtype=np.int64)
        v = np.array([e[1] for e in edges], dtype=np.int64)
        lengths = np.array([float(e[2]) for e in edges], dtype=np.float64)
        if edges and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
            return problems + ["edge endpoint out of range"], {}
        if not _is_forest(n, u.tolist(), v.tolist()):
            problems.append("edges contain a cycle")
        # same accumulation order as a row-wise l2 kernel: sum_k (dx_k)^2, then sqrt
        acc = np.zeros(len(edges))
        for k in range(pts.shape[1]):
            dk = pts[v, k] - pts[u, k]
            acc += dk * dk
        bad = int(np.count_nonzero(np.sqrt(acc) != lengths))
        if bad:
            problems.append(f"{bad} stored lengths differ from the recomputed distance")
        rank = record.get("insertion_rank")
        if rank is not None and sorted(rank) != list(range(n)):
            problems.append("insertion ranks are not a permutation")
        total = float(np.sort(lengths).sum())
        match = re.search(r"total length (\S+)", stdout)
        if match is None or _rel(_float(match.group(1)), total) > REL_TREE:
            problems.append(f"stdout total does not match the edges' total {total!r}")
        return problems, {"n": n, "total": total}

    def check_energy(self, argv, stdout, read):
        problems = []
        alpha = float(flag(argv, "--alpha"))
        tree = json.loads(read(flag(argv, "--tree")))
        record = json.loads(read(flag(argv, "--out")))
        value = _float(stdout.strip())
        lengths = np.sort(np.array([float(e[2]) for e in tree["edges"]]))
        expected = float(np.sum(lengths[lengths > 0.0] ** alpha))
        if record["value"] != value:
            problems.append(f"stdout energy {value!r} != record {record['value']!r}")
        if _rel(value, expected) > REL_TREE:
            problems.append(f"energy {value!r} != recomputed {expected!r}")
        banded = sum(c for _, c in record["bands"]) + record["overflow"] + record["zero_edges"]
        if banded != len(tree["edges"]):
            problems.append(f"bands hold {banded} edges of {len(tree['edges'])}")
        return problems, {"energy": value}

    def check_verify(self, argv, stdout, read):
        lines = stdout.splitlines()
        match = re.fullmatch(r"all (\d+) checks passed", lines[-1] if lines else "")
        if match is None:
            return ["verify did not report all checks passed"], {}
        k = int(match.group(1))
        passed = sum(line.startswith("PASS ") for line in lines[:-1])
        problems = []
        if passed != k or len(lines) != k + 1:
            problems.append(f"{passed} PASS lines among {len(lines) - 1} for {k} checks")
        return problems, {"checks": k}

    def check_dim_mst(self, argv, stdout, read):
        problems = []
        record = json.loads(read(flag(argv, "--out")))
        value = _float(stdout.splitlines()[0])
        sizes = [int(s) for s in flag(argv, "--sizes").split(",")]
        alphas = [float(a) for a in flag(argv, "--alphas").split(",")]
        rows = [[int(n), _float(a), _float(e)] for n, a, e in _csv_rows(read(flag(argv, "--csv")), "n,alpha,energy")]
        if record["method"] != "mst" or record["value"] != value:
            problems.append(f"stdout estimate {value!r} != record {record['value']!r}")
        if not value > 0.0:
            problems.append(f"non-positive estimate {value!r}")
        if sorted((n, a) for n, a, _ in rows) != sorted((n, a) for n in sizes for a in alphas):
            problems.append("energy table does not cover sizes x alphas once each")
        if any(e <= 0.0 for _, _, e in rows):
            problems.append("non-positive energy in the table")
        return problems, {"mst_value": value, "energies": rows}

    def check_scale(self, argv, stdout, read):
        problems = []
        sizes = [int(s) for s in flag(argv, "--sizes").split(",")]
        alphas = [float(a) for a in flag(argv, "--alphas").split(",")]
        seeds = [int(s) for s in flag(argv, "--seeds").split(",")]
        shape = flag(argv, "--shape")
        rows = []
        for name, n, a, s, e, m in _csv_rows(read(flag(argv, "--out")), "shape,n,alpha,seed,energy,max_edge"):
            if name != shape:
                problems.append(f"row for shape {name!r}")
            rows.append([int(n), _float(a), int(s), _float(e), _float(m)])
        expected = sorted((n, a, s) for n in sizes for s in seeds for a in alphas)
        if sorted((n, a, s) for n, a, s, _, _ in rows) != expected:
            problems.append("table does not cover sizes x alphas x seeds once each")
        for n, a, s, e, m in rows:
            # the longest edge alone contributes m^a, and each of n - 1 edges at most that
            if not (m > 0.0 and m**a * (1 - REL_TREE) <= e <= (n - 1) * m**a * (1 + REL_TREE)):
                problems.append(f"energy {e!r} outside [max^a, (n-1) max^a] at n={n} alpha={a} seed={s}")
        if stdout.splitlines()[0] != f"wrote {len(rows)} measurements to {flag(argv, '--out')}":
            problems.append("stdout row count differs from the table")
        svg = read(flag(argv, "--svg"))
        if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
            problems.append("plot is not an SVG document")
        return problems, {"rows": rows}


def _is_forest(n, us, vs):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(us, vs):
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[rb] = ra
    return True


def compare(observed, ref, key=None) -> list:
    """Differences between observed values and a reference entry."""
    if isinstance(ref, dict):
        if not isinstance(observed, dict) or set(observed) != set(ref):
            return [f"fields {sorted(observed) if isinstance(observed, dict) else observed} != {sorted(ref)}"]
        return [p for k in ref for p in compare(observed[k], ref[k], k)]
    if isinstance(ref, list):
        if not isinstance(observed, list) or len(observed) != len(ref):
            return [f"{key}: length differs from the reference"]
        return [p for o, r in zip(observed, ref) for p in compare(o, r, key)][:3]
    if isinstance(ref, float) and isinstance(observed, float):
        if _rel(observed, ref) > TOLERANCE.get(key, 0.0):
            return [f"{key}: {observed!r} != reference {ref!r}"]
        return []
    if observed != ref or type(observed) is not type(ref):
        return [f"{key}: {observed!r} != reference {ref!r}"]
    return []


# ------------------------------------------------------------- negative test


def _replace(read, path, text):
    return lambda p: text if p == path else read(p)


def _count_off_by_one(argv, stdout, read):
    path = flag(argv, "--csv")
    lines = read(path).splitlines()
    eps, count = lines[1].split(",")
    lines[1] = f"{eps},{int(count) + 1}"
    return stdout, _replace(read, path, "\n".join(lines) + "\n")


def _estimate_last_digit(argv, stdout, read):
    lines = stdout.splitlines()
    lines[0] = format(math.nextafter(float(lines[0]), math.inf), ".17g")
    return "\n".join(lines) + "\n", read


def _edit_edges(argv, read, edit):
    path = flag(argv, "--out")
    record = json.loads(read(path))
    edit(record["edges"])
    return _replace(read, path, json.dumps(record))


def _length_one_ulp(argv, stdout, read):
    def edit(edges):
        u, v, length = edges[len(edges) // 2]
        edges[len(edges) // 2] = [u, v, math.nextafter(length, math.inf)]

    return stdout, _edit_edges(argv, read, edit)


def _repeated_edge(argv, stdout, read):
    def edit(edges):
        edges[-1] = list(edges[0])

    return stdout, _edit_edges(argv, read, edit)


def _check_count_off_by_one(argv, stdout, read):
    k = int(re.search(r"all (\d+) checks", stdout).group(1))
    return stdout.replace(f"all {k} checks", f"all {k - 1} checks"), read


def _energy_row_dropped(argv, stdout, read):
    path = flag(argv, "--csv")
    lines = read(path).splitlines()
    return stdout, _replace(read, path, "\n".join(lines[:-1]) + "\n")


CORRUPTIONS = {
    "box": (("packing count off by one", _count_off_by_one),
            ("estimate changed in its last digit", _estimate_last_digit)),
    "tree": (("one length changed by one ulp", _length_one_ulp),
             ("a repeated edge", _repeated_edge)),
    "verify": (("check count off by one", _check_count_off_by_one),),
    "dim-mst": (("energy row dropped", _energy_row_dropped),),
}


def negative_test(gate, cases) -> dict:
    """Feed corrupted copies of real outputs to the gate.

    ``cases`` holds (command, argv, stdout, read) of commands whose outputs
    passed. Every corrupted copy must be judged a failed operation.
    """
    attempted = failed = 0
    missed = []
    for command, argv, stdout, read in cases:
        for label, corrupt in CORRUPTIONS.get(command.check, ()):
            bad_stdout, bad_read = corrupt(argv, stdout, read)
            attempted += 1
            if gate.judge(command, argv, bad_stdout, bad_read):
                failed += 1
            else:
                missed.append(f"{argv[0]} {label}")
    return {"attempted": attempted, "failed": failed, "missed": missed}
