"""Outside-in tracing: every layer is seen, self times are span time minus child time.

Run with `python3 -m pytest perfbench/tests` from the repository root.
"""

import os
import shutil
import subprocess
import sys

import run
import spans

SMALL = [
    ["conjecture-table", "--r-max=3", "--m=31"],
    ["knots", "--r=2", "--k=1..3", "--m=63"],
    ["eigenfunctions", "--r=2", "--k=1..2", "--m=63", "--format=json"],
    ["convergence", "--r=2", "--h-list=2^-3,2^-4", "--h-ref=2^-6"],
]


def test_small_traced_run_sees_every_layer():
    report, _ = run._run_worker(SMALL, True, False, run._worker_env(False))
    assert [call["rc"] for call in report["calls"]] == [0, 0, 0, 0]
    layers = report["layers"]
    assert set(layers) == set(spans.LAYER_UNITS)
    for name in ("kernel.columns", "nystrom.assemble_calls", "nystrom.entries", "nystrom.matrix_mb",
                 "eigensolver.values_calls", "eigensolver.values_count", "eigensolver.pairs_calls",
                 "nwidths.rows", "convergence.solves", "knots.zeros", "cli.bytes_out",
                 "kernel.column_s", "nystrom.assemble_s", "eigensolver.values_s",
                 "eigensolver.pairs_s", "nwidths.self_s", "convergence.self_s",
                 "knots.extract_s", "cli.self_s", "cli.emit_s"):
        assert layers[name] > 0, name
    assert layers["eigensolver.errors"] == 0
    assert layers["knots.ok_ratio"] == 1.0
    # two meshes plus the reference mesh
    assert layers["convergence.solves"] == 3
    assert layers["nwidths.rows"] == 3 * 6
    assert 0.5 < layers["trace.coverage"] <= 1.0 + 1e-9
    # assemble is imported by name into cli, nwidths and convergence
    assert report["rebound"]["nwidth.nystrom.assemble"] >= 4
    assert report["rebound"]["nwidth.kernel.kernel_column"] >= 2


def test_self_time_subtracts_the_union_of_children():
    S = spans.Span
    tree = [S(1, None, "root", 0.0, 10.0), S(2, 1, "a", 1.0, 3.0), S(3, 1, "a", 2.0, 5.0),
            S(4, 1, "b", 7.0, 8.0), S(5, 4, "c", 7.5, 9.0)]
    own = spans.self_times(tree)
    assert own == {1: 5.0, 2: 2.0, 3: 3.0, 4: 0.5, 5: 1.5}


def test_benchmark_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "table", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
