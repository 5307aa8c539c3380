"""Package-wide checks: the public names, the modules each command loads,
the threads it runs on, its allocator settings, and unused imports and
definitions."""

import ast
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

import heavytail

MODULES = sorted(
    path for path in pathlib.Path(heavytail.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


def test_public_surface_is_pinned():
    # A name can join the package's exports only on purpose.
    assert sorted(heavytail.__all__) == [
        "AbelianParams", "BootstrapConfig", "CapacityError", "ConfidenceInterval",
        "ConfigError", "DomainError", "HeavytailError", "InputError",
        "InstabilityError", "ParameterError", "ParetoLikeParams", "PlotDataError",
        "PowerLawCutoffParams", "RandomSource", "StableParams", "__version__",
        "abelian_mean", "abelian_pmf_vector", "abelian_second_moment",
        "abelian_variance", "bootstrap_ecdf", "build_log_ecdf", "build_table",
        "ci_alpha", "clt_ci", "compute_tn", "ecdf_sup_distance", "heavy_transform",
        "normal_quantile", "pstable_estimate", "run_lemma_suite",
        "sample_stable", "split_pilot", "subset_sum_oracle",
    ]
    for name in heavytail.__all__:
        getattr(heavytail, name)


# Modules a command must not load: a command pays at start-up for each
# module it imports, so it imports only the ones it runs.
_UNUSED_BY = {
    "estimate": [
        "yaml", "heavytail.plotting", "heavytail.stirling", "concurrent.futures",
        "statistics", "json",
    ],
    "simulate": ["heavytail.stirling", "concurrent.futures", "statistics"],
}


def _loaded_after(argv, watched):
    """Which of the watched modules are in sys.modules after `heavytail` runs argv."""
    script = (
        "import sys\n"
        "from heavytail import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        f"loaded = [m for m in {watched!r} if m in sys.modules]\n"
        "import json\n"  # json is watched too, so it is imported after the check
        "print(json.dumps([code, loaded]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_exports_resolve_on_first_access():
    script = (
        "import json, sys\n"
        "import heavytail\n"
        "before = sorted(m for m in sys.modules if m.startswith('heavytail.'))\n"
        "from heavytail import *\n"
        "print(json.dumps([before, heavytail.normal_quantile(0.5)]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], 0.0]


def test_estimate_loads_only_what_it_runs(tmp_path):
    data = tmp_path / "x.csv"
    data.write_text("".join(f"{v}\n" for v in range(1, 21)))
    argv = ["estimate", "--input", str(data), "--p", "1.5", "--out", str(tmp_path / "out")]
    assert _loaded_after(argv, _UNUSED_BY["estimate"]) == [0, []]


def test_simulate_on_one_worker_loads_only_what_it_runs(tmp_path):
    config = tmp_path / "fig1.yaml"
    config.write_text(
        "experiment: fig1\nseed: 1\np: 1.2\nmu_mode: 'true'\nsizes: [200]\n"
        "distribution: {kind: pareto_like, a: 2.0, x_min: 3.0, transform: true}\n"
    )
    argv = ["simulate", "--config", str(config), "--workers", "1", "--out", str(tmp_path / "out")]
    assert _loaded_after(argv, _UNUSED_BY["simulate"]) == [0, []]


def test_study_without_column_csv_loads_no_float_text_kernel(tmp_path):
    # fig6 writes only intervals.csv, whose columns are text cells; write_csv
    # imports _floattext only for a float array or an int range
    config = tmp_path / "fig6.yaml"
    config.write_text(
        "experiment: fig6\nseed: 1\np: 1.7\ntotal: 150\nmu_mode: full\nlevels: [[0.02, 0.98]]\n"
        "panels: [{kind: power_law_cutoff, tau: 1.5, x_m: 500}]\nburn_in: 10\n"
        "permutations: 4\nreplications: 2\n"
    )
    argv = ["simulate", "--config", str(config), "--workers", "1", "--out", str(tmp_path / "out")]
    assert _loaded_after(argv, ["heavytail._floattext"]) == [0, []]


# Variables OpenBLAS reads for its thread count. The test process may have
# set one, and a child that inherited it would hide a CLI that sets none.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

needs_task_list = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="no /proc/self/task to count threads in"
)


def _threads_after(script, argv=(), **env):
    """[thread count, OPENBLAS_NUM_THREADS] in a fresh process after script runs."""
    child_env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    child_env.update(env)
    script += (
        "\nimport json, os\n"
        "print(json.dumps([len(os.listdir('/proc/self/task')),"
        " os.environ.get('OPENBLAS_NUM_THREADS')]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=child_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@needs_task_list
def test_cli_runs_on_one_thread():
    # NumPy's OpenBLAS would start a worker thread per CPU beyond the first
    assert _threads_after("import heavytail.cli") == [1, "1"]


@needs_task_list
@pytest.mark.parametrize("script, env, kept", [
    ("import heavytail.cli", {"OPENBLAS_NUM_THREADS": "2"}, "2"),
    ("import numpy\nimport heavytail.cli", {}, None),
], ids=["user-set", "numpy-loaded-first"])
def test_openblas_setting_is_kept(script, env, kept):
    assert _threads_after(script, **env)[1] == kept


@needs_task_list
def test_simulate_on_two_workers_ends_on_one_thread(tmp_path):
    config = tmp_path / "fig6.yaml"
    config.write_text(
        "experiment: fig6\nseed: 1\np: 1.7\ntotal: 200\nlevels: [[0.05, 0.95]]\n"
        "panels: [{kind: power_law_cutoff, tau: 1.5, x_m: 100}]\nmu_mode: full\n"
        "burn_in: 10\npermutations: 2\nreplications: 2\n"
    )
    argv = ["simulate", "--config", str(config), "--workers", "2", "--out", str(tmp_path / "out")]
    script = "import sys\nfrom heavytail import cli\nassert cli.main(sys.argv[1:]) == 0"
    assert _threads_after(script, argv) == [1, "1"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _names(node):
    """Each name node mentions under it: a variable, an attribute or an imported name."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _member_names(node):
    """_names, and the keyword arguments of the calls under node: a call
    names a field by keyword, as RunReport(...) does for report.json."""
    yield from _names(node)
    yield from (sub.arg for sub in ast.walk(node) if isinstance(sub, ast.keyword) and sub.arg)


def _members(tree):
    """(qualified name, name, node) of each method and annotated field of the
    top-level classes of tree."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                yield f"{cls.name}.{node.name}", node.name, node
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                yield f"{cls.name}.{node.target.id}", node.target.id, node


# Members that no module of the package names, each with the reason it stays.
_MEMBERS_READ_OUTSIDE = [
    # read by perfbench/spans.py to count resampled entries; ROADMAP item 6
    # removes it
    "baselines.BootstrapConfig.resample_mode",
]


def test_no_dead_definitions():
    # A top-level function or class that no module names outside its own
    # definition is kept for tests only, unless the package exports it. So
    # is a method or dataclass field of a top-level class: a result type
    # carries no member that only tests read.
    exported = {attr for _, attr in heavytail._EXPORTS.values()}
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in [*MODULES, pathlib.Path(heavytail.__file__)]
    }
    mentions = Counter(name for tree in trees.values() for name in _names(tree))
    dead = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") or node.name in exported)
        and mentions[node.name] == Counter(_names(node))[node.name]
    ]
    member_mentions = Counter(name for tree in trees.values() for name in _member_names(tree))
    dead += [
        f"{module}.{qualified}"
        for module, tree in trees.items()
        for qualified, name, node in _members(tree)
        if not name.startswith("__")
        and member_mentions[name] == Counter(_member_names(node))[name]
    ]
    # an exemption goes once its member is named or gone
    assert dead == _MEMBERS_READ_OUTSIDE


def _glibc_heap_stats():
    """Whether this is glibc with mallinfo2 (2.33 and later)."""
    import ctypes

    try:
        version = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return False
    return version.startswith("glibc") and hasattr(ctypes.CDLL(None), "mallinfo2")


# Allocates twenty 1 MiB blocks, then frees them. Above glibc's default
# mmap threshold each is mapped on its own; below the CLI's they come from
# the heap, which grows and then trims to its top pad. Prints the freed
# bytes kept at the top (mallinfo2's keepcost).
_HEAP_PROBE = """
import ctypes
class _Info(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]
libc = ctypes.CDLL(None)
libc.mallinfo2.argtypes, libc.mallinfo2.restype = (), _Info
libc.malloc.argtypes, libc.malloc.restype = (ctypes.c_size_t,), ctypes.c_void_p
libc.free.argtypes, libc.free.restype = (ctypes.c_void_p,), None
blocks = [libc.malloc(1 << 20) for _ in range(20)]
for block in reversed(blocks):
    libc.free(block)
print(libc.mallinfo2().keepcost)
"""

_ALLOCATOR_VARS = ("MALLOC_TOP_PAD_", "MALLOC_MMAP_THRESHOLD_", "GLIBC_TUNABLES")
_RUN_MAIN = (
    "import sys\nfrom heavytail import cli\n"
    "assert cli.main(['abelian', '--n-size', '10', '--alpha', '0.5', '--out', sys.argv[1]]) == 0\n"
)
_NO_GLIBC = (
    "import os\n"
    "def confstr(name):\n"
    "    raise ValueError('unrecognized configuration name')\n"
    "os.confstr = confstr\n"
)


@pytest.mark.skipif(not _glibc_heap_stats(), reason="glibc's allocator with mallinfo2 only")
@pytest.mark.parametrize("script, env, padded", [
    (_RUN_MAIN, {}, True),
    ("import heavytail.cli\n", {}, False),
    (_RUN_MAIN, {"MALLOC_TOP_PAD_": str(1 << 20)}, False),
    (_RUN_MAIN, {"MALLOC_MMAP_THRESHOLD_": str(1 << 17)}, False),
    (_RUN_MAIN, {"GLIBC_TUNABLES": f"glibc.malloc.top_pad={1 << 20}"}, False),
    (_NO_GLIBC + _RUN_MAIN, {}, False),
], ids=["main", "import-only", "user-pad", "user-threshold", "user-tunables", "no-glibc"])
def test_cli_keeps_freed_heap(tmp_path, script, env, padded):
    child_env = {k: v for k, v in os.environ.items() if k not in _ALLOCATOR_VARS}
    child_env.update(env)
    proc = subprocess.run(
        [sys.executable, "-c", script + _HEAP_PROBE, str(tmp_path)],
        env=child_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    kept = int(proc.stdout.splitlines()[-1])
    assert (kept >= 16 << 20) == padded, kept
