"""Package-wide checks: the public names, the modules each command loads,
and unused imports."""

import ast
import json
import pathlib
import subprocess
import sys

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
        "ci_alpha", "ci_mean", "clt_ci", "compute_tn", "ecdf_sup_distance",
        "heavy_transform", "kernel_backend", "normal_quantile", "pstable_estimate",
        "run_lemma_suite", "sample_stable", "split_pilot", "subset_sum_oracle",
    ]
    for name in heavytail.__all__:
        getattr(heavytail, name)


# Modules a command must not load: a command pays at start-up for each
# module it imports, so it imports only the ones it runs.
_UNUSED_BY = {
    "estimate": ["yaml", "heavytail.plotting", "heavytail.stirling", "concurrent.futures"],
    "simulate": ["heavytail.stirling", "concurrent.futures"],
}


def _loaded_after(argv, watched):
    """Which of the watched modules are in sys.modules after `heavytail` runs argv."""
    script = (
        "import json, sys\n"
        "from heavytail import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        f"print(json.dumps([code, [m for m in {watched!r} if m in sys.modules]]))\n"
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
        "print(json.dumps([before, heavytail.kernel_backend()]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], "pure"]


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
