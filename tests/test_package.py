"""Package-wide checks: the public names and unused imports."""

import ast
import pathlib

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
