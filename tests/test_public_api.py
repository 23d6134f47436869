"""API-surface hygiene: the public package exports what the README
documents, every module carries a docstring, and the layers keep to
their public interfaces."""

import importlib
import pathlib
import pkgutil
import re

import repro


def test_top_level_exports():
    for name in (
        "Simulation",
        "SimulationConfig",
        "RunResult",
        "Platform",
        "VM",
        "GeminiRuntime",
        "GeminiConfig",
        "make_workload",
        "workload_names",
        "system_spec",
        "alignment_report",
        "run_workload",
    ):
        assert hasattr(repro, name), name
    assert repro.__version__


def test_all_lists_are_accurate():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def _iter_modules():
    package_dir = pathlib.Path(repro.__file__).parent
    for info in pkgutil.walk_packages([str(package_dir)], prefix="repro."):
        yield info.name


def test_every_module_imports_and_has_docstring():
    for module_name in _iter_modules():
        if module_name.endswith("__main__"):
            continue
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"


def test_every_subpackage_reexports_consistently():
    for package_name in (
        "repro.mem",
        "repro.paging",
        "repro.tlb",
        "repro.os",
        "repro.hypervisor",
        "repro.policies",
        "repro.core",
        "repro.workloads",
        "repro.metrics",
        "repro.sim",
        "repro.pressure",
        "repro.experiments",
    ):
        package = importlib.import_module(package_name)
        for name in getattr(package, "__all__", []):
            assert hasattr(package, name), f"{package_name}.{name}"


def test_paper_systems_have_workloads_to_run():
    # The advertised quickstart path works end to end for every system.
    from repro import PAPER_SYSTEMS, SYSTEMS, TLB_SENSITIVE_SUITE

    assert set(PAPER_SYSTEMS) <= set(SYSTEMS)
    assert len(TLB_SENSITIVE_SUITE) == 16


#: The reverse map and the shared-frame references belong to
#: ``MemoryLayer``; every other module goes through its methods.
MM_PRIVATE = re.compile(
    r"\b(_rmap|_rmap_huge|_frame_refs|_drop_rmap|_drop_rmap_region"
    r"|_set_rmap|_set_rmap_run)\b"
)


def test_only_the_memory_layer_names_its_reverse_map():
    package_dir = pathlib.Path(repro.__file__).parent
    owner = package_dir / "os" / "mm.py"
    offenders = [
        f"{path.relative_to(package_dir)}:{lineno}: {line.strip()}"
        for path in sorted(package_dir.rglob("*.py"))
        if path != owner
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if MM_PRIVATE.search(line)
    ]
    assert offenders == []
