"""The surface of ``repro`` that the frozen end-to-end driver depends on.

``benchmarks/e2e/`` may not be edited (``BENCHMARK.json`` lists it as a
frozen path), so a refactor that renames or re-signatures something it
uses would only be noticed when the driver next runs.  This test imports
every name the driver imports from ``repro`` — read from the driver's own
source, so it cannot fall behind — and checks the call signatures it
relies on.  The same surface is tabulated in ``docs/benchmarking.md``
("What the frozen driver pins").
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

E2E_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"
DRIVER_FILES = sorted(p for p in E2E_DIR.glob("*.py")
                      if not p.name.startswith("test_"))


def _repro_imports(path: Path) -> list:
    """(module, name) for every ``from repro... import name`` in ``path``."""
    tree = ast.parse(path.read_text())
    return [(node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").split(".")[0] == "repro"
            for alias in node.names]


IMPORTS = sorted({(path.name, module, name) for path in DRIVER_FILES
                  for module, name in _repro_imports(path)})


def test_driver_files_found():
    assert {p.name for p in DRIVER_FILES} >= {
        "run.py", "e2e_batch.py", "e2e_live.py", "e2e_common.py",
        "e2e_compare.py"}
    assert len(IMPORTS) >= 25


@pytest.mark.parametrize("filename,module,name", IMPORTS)
def test_every_name_the_driver_imports_exists(filename, module, name):
    assert hasattr(importlib.import_module(module), name), (
        f"benchmarks/e2e/{filename} imports {name} from {module}")


def _accepts(func, *args, **kwargs) -> bool:
    try:
        inspect.signature(func).bind(*args, **kwargs)
    except TypeError:
        return False
    return True


def test_signatures_the_driver_calls():
    from repro.backend.parallel import get_pool, shutdown_pool
    from repro.engine import MultiSessionEngine
    from repro.engine.session import RenderSession
    from repro.nerf.renderer import NeRFRenderer
    from repro.workloads import WorkloadSpec, build_mixed_sessions

    for method in ("build_renderer", "build_sparw"):
        assert _accepts(getattr(WorkloadSpec, method), "self", "config")
    # _TimedRenderer rebuilds a renderer around another one's parts.
    assert _accepts(NeRFRenderer, "field", "sampler", background=None,
                    chunk_size=1, opacity_threshold=0.5, backend=None)
    for attribute in ("render_ray_batch", "render_frame", "render_rays"):
        assert callable(getattr(NeRFRenderer, attribute))
    assert callable(RenderSession.deliver)
    assert _accepts(MultiSessionEngine, ["sessions"], reference_cache=None,
                    backend="parallel", engine_workers=2)
    assert _accepts(build_mixed_sessions, "mix", "config", frames=6, seed=1,
                    build=None)
    assert _accepts(get_pool, 2)
    assert _accepts(shutdown_pool)


def test_perf_package_is_what_the_driver_imports():
    # The end-to-end runs are the one benchmark and stage timing is
    # repro.obs.section: repro.perf keeps the allocator settings and the
    # fingerprint, nothing else.
    import pkgutil

    import repro.perf
    modules = {info.name for info in pkgutil.iter_modules(repro.perf.__path__)}
    assert modules == {"allocator", "envinfo"}
    driver_modules = {module for _, module, _ in IMPORTS
                      if module.startswith("repro.perf")}
    assert driver_modules <= {f"repro.perf.{name}" for name in modules}


def test_renderer_keeps_the_attributes_the_driver_reads(fast_renderer):
    for attribute in ("field", "sampler", "background", "chunk_size",
                      "opacity_threshold", "backend"):
        assert hasattr(fast_renderer, attribute)
