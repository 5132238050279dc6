"""Every program name the front-door benchmark wraps still resolves.

``perfbench/tracing.py`` wraps program callables by module path (its
``SPANS`` and ``TickProbe.SITES``), so a refactor that renames or drops
one breaks the benchmark.  Resolving each site here makes that a
tier-1 failure instead of one only the ``perfbench-smoke`` CI job sees.
"""

import importlib.util
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO_ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _assert_patchable(module, attr):
    owner, name = tracing._resolve(module, attr)
    # Mirror Patches.replace: a class attribute must be the class's own.
    original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    assert callable(original), f"{module}.{attr} is not callable"


@pytest.mark.parametrize(
    "site", tracing.SPANS, ids=[f"{s.module}.{s.attr}" for s in tracing.SPANS]
)
def test_span_site_resolves(site):
    _assert_patchable(site.module, site.attr)


@pytest.mark.parametrize(
    "module,attr",
    tracing.TickProbe.SITES,
    ids=[f"{m}.{a}" for m, a in tracing.TickProbe.SITES],
)
def test_tick_probe_site_resolves(module, attr):
    _assert_patchable(module, attr)
