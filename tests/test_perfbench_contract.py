"""The repo benchmark's hooks into the program still resolve.

``perfbench/layers.py`` wraps each of its ``TARGETS`` through
``owner.__dict__[attr]`` when a traced (``--trace 1``) sample starts,
and ``perfbench/sample.py`` reads ``cache_info()`` from three kernel
memos. The CI perfbench leg only runs untraced samples, so a deleted
or renamed target would otherwise surface only as a crash of the next
traced run.
"""

import importlib
import importlib.util
import pathlib

import pytest

from repro.util import kernels

ROOT = pathlib.Path(__file__).resolve().parent.parent
LAYERS_PATH = ROOT / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load_layers()


@pytest.mark.parametrize(
    "module_name, qualname",
    [(module_name, qualname) for _, module_name, qualname in LAYERS.TARGETS],
    ids=[qualname for _, _, qualname in LAYERS.TARGETS],
)
def test_every_wrap_target_is_defined_on_its_owner(module_name, qualname):
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    assert attr in owner.__dict__, f"{module_name}.{qualname} is not defined there"
    assert callable(owner.__dict__[attr])


def test_required_buckets_are_wrapped():
    for workload, buckets in LAYERS.REQUIRED.items():
        assert set(buckets) <= set(LAYERS.BUCKETS), workload


@pytest.mark.parametrize("name", ["line_words", "trivial_mask", "line_match_mask"])
def test_kernel_memos_expose_cache_info(name):
    memo = getattr(kernels, name)
    assert memo.cache_info().maxsize is not None
