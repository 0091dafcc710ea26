"""The benchmark tracer's bindings exist in the package.

``perfbench/tracer.py`` wraps package functions and ``ModelParams``
methods by name; a refactor that drops or renames one should fail here
rather than in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from mrnn.model import ModelConfig, ModelParams

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(tracer):
    missing = [f"mrnn.{mod}.{attr}" for mod, attr in tracer.FUNCTIONS
               if not callable(getattr(importlib.import_module(f"mrnn.{mod}"), attr, None))]
    assert not missing


def test_every_traced_method_is_on_model_params(tracer):
    assert [m for m in tracer.METHODS if m not in ModelParams.__dict__] == []


def test_every_layer_weight_is_a_parameter(tracer):
    names = set(ModelConfig(vocab_size=5, d_i=2).param_shapes())
    assert set(tracer.WEIGHT_LAYERS) <= names
