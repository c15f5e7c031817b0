"""Sanity checks on the shipped examples.

Full example runs take tens of seconds, so the suite imports each
script (``main`` is guarded), which compiles it and resolves every name
it imports, and exercises the custom-model callbacks directly on tiny
data.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def _import(path: pathlib.Path):
    """Run ``path`` as a module, without its ``__main__`` block."""
    spec = importlib.util.spec_from_file_location("example_" + path.stem, str(path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_examples_exist(self):
        names = {p.name for p in EXAMPLES}
        assert "quickstart.py" in names
        assert len(EXAMPLES) >= 3

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_compiles(self, path):
        """Compiles and imports: a name the example imports that no
        longer exists fails here."""
        assert callable(_import(path).main)

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_has_main_guard_and_docstring(self, path):
        source = path.read_text()
        assert '__name__ == "__main__"' in source
        assert source.lstrip().startswith('"""')

    def test_custom_model_callbacks(self, tiny_gaussian):
        """The Fig 12 callbacks from examples/custom_model.py give the
        correct LR gradient on real data."""
        module = _import(EXAMPLES_DIR / "custom_model.py")

        from repro.models import LogisticRegression

        w = np.random.default_rng(0).normal(size=tiny_gaussian.n_features) * 0.3
        stats = module.compute_stat(tiny_gaussian.features, w).reshape(-1, 1)
        grad = module.compute_gradient(
            tiny_gaussian.features, tiny_gaussian.labels, stats, w
        )
        reference = LogisticRegression().gradient(
            tiny_gaussian.features, tiny_gaussian.labels, w
        )
        assert np.allclose(grad.to_dense(), reference, atol=1e-10)
        assert module.reduce_stat(np.ones(3), np.ones(3)).tolist() == [2.0, 2.0, 2.0]
