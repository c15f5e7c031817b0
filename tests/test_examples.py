"""Sanity checks on the shipped examples.

Full example runs take tens of seconds, so the suite compiles each
script and exercises the custom-model callbacks directly on tiny data.
"""

import pathlib
import py_compile

import numpy as np
import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


class TestExamples:
    def test_examples_exist(self):
        names = {p.name for p in EXAMPLES}
        assert "quickstart.py" in names
        assert len(EXAMPLES) >= 3

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_compiles(self, path):
        py_compile.compile(str(path), doraise=True)

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_has_main_guard_and_docstring(self, path):
        source = path.read_text()
        assert '__name__ == "__main__"' in source
        assert source.lstrip().startswith('"""')

    def test_custom_model_callbacks(self, tiny_gaussian):
        """The Fig 12 callbacks from examples/custom_model.py give the
        correct LR gradient on real data."""
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "custom_model_example",
            str(pathlib.Path(__file__).parent.parent / "examples" / "custom_model.py"),
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)

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
