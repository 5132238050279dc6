"""Bucket identity of the tick kernel (DESIGN.md §7).

:func:`stack_key` decides which models' groups share one grouped kernel
call and, through :func:`~repro.pelican.dispatch.group_macs`, what each
group books.
"""

import numpy as np

from repro.data.features import FeatureSpec
from repro.models import NextLocationModel
from repro.pelican import stack_key

SPEC = FeatureSpec(num_locations=6)


def _model(seed=0, hidden=8, layers=1, surplus=False):
    model = NextLocationModel(
        input_width=SPEC.width,
        num_locations=SPEC.num_locations,
        hidden_size=hidden,
        num_layers=layers,
        dropout=0.0,
        rng=np.random.default_rng(seed),
    )
    if surplus:
        model.add_surplus_lstm(np.random.default_rng(seed + 1))
    model.eval()
    return model


class TestStackKey:
    def test_same_shape_models_share_a_key(self):
        assert stack_key(_model(1)) == stack_key(_model(2))

    def test_reference_backend_is_unstackable(self):
        model = _model(1)
        model.set_backend("reference")
        assert stack_key(model) is None

    def test_shape_differences_split_keys(self):
        base = stack_key(_model(1))
        assert stack_key(_model(1, hidden=5)) != base
        assert stack_key(_model(1, layers=2)) != base
        # A TL-FE surplus layer changes the cell stack, never mixes.
        assert stack_key(_model(1, surplus=True)) != base
