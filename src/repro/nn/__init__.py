"""``repro.nn`` — a from-scratch deep-learning substrate over numpy.

Stands in for PyTorch in this reproduction (DESIGN.md §2): reverse-mode
autograd, LSTM/Linear/Dropout layers, Adam/SGD optimizers, checkpointing,
and FLOP accounting for the Pelican overhead experiments.
"""

from repro.nn import fused, profiler
from repro.nn.functional import (
    log_softmax,
    log_softmax_np,
    one_hot,
    softmax,
    softmax_cross_entropy,
    softmax_np,
    top_k_indices,
)
from repro.nn.fused import lstm_backward, lstm_forward, lstm_infer_last
from repro.nn.layers import Dropout, Linear, Sequential, TemperatureScaling
from repro.nn.losses import CrossEntropyLoss, NLLLoss
from repro.nn.lstm import LSTM, LSTMCell
from repro.nn.module import Module, Parameter
from repro.nn.optim import SGD, Adam, clip_grad_norm
from repro.nn.recurrent import GRUCell, RNNCell, RecurrentStack
from repro.nn.serialization import (
    deserialize_state,
    load_module,
    save_module,
    serialize_state,
)
from repro.nn.tensor import (
    Tensor,
    as_tensor,
    concat,
    dtype_policy,
    get_default_dtype,
    no_grad,
    ones,
    set_default_dtype,
    stack,
    zeros,
)
from repro.nn.train import (
    FitResult,
    TimeSeriesSplit,
    evaluate_accuracy,
    fit,
    grid_search,
    iterate_minibatches,
)

__all__ = [
    "Adam",
    "CrossEntropyLoss",
    "Dropout",
    "FitResult",
    "GRUCell",
    "RNNCell",
    "RecurrentStack",
    "LSTM",
    "LSTMCell",
    "Linear",
    "Module",
    "NLLLoss",
    "Parameter",
    "SGD",
    "Sequential",
    "TemperatureScaling",
    "Tensor",
    "TimeSeriesSplit",
    "as_tensor",
    "clip_grad_norm",
    "concat",
    "deserialize_state",
    "dtype_policy",
    "evaluate_accuracy",
    "fit",
    "fused",
    "get_default_dtype",
    "grid_search",
    "iterate_minibatches",
    "load_module",
    "log_softmax",
    "log_softmax_np",
    "lstm_backward",
    "lstm_forward",
    "lstm_infer_last",
    "no_grad",
    "one_hot",
    "ones",
    "profiler",
    "save_module",
    "serialize_state",
    "set_default_dtype",
    "softmax",
    "softmax_cross_entropy",
    "softmax_np",
    "stack",
    "top_k_indices",
    "zeros",
]
