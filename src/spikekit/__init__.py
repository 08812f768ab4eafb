"""Small spiking-network training engine with hand-rolled backprop through time.

Five neuron models share one leaky integrate-and-fire forward family; they
differ in how gradients reach the weights. Everything runs on dense numpy
arrays, deterministically for a given seed: float64 for real values except
the products of hard-mode (training and evaluation) GEMMs, which are float32
(``numerics.HARD_DTYPE``), and one byte per binary spike.
"""

from .bptt import (
    BpttTape,
    GradcheckReport,
    GradientSet,
    backward,
    forward_record,
    gradcheck,
)
from .data import (
    Dataset,
    bin_events,
    gen_poisson_patterns,
    load_events_csv,
)
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    EmptyInputError,
    EmptySampleError,
    NumericError,
    SpikeKitError,
    StateError,
    TrainingDiverged,
)
from .network import (
    Layer,
    Network,
    init_network,
    load_checkpoint,
    merge_beta,
    readout_and_loss,
    save_checkpoint,
    softmax,
)
from .neurons import (
    MODELS,
    NeuronParams,
    NeuronState,
    step,
)
from .training import (
    Adam,
    EvalResult,
    RunMetrics,
    TrainConfig,
    evaluate,
    train,
    weight_shift_report,
)

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "BpttTape",
    "ConfigError",
    "DataError",
    "Dataset",
    "DimensionError",
    "EmptyInputError",
    "EmptySampleError",
    "EvalResult",
    "GradcheckReport",
    "GradientSet",
    "Layer",
    "MODELS",
    "Network",
    "NeuronParams",
    "NeuronState",
    "NumericError",
    "RunMetrics",
    "SpikeKitError",
    "StateError",
    "TrainConfig",
    "TrainingDiverged",
    "backward",
    "bin_events",
    "evaluate",
    "forward_record",
    "gen_poisson_patterns",
    "gradcheck",
    "init_network",
    "load_checkpoint",
    "load_events_csv",
    "merge_beta",
    "readout_and_loss",
    "save_checkpoint",
    "softmax",
    "step",
    "train",
    "weight_shift_report",
]
