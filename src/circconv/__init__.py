"""Block-circulant convolutional layers with FFT fast paths.

Kernels are partitioned along the channel pair into N x N circulant blocks
and stored as a base tensor holding one fiber per block, cutting parameters
by a factor of N. Forward and backward passes run through length-N FFTs
along the channel fibers; dense kernels convert via the Frobenius-nearest
circulant projection, and a small training harness demonstrates both
training from scratch and convert-then-retrain.
"""

from .analysis import (
    CostReport,
    LayerSpec,
    PRESETS,
    RESNET32_BLOCK_SCHEMES,
    alexnet_classic,
    alexnet_v2,
    apply_scheme,
    bias_count,
    evaluate_scheme,
    flop_count,
    param_count,
    resnet32,
)
from .circulant import (
    CirculantBaseTensor,
    CompressionScheme,
    PartitionConfig,
    ProjectionReport,
    circulant_from_fiber,
    expand,
    permutation_power,
    project_matrix,
    project_tensor,
)
from .convops import (
    ConvGeometry,
    circ_backward,
    circ_backward_input,
    circ_backward_weight,
    circ_forward,
    conv_block,
    conv_naive,
    conv_naive_backward_input,
    conv_naive_backward_weight,
    kernel_spectra,
)
from .errors import (
    CircConvError,
    ConfigError,
    ContractError,
    DivergenceError,
    ModelFormatError,
    ShapeError,
)
from .model_io import (
    load_model,
    load_scheme_file,
    load_tensor,
    save_model,
    save_tensor,
)
from .nn import (
    CircConvLayer,
    DenseConvLayer,
    FullyConnected,
    GlobalAveragePool,
    Network,
    ReLU,
    SgdConfig,
    ToyTaskSpec,
    backward_pass,
    convert_and_retrain,
    convert_network,
    evaluate,
    forward_pass,
    make_circ_toy_net,
    make_dense_toy_net,
    make_toy_task,
    sgd_step,
    softmax,
    softmax_cross_entropy,
    train,
)

__version__ = "0.1.0"
