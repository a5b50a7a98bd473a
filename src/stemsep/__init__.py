"""stemsep: music source separation with a recurrent-skip encoder/decoder.

The package bundles a small reverse-mode autodiff engine, the 1-D
convolution / GRU layer vocabulary built on it, STFT and Wiener-mask
signal processing, separator/enhancer/residual model assembly, training
with online remix augmentation, and a CLI for training, separating songs
into stems, and SDR evaluation.
"""

from .audio_io import AudioClip, Track, read_wav, write_wav
from .checkpoint import (
    Checkpoint,
    bundle_from_checkpoint,
    load_checkpoint,
    make_checkpoint,
    parameter_fingerprint,
    save_checkpoint,
)
from .dsp import ComplexSpectrogram, istft, log1p_magnitude, sdr, stft, wiener_masks
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    DivergenceError,
    ShapeError,
    StemsepError,
)
from .evaluate import EvalReport, dump_spectrogram, evaluate, separate_song
from .models import (
    ModelBundle,
    ModelConfig,
    ResidualConfig,
    build_enhancer,
    build_separator,
    enhancer_config,
    residual_forward,
    separator_config,
)
from .optim import Adam, build_optimizer
from .tensor import (
    Tensor,
    backward,
    get_default_dtype,
    gradient_check,
    no_grad,
    set_default_dtype,
    using_dtype,
)
from .training import (
    SourcePool,
    TrainConfig,
    mse_loss,
    segment_songs,
    train,
)

__version__ = "0.1.0"
