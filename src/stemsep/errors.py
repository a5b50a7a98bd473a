"""Exception types shared across the package, plus the CLI exit-code map."""


class StemsepError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(StemsepError, ValueError):
    """Tensor or array shapes are incompatible with an operation."""


class ConfigError(StemsepError, ValueError):
    """Invalid model/training configuration or CLI arguments."""


class DataError(StemsepError, ValueError):
    """Problems with audio files, dataset layout, or sample pools."""


class DivergenceError(StemsepError, RuntimeError):
    """Training produced a non-finite loss or gradient.

    Carries a diagnostic snapshot: the step index and the recent loss
    history leading up to the failure, plus, once a validation has run,
    the checkpoint of the best state seen so far.
    """

    def __init__(self, message, step=None, loss_history=None, checkpoint=None):
        super().__init__(message)
        self.step = step
        self.loss_history = list(loss_history or [])
        self.checkpoint = checkpoint


class CheckpointError(StemsepError):
    """Base class for checkpoint serialization problems."""


class CorruptCheckpointError(CheckpointError):
    """Checkpoint bytes are malformed; ``offset`` locates the problem."""

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class CheckpointVersionError(CheckpointError):
    """Checkpoint was written by a newer, unsupported format version."""


class CheckpointMismatchError(CheckpointError):
    """Checkpoint contents do not match what the caller asked to run."""


# CLI exit codes (0 is success).
EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4
