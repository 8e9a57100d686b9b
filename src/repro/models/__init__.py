"""Model zoo: CV, NLP and ASR workloads evaluated by the paper."""

from .scaling import square_cube_family, synthetic_transformer
from .specs import Domain, ModelSpec
from .zoo import ASR_KEYS, CV_KEYS, MODELS, NLP_KEYS, get_model

__all__ = [
    "ASR_KEYS",
    "square_cube_family",
    "synthetic_transformer",
    "CV_KEYS",
    "Domain",
    "MODELS",
    "ModelSpec",
    "NLP_KEYS",
    "get_model",
]
