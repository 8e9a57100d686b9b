"""The model zoo: every model the paper evaluates (Sections 3 and 11).

CV models are the extended ResNet family trained on ImageNet-1K
classification; NLP models are the RoBERTa family trained on masked
language modeling over the March-2022 Wikipedia dump; ASR models are
Whisper variants trained on CommonVoice log-Mel spectrograms.

Parameter counts are the paper's exact figures. Local penalties
interpolate the measured Hivemind gradient-accumulation penalty
(Figure 2: 48 % to 78 % of baseline, worse for larger models within a
family). FLOPs are textbook estimates used only as calibration
fallback.
"""

from __future__ import annotations

from .specs import Domain, ModelSpec

__all__ = ["MODELS", "get_model", "CV_KEYS", "NLP_KEYS", "ASR_KEYS"]

_GFLOP = 1e9

_ALL_SPECS = [
    # --- CV: ResNet family on ImageNet-1K (Section 3) -------------------
    ModelSpec(
        key="rn18", name="ResNet18", domain=Domain.CV, parameters=11_700_000,
        dataset="imagenet1k", layer_mix=("convolution",), local_penalty=0.75,
        train_flops_per_sample=3 * 1.8 * _GFLOP,
    ),
    ModelSpec(
        key="rn50", name="ResNet50", domain=Domain.CV, parameters=25_600_000,
        dataset="imagenet1k", layer_mix=("convolution",), local_penalty=0.76,
        train_flops_per_sample=3 * 4.1 * _GFLOP,
    ),
    ModelSpec(
        key="rn152", name="ResNet152", domain=Domain.CV, parameters=60_200_000,
        dataset="imagenet1k", layer_mix=("convolution",), local_penalty=0.78,
        train_flops_per_sample=3 * 11.6 * _GFLOP,
    ),
    ModelSpec(
        key="wrn101", name="WideResNet101_2", domain=Domain.CV,
        parameters=126_900_000, dataset="imagenet1k",
        layer_mix=("convolution",), local_penalty=0.70,
        train_flops_per_sample=3 * 22.8 * _GFLOP,
    ),
    ModelSpec(
        key="conv", name="ConvNextLarge", domain=Domain.CV,
        parameters=197_800_000, dataset="imagenet1k",
        layer_mix=("convolution", "feedforward"), local_penalty=0.48,
        train_flops_per_sample=3 * 34.4 * _GFLOP,
    ),
    # --- NLP: RoBERTa family on Wikipedia MLM (Section 3) ---------------
    ModelSpec(
        key="rbase", name="RoBERTaBase", domain=Domain.NLP,
        parameters=124_700_000, dataset="wikipedia",
        layer_mix=("transformer", "embedding"), local_penalty=0.60,
        train_flops_per_sample=3 * 22.0 * _GFLOP,
    ),
    ModelSpec(
        key="rlrg", name="RoBERTaLarge", domain=Domain.NLP,
        parameters=355_400_000, dataset="wikipedia",
        layer_mix=("transformer", "embedding"), local_penalty=0.62,
        train_flops_per_sample=3 * 78.0 * _GFLOP,
    ),
    ModelSpec(
        key="rxlm", name="RoBERTaXLM", domain=Domain.NLP,
        parameters=560_100_000, dataset="wikipedia",
        layer_mix=("transformer", "embedding"), local_penalty=0.64,
        # The XLM vocabulary (250K vs 50K) adds parameters mostly in the
        # embedding, which is a lookup in the forward pass (Section 3),
        # so FLOPs grow far less than the parameter count.
        train_flops_per_sample=3 * 80.0 * _GFLOP,
    ),
    # --- ASR: Whisper on CommonVoice (Section 11) -----------------------
    ModelSpec(
        key="whisper-tiny", name="WhisperTiny", domain=Domain.ASR,
        parameters=37_800_000, dataset="commonvoice",
        layer_mix=("transformer",), local_penalty=0.70,
        train_flops_per_sample=3 * 6.0 * _GFLOP,
    ),
    ModelSpec(
        key="whisper-base", name="WhisperBase", domain=Domain.ASR,
        parameters=72_600_000, dataset="commonvoice",
        layer_mix=("transformer",), local_penalty=0.68,
        train_flops_per_sample=3 * 12.0 * _GFLOP,
    ),
    ModelSpec(
        key="whisper-small", name="WhisperSmall", domain=Domain.ASR,
        parameters=241_700_000, dataset="commonvoice",
        layer_mix=("transformer",), local_penalty=0.65,
        train_flops_per_sample=3 * 40.0 * _GFLOP,
    ),
]

MODELS: dict[str, ModelSpec] = {spec.key: spec for spec in _ALL_SPECS}

CV_KEYS = ("rn18", "rn50", "rn152", "wrn101", "conv")
NLP_KEYS = ("rbase", "rlrg", "rxlm")
ASR_KEYS = ("whisper-tiny", "whisper-base", "whisper-small")


def get_model(key: str) -> ModelSpec:
    """Look up a model by key, with a helpful error message."""
    if key not in MODELS:
        raise KeyError(f"unknown model {key!r}; known: {sorted(MODELS)}")
    return MODELS[key]
