"""Tests for the model zoo and model descriptors."""

import pytest

from repro.models import (
    ASR_KEYS,
    CV_KEYS,
    Domain,
    MODELS,
    ModelSpec,
    NLP_KEYS,
    get_model,
)


def test_zoo_covers_all_paper_models():
    assert set(CV_KEYS) <= set(MODELS)
    assert set(NLP_KEYS) <= set(MODELS)
    assert set(ASR_KEYS) <= set(MODELS)
    assert len(MODELS) == 11


def test_paper_parameter_counts():
    """Parameter counts exactly as quoted in Section 3 / Section 11."""
    assert get_model("rn18").parameters_m == pytest.approx(11.7)
    assert get_model("rn50").parameters_m == pytest.approx(25.6)
    assert get_model("rn152").parameters_m == pytest.approx(60.2)
    assert get_model("wrn101").parameters_m == pytest.approx(126.9)
    assert get_model("conv").parameters_m == pytest.approx(197.8)
    assert get_model("rbase").parameters_m == pytest.approx(124.7)
    assert get_model("rlrg").parameters_m == pytest.approx(355.4)
    assert get_model("rxlm").parameters_m == pytest.approx(560.1)


def test_conv_is_almost_20x_rn18():
    """Section 3: ConvNextLarge is almost 20 times larger than RN18."""
    ratio = get_model("conv").parameters / get_model("rn18").parameters
    assert 15 < ratio < 20


def test_paper_model_size_range_12m_to_560m():
    """Contribution 2: distributed training of 12M-560M models."""
    cv_nlp = [MODELS[k] for k in CV_KEYS + NLP_KEYS]
    smallest = min(m.parameters_m for m in cv_nlp)
    largest = max(m.parameters_m for m in cv_nlp)
    assert smallest == pytest.approx(11.7)
    assert largest == pytest.approx(560.1)


def test_gradient_bytes_fp16_is_two_per_parameter():
    model = get_model("conv")
    assert model.gradient_bytes("fp16") == 2 * model.parameters
    assert model.gradient_bytes("fp32") == 4 * model.parameters
    assert model.gradient_bytes("int8") == model.parameters


def test_gradient_bytes_unknown_compression():
    with pytest.raises(ValueError):
        get_model("conv").gradient_bytes("fp8")


def test_get_model_unknown_key():
    with pytest.raises(KeyError, match="unknown model"):
        get_model("gpt4")


def test_models_in_domain():
    for domain, keys in ((Domain.CV, CV_KEYS), (Domain.NLP, NLP_KEYS),
                         (Domain.ASR, ASR_KEYS)):
        assert {k for k, m in MODELS.items() if m.domain == domain} == set(keys)


def test_local_penalty_bounds_match_figure2():
    """Figure 2: at best 78% (RN152), at worst 48% (CONV)."""
    penalties = [MODELS[k].local_penalty for k in CV_KEYS + NLP_KEYS]
    assert min(penalties) == pytest.approx(0.48)
    assert max(penalties) == pytest.approx(0.78)
    assert get_model("conv").local_penalty == pytest.approx(0.48)
    assert get_model("rn152").local_penalty == pytest.approx(0.78)


def test_spec_validation():
    with pytest.raises(ValueError, match="domain"):
        ModelSpec(key="x", name="X", domain="audio", parameters=1,
                  dataset="d", layer_mix=(), local_penalty=0.5,
                  train_flops_per_sample=1.0)
    with pytest.raises(ValueError, match="local_penalty"):
        ModelSpec(key="x", name="X", domain=Domain.CV, parameters=1,
                  dataset="d", layer_mix=(), local_penalty=0.0,
                  train_flops_per_sample=1.0)
    with pytest.raises(ValueError, match="parameters"):
        ModelSpec(key="x", name="X", domain=Domain.CV, parameters=0,
                  dataset="d", layer_mix=(), local_penalty=0.5,
                  train_flops_per_sample=1.0)
