"""Tests for gradient clipping, LR schedules and big-batch training."""

import numpy as np
import pytest

from repro.training import (
    LAMB,
    LocalTrainer,
    MLP,
    SGD,
    clip_gradient_norm,
    make_classification_data,
)


class TestClipping:
    def test_short_gradient_untouched(self):
        gradient = np.array([0.3, 0.4])
        np.testing.assert_array_equal(
            clip_gradient_norm(gradient, 1.0), gradient
        )

    def test_long_gradient_scaled_to_max(self):
        gradient = np.array([3.0, 4.0])
        clipped = clip_gradient_norm(gradient, 1.0)
        assert np.linalg.norm(clipped) == pytest.approx(1.0)
        # Direction preserved.
        np.testing.assert_allclose(clipped / np.linalg.norm(clipped),
                                   gradient / 5.0)

    def test_zero_gradient(self):
        gradient = np.zeros(3)
        np.testing.assert_array_equal(clip_gradient_norm(gradient, 1.0),
                                      gradient)

    def test_validation(self):
        with pytest.raises(ValueError):
            clip_gradient_norm(np.ones(2), 0.0)


class HalvingSchedule:
    """The trainer's schedule interface: ``lr_at(step)``."""

    def lr_at(self, step):
        return 0.5 ** step


class TestTrainerIntegration:
    def _train(self, optimizer_cls, batch, schedule=None, clip=None,
               lr=0.2, steps=8):
        rng = np.random.default_rng(0)
        features, labels = make_classification_data(rng, num_samples=1024)
        model = MLP(16, [32], 4, rng=np.random.default_rng(1))
        optimizer = optimizer_cls(model.parameters(), lr=lr)
        trainer = LocalTrainer(
            model, optimizer, target_batch_size=batch,
            microbatch_size=min(batch, 128), schedule=schedule,
            max_grad_norm=clip,
        )
        log = trainer.train_steps(features, labels, num_steps=steps,
                                  rng=np.random.default_rng(2))
        # Evaluate the final model on the full data.
        from repro.training import Tensor, cross_entropy

        return cross_entropy(model(Tensor(features)), labels).item()

    def test_schedule_updates_optimizer_lr(self):
        rng = np.random.default_rng(0)
        features, labels = make_classification_data(rng, num_samples=64)
        model = MLP(16, [8], 4)
        optimizer = SGD(model.parameters(), lr=1.0)
        schedule = HalvingSchedule()
        trainer = LocalTrainer(model, optimizer, target_batch_size=32,
                               microbatch_size=32, schedule=schedule)
        trainer.train_steps(features, labels, num_steps=3)
        assert optimizer.lr == pytest.approx(schedule.lr_at(2))
        assert trainer.steps_taken == 3

    def test_lamb_handles_big_batches_better_than_sgd(self):
        """The paper's premise (Section 3): LAMB makes 8K-64K batches
        trainable. At a fixed step budget with a large batch, LAMB's
        trust-ratio scaling beats plain SGD at the same base LR."""
        sgd_loss = self._train(SGD, batch=1024, lr=0.2)
        lamb_loss = self._train(
            lambda p, lr: LAMB(p, lr=0.05, weight_decay=0.0),
            batch=1024, lr=0.05,
        )
        assert lamb_loss < sgd_loss

    def test_clipping_tames_divergent_lr(self):
        wild = self._train(SGD, batch=128, lr=5.0, steps=6)
        clipped = self._train(SGD, batch=128, lr=5.0, clip=1.0, steps=6)
        assert clipped < wild or not np.isfinite(wild)
