"""Big-batch training: LAMB against plain SGD at a large target batch."""

import numpy as np

from repro.training import (
    LAMB,
    LocalTrainer,
    MLP,
    SGD,
    Tensor,
    cross_entropy,
    make_classification_data,
)


class TestTrainerIntegration:
    def _train(self, optimizer_cls, batch, lr=0.2, steps=8):
        rng = np.random.default_rng(0)
        features, labels = make_classification_data(rng, num_samples=1024)
        model = MLP(16, [32], 4, rng=np.random.default_rng(1))
        optimizer = optimizer_cls(model.parameters(), lr=lr)
        trainer = LocalTrainer(
            model, optimizer, target_batch_size=batch,
            microbatch_size=min(batch, 128),
        )
        trainer.train_steps(features, labels, num_steps=steps,
                            rng=np.random.default_rng(2))
        # Evaluate the final model on the full data.
        return cross_entropy(model(Tensor(features)), labels).item()

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
