"""Adam trainer for the tree-CNN router.

Training data is a list of ``(tp_tensor, ap_tensor, label)`` triples where
``label`` follows the :data:`repro.router.treecnn.CLASS_TP` /
:data:`~repro.router.treecnn.CLASS_AP` convention.  Each mini-batch is one
packed forward and backward pass
(:meth:`~repro.router.treecnn.TreeCNNClassifier.loss_and_gradients`), and
one Adam step updates the model's flat parameter buffer with a few vector
operations.  Training is most of the service's set-up time, which is why
neither step loops over samples or parameter arrays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from repro.router.tensors import PlanTensor
from repro.router.treecnn import TreeCNNClassifier


@dataclass
class TrainingReport:
    """Summary of one training run."""

    epochs: int
    final_train_loss: float
    final_train_accuracy: float
    validation_accuracy: float
    loss_history: list[float] = field(default_factory=list)
    accuracy_history: list[float] = field(default_factory=list)


TrainingSample = tuple[PlanTensor, PlanTensor, int]


class RouterTrainer:
    """Mini-batch Adam trainer."""

    def __init__(
        self,
        model: TreeCNNClassifier,
        *,
        learning_rate: float = 1e-3,
        batch_size: int = 16,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        weight_decay: float = 1e-5,
        seed: int = 17,
    ):
        self.model = model
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.weight_decay = weight_decay
        self._rng = random.Random(seed)
        self._first_moment = np.zeros_like(model.flat)
        self._second_moment = np.zeros_like(model.flat)
        self._step = 0
        # Weight decay applies to the weight matrices only, not the biases.
        self._decay = np.zeros_like(model.flat)
        for view in model.views(self._decay).values():
            if view.ndim > 1:
                view[...] = weight_decay

    # ------------------------------------------------------------------ train
    def train(
        self,
        samples: list[TrainingSample],
        *,
        epochs: int = 40,
        validation_fraction: float = 0.2,
    ) -> TrainingReport:
        """Train for ``epochs`` passes and return a report.

        A deterministic tail split of ``validation_fraction`` of the samples
        is held out for the validation accuracy number.
        """
        if not samples:
            raise ValueError("cannot train on an empty sample list")
        validation_count = int(len(samples) * validation_fraction)
        training = samples[: len(samples) - validation_count]
        validation = samples[len(samples) - validation_count :]
        if not training:
            training, validation = samples, []

        loss_history: list[float] = []
        accuracy_history: list[float] = []
        order = list(range(len(training)))
        for _epoch in range(epochs):
            self._rng.shuffle(order)
            epoch_loss = 0.0
            correct = 0
            for start in range(0, len(order), self.batch_size):
                batch = [training[index] for index in order[start : start + self.batch_size]]
                losses, probabilities, gradient = self.model.loss_and_gradients(batch)
                epoch_loss += float(losses.sum())
                correct += _count_correct(probabilities, batch)
                gradient *= 1.0 / len(batch)
                self._apply_adam(gradient)
            loss_history.append(epoch_loss / len(training))
            accuracy_history.append(correct / len(training))

        validation_accuracy = self.evaluate(validation) if validation else accuracy_history[-1]
        return TrainingReport(
            epochs=epochs,
            final_train_loss=loss_history[-1],
            final_train_accuracy=accuracy_history[-1],
            validation_accuracy=validation_accuracy,
            loss_history=loss_history,
            accuracy_history=accuracy_history,
        )

    def evaluate(self, samples: list[TrainingSample]) -> float:
        """Classification accuracy over ``samples`` (1.0 for an empty list)."""
        if not samples:
            return 1.0
        probabilities = self.model.predict_probas([(tp, ap) for tp, ap, _label in samples])
        return _count_correct(probabilities, samples) / len(samples)

    # ------------------------------------------------------------------- adam
    def _apply_adam(self, gradient: np.ndarray) -> None:
        """One Adam step over the flat buffer (``gradient`` is overwritten)."""
        self._step += 1
        if self.weight_decay:
            gradient += self._decay * self.model.flat
        first, second = self._first_moment, self._second_moment
        first *= self.beta1
        first += (1.0 - self.beta1) * gradient
        second *= self.beta2
        second += (1.0 - self.beta2) * gradient**2
        corrected_first = first / (1.0 - self.beta1**self._step)
        corrected_second = second / (1.0 - self.beta2**self._step)
        self.model.flat -= (
            self.learning_rate * corrected_first / (np.sqrt(corrected_second) + self.epsilon)
        )


def _count_correct(probabilities: np.ndarray, samples: list[TrainingSample]) -> int:
    """How many rows of ``probabilities`` put their maximum on the sample's label."""
    labels = np.array([label for _tp, _ap, label in samples])
    return int(np.count_nonzero(np.argmax(probabilities, axis=1) == labels))
