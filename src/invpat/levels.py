"""Multilevel stacking of models.

A level's output histogram becomes the next level's input after threshold
processing: every class whose vote count reaches the level's output
threshold turns into a present category of a binary meta-pattern. Level 1
may be numeric or categorical; all higher levels are categorical because
their inputs are thresholded histograms.

A teacher enters through label tables that map automatically discovered
inner class ids to external labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvpatError, LevelError
from .index import CategoricalModel, ClassHistogram, Model, _setting

UNLABELED = "unlabeled"


class LabelTable:
    """Inner class id -> external label; missing ids are "unlabeled"."""

    def __init__(self, labels: dict[int, str] | None = None):
        self._labels: dict[int, str] = {}
        for inner, label in (labels or {}).items():
            self.attach(inner, label)

    def attach(self, inner: int, label: str) -> None:
        self._labels[_setting(inner, "class id")] = label

    def lookup(self, inner: int) -> str:
        return self._labels.get(inner, UNLABELED)

    def labels(self) -> dict[int, str]:
        return dict(self._labels)

    def __eq__(self, other) -> bool:
        return isinstance(other, LabelTable) and self._labels == other._labels


def histogram_to_metapattern(h: ClassHistogram, threshold: int) -> frozenset[int]:
    """Present categories of the next level: ids with count >= threshold."""
    threshold = _setting(threshold, "threshold")
    return frozenset(np.flatnonzero(h.votes >= threshold).tolist())


def signature_common(h1: ClassHistogram, h2: ClassHistogram, th1: int, th2: int) -> int:
    """Count of classes above threshold in both histograms.

    Same-object signatures share many above-threshold classes even across
    view angles; different objects share few or none.
    """
    return len(histogram_to_metapattern(h1, th1) & histogram_to_metapattern(h2, th2))


@dataclass
class Level:
    """One stack level: a model, the threshold applied to its output
    histogram before it feeds the next level, and an optional label table."""

    model: Model | CategoricalModel
    threshold: int = 2
    labels: LabelTable | None = None


class LevelStack:
    """Ordered levels; level 1 numeric or categorical, the rest categorical."""

    def __init__(self, levels: list[Level]):
        if not levels:
            raise ConfigError("a stack needs at least one level")
        for i, lvl in enumerate(levels, start=1):
            if i > 1 and not isinstance(lvl.model, CategoricalModel):
                raise ConfigError(f"level {i} must be categorical")
            _setting(lvl.threshold, f"level {i} threshold")
        self.levels = list(levels)
        self.schema = None  # optional ColumnSchema, saved with the stack

    def run(self, inputs, train: bool = False) -> ClassHistogram:
        """Feed a sequence of level-1 patterns through the stack.

        Level 1 handles each input in turn and accumulates one vote per
        recognized winner (in train mode every input has a winner). Each
        later level receives the previous level's thresholded histogram as
        one meta-pattern. Returns the final level's histogram.
        """
        first = self.levels[0]
        winners = []
        for item in inputs:
            try:
                if train:
                    winners.append(first.model.train_step(item)[0])
                else:
                    n = first.model.recognized(first.model.classify(item))
                    if n is not None:
                        winners.append(n)
            except InvpatError as exc:
                raise LevelError(1, exc) from exc
        hist = ClassHistogram(np.bincount(winners, minlength=first.model.N + 1))
        for i, lvl in enumerate(self.levels[1:], start=2):
            meta = histogram_to_metapattern(hist, self.levels[i - 2].threshold)
            try:
                if train:
                    lvl.model.train_step(meta)
                hist = lvl.model.classify(meta)
            except InvpatError as exc:
                raise LevelError(i, exc) from exc
        return hist
