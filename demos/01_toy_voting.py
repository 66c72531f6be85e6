"""Smallest possible example: classify a two-feature categorical pattern.

Four classes are linked to two features b and g. Feature b points at
classes 3 and 4, feature g at classes 1, 2 and 3. A query presenting both
features must land in class 3, the only class connected to both.
"""

from invpat import CategoricalModel

b, g = 1, 2

model = CategoricalModel(num_categories=2, recognition_threshold=2)
model.stored = [frozenset({g}), frozenset({g}), frozenset({b, g}), frozenset({b})]
assert model.postings == {b: [3, 4], g: [1, 2, 3]}

hist = model.classify({b, g})
print("votes per class:", dict(sorted(hist.counts.items())))
print("winner:", hist.argmax, "with", hist.max_count, "votes")
assert hist.argmax == 3
