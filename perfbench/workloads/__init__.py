"""The benchmark's workloads, by name."""

from .detect_r10 import DetectR10
from .learn_r0 import LearnR0
from .rul_predict import RulPredict
from .vote_r10 import VoteR10

WORKLOADS = {w.name: w for w in (VoteR10, LearnR0, RulPredict, DetectR10)}
