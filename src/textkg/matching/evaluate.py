"""Multi-label F1 evaluation of relation matchers at threshold 0.5.

Works for the trained matcher and for the rule-based ones: anything that
maps a head text to a set of predicted groups can be scored.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.relations import GROUPS
from ..errors import UsageError
from .dataset import MatcherDataset
from .matchers import (  # the predictors stay importable from here
    base_group_predictor,
    heuristic_group_predictor,
    resolve_group_predictor,
)
from .swem import MatcherModel


@dataclass
class MatcherEvalResult:
    per_group_f1: dict[str, float]
    macro_f1: float
    micro_f1: float
    n_examples: int

    def to_dict(self) -> dict:
        return {
            "per_group_f1": dict(self.per_group_f1),
            "macro_f1": self.macro_f1,
            "micro_f1": self.micro_f1,
            "n_examples": self.n_examples,
        }


def _f1(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def evaluate_matcher(matcher, dataset: MatcherDataset,
                     model: MatcherModel | None = None) -> MatcherEvalResult:
    """Per-group, macro, and micro F1 of ``matcher`` on a labeled dataset."""
    if len(dataset) == 0:
        raise UsageError("evaluation dataset is empty")
    predict = resolve_group_predictor(matcher, model)
    tp = {g: 0 for g in GROUPS}
    fp = {g: 0 for g in GROUPS}
    fn = {g: 0 for g in GROUPS}
    for ex in dataset:
        predicted = predict(ex.head)
        for g in GROUPS:
            if g in predicted and g in ex.labels:
                tp[g] += 1
            elif g in predicted:
                fp[g] += 1
            elif g in ex.labels:
                fn[g] += 1
    per_group = {g: _f1(tp[g], fp[g], fn[g]) for g in GROUPS}
    macro = sum(per_group.values()) / len(GROUPS)
    micro = _f1(sum(tp.values()), sum(fp.values()), sum(fn.values()))
    return MatcherEvalResult(per_group_f1=per_group, macro_f1=macro,
                             micro_f1=micro, n_examples=len(dataset))
