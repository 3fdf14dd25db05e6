"""Trainable relation-group matcher: mean-pooled word embeddings with a
linear projection, trained with Adam on binary cross-entropy.

The classifier is multi-label over the fixed group order
(physical, social, event); decision threshold defaults to 0.5.
Training is deterministic given the seed: two runs with identical inputs
produce bit-identical weights.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.relations import GROUPS
from ..errors import ConfigurationError, ParseError, ValidationError, not_utf8
from .dataset import MatcherDataset
from .embeddings import EmbeddingTable

MODEL_FORMAT_VERSION = 1


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0
    threshold: float = 0.5
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8


@dataclass
class MatcherModel:
    """Projection over pooled embeddings; one logit per relation group."""

    embeddings: EmbeddingTable
    weights: np.ndarray  # (3, dim)
    bias: np.ndarray  # (3,)
    threshold: float = 0.5
    history: list[float] = field(default_factory=list)  # per-epoch mean loss

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.shape != (len(GROUPS), self.embeddings.dim):
            raise ValidationError(
                f"projection must be {len(GROUPS)}x{self.embeddings.dim}, "
                f"got {self.weights.shape}")
        if self.bias.shape != (len(GROUPS),):
            raise ValidationError(f"bias must have length {len(GROUPS)}")

    def predict_proba(self, head: str) -> tuple[float, float, float]:
        """Independent sigmoid probabilities in (physical, social, event) order."""
        x = self.embeddings.pool(head)
        p = _sigmoid(self.weights @ x + self.bias)
        return tuple(float(v) for v in p)

    def predict_groups(self, head: str) -> frozenset[str]:
        probs = self.predict_proba(head)
        return frozenset(g for g, p in zip(GROUPS, probs) if p >= self.threshold)

    def save(self, path) -> None:
        payload = {
            "format_version": MODEL_FORMAT_VERSION,
            "dim": self.embeddings.dim,
            "vocab_hash": self.embeddings.vocab_hash(),
            "threshold": self.threshold,
            "weights": self.weights.tolist(),
            "bias": self.bias.tolist(),
        }
        Path(path).write_text(json.dumps(payload), encoding="utf-8")

    @classmethod
    def load(cls, path, embeddings: EmbeddingTable) -> "MatcherModel":
        """Read a model that :meth:`save` wrote. A file that is not
        UTF-8 JSON holding an object with every saved key raises
        ParseError."""
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as e:
            raise not_utf8(path, e, f" in matcher model {path}") from e
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON in matcher model {path}: {e.msg}",
                             line=e.lineno) from e
        if not isinstance(payload, dict):
            raise ParseError(f"matcher model {path} must hold a JSON object")
        if payload.get("format_version") != MODEL_FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported model format {payload.get('format_version')!r}")
        missing = [key for key in ("vocab_hash", "weights", "bias") if key not in payload]
        if missing:
            raise ParseError(f"matcher model {path} lacks {', '.join(missing)}")
        if payload["vocab_hash"] != embeddings.vocab_hash():
            raise ConfigurationError(
                "model was trained with a different embedding vocabulary")
        return cls(
            embeddings=embeddings,
            weights=np.array(payload["weights"], dtype=np.float64),
            bias=np.array(payload["bias"], dtype=np.float64),
            threshold=float(payload.get("threshold", 0.5)),
        )


def train_swem_matcher(train: MatcherDataset, embeddings: EmbeddingTable,
                       config: TrainConfig | None = None) -> MatcherModel:
    """Train the projection on pooled features with mini-batch Adam.

    Returns the model with a per-epoch mean-loss ``history``.
    """
    config = config or TrainConfig()
    if len(train) == 0:
        raise ValidationError("training dataset is empty")
    if config.epochs < 1 or config.batch_size < 1:
        raise ValidationError("epochs and batch size must be >= 1")

    n = len(train)
    k = len(GROUPS)
    x = np.vstack([embeddings.pool(ex.head) for ex in train])  # (n, dim)
    y = np.array([ex.label_vector() for ex in train])  # (n, k)

    rng = np.random.default_rng(config.seed)
    w = rng.normal(0.0, 0.01, size=(k, embeddings.dim))
    b = np.zeros(k)

    m_w = np.zeros_like(w)
    v_w = np.zeros_like(w)
    m_b = np.zeros_like(b)
    v_b = np.zeros_like(b)
    step = 0
    eps = 1e-12  # log clamp
    history: list[float] = []

    for _ in range(config.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            xb, yb = x[idx], y[idx]
            z = xb @ w.T + b
            p = _sigmoid(z)
            pc = np.clip(p, eps, 1.0 - eps)
            loss = -(yb * np.log(pc) + (1.0 - yb) * np.log(1.0 - pc)).mean()
            losses.append(float(loss))

            grad_z = (p - yb) / (xb.shape[0] * k)
            g_w = grad_z.T @ xb
            g_b = grad_z.sum(axis=0)

            step += 1
            m_w = config.adam_beta1 * m_w + (1 - config.adam_beta1) * g_w
            v_w = config.adam_beta2 * v_w + (1 - config.adam_beta2) * g_w**2
            m_b = config.adam_beta1 * m_b + (1 - config.adam_beta1) * g_b
            v_b = config.adam_beta2 * v_b + (1 - config.adam_beta2) * g_b**2
            bc1 = 1 - config.adam_beta1**step
            bc2 = 1 - config.adam_beta2**step
            w = w - config.learning_rate * (m_w / bc1) / (np.sqrt(v_w / bc2) + config.adam_eps)
            b = b - config.learning_rate * (m_b / bc1) / (np.sqrt(v_b / bc2) + config.adam_eps)
        history.append(float(np.mean(losses)))

    return MatcherModel(embeddings=embeddings, weights=w, bias=b,
                        threshold=config.threshold, history=history)
