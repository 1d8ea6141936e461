"""Model parameters and forward scoring for BoxE and MLP-BoxE.

Every entity carries a position embedding and a translational bump
embedding.  In a binary fact the head's scored point is its position
translated by the tail's bump, and vice versa; unary facts score the bare
position against a class box.  In feature mode ("mlp-boxe") two MLPs map
node features to position/bump space and their outputs are summed with the
(scaled) embeddings.

Feature mode splits the work between the two parts, by initialization and
training rather than by blocking gradients:

- The MLPs model what entities with similar features share.  Training
  applies decoupled weight decay to their weight matrices
  (``training.MLP_WEIGHT_DECAY``).  Without it the MLPs fit per-entity
  feature noise to explain relational structure, and crowd the free
  embeddings, which carry that structure, out of the positions.
- The MLP outputs spread the initial points several times wider than the
  embedding initialization (four to eight times on the joint-signal
  benchmark), so box extents start ``FEATURE_BOX_EXTENT_SCALE`` times
  larger than in pure mode.  From near-point boxes every edge fact pulls
  the feature part of each position into the relation boxes.  That erases
  the feature signal the class boxes need, even where features carry
  nothing about edges.

Trainable boxes are parametrized by a free center and a free ``size_raw``
vector; the box extent is ``softplus(size_raw) > 0`` so corners cannot
invert during optimization.  ``ExplicitConfig`` is the raw, materialized
view (points plus box corners) that scoring, evaluation, and the
expressiveness oracle operate on.
"""

from __future__ import annotations

import base64
import json
import math
import sys
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .data import DataError, Vocabulary
from .geometry import check_norm_order, lx_norm, piecewise_distance
from .io import open_fresh

if TYPE_CHECKING:
    from .autodiff import Tensor

MODE_BOXE = "boxe"
MODE_MLP_BOXE = "mlp-boxe"

CHECKPOINT_FORMAT = "boxkg-model"
CHECKPOINT_VERSION = 2  # what save_model writes; load_model also reads version 1

# Feature MLPs spread the initial points several times wider than the
# embedding initialization does, so feature-mode boxes start with larger
# extents (see the module docstring).
FEATURE_BOX_EXTENT_SCALE = 10.0


def softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, np.asarray(x, dtype=np.float64))


def inv_softplus(y: np.ndarray) -> np.ndarray:
    """Inverse of softplus; maps 0 to -inf and is the identity for large y."""
    y = np.asarray(y, dtype=np.float64)
    if np.any(y < 0):
        raise ValueError("inv_softplus requires non-negative input")
    with np.errstate(divide="ignore"):
        small = np.log(np.expm1(np.minimum(y, 30.0)))
    return np.where(y > 30.0, y, small)


# ---------------------------------------------------------------------------
# feature MLPs


@dataclass
class MlpParams:
    """Plain MLP: rectifier on hidden layers, identity on the output layer."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must pair up")
        for w, b in zip(self.weights, self.biases):
            if w.shape[1] != b.shape[0]:
                raise ValueError("bias shape must match layer output")
        for prev, nxt in zip(self.weights, self.weights[1:]):
            if prev.shape[1] != nxt.shape[0]:
                raise ValueError("consecutive layer dimensions must chain")

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def hidden_sizes(self) -> tuple[int, ...]:
        return tuple(w.shape[1] for w in self.weights[:-1])

    def copy(self) -> "MlpParams":
        return MlpParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])


def mlp_init(input_dim: int, hidden: tuple[int, ...], output_dim: int, rng) -> MlpParams:
    """Fan-in-scaled uniform initialization for weights and biases."""
    sizes = [input_dim, *hidden, output_dim]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return MlpParams(weights, biases)


def mlp_forward(mlp: MlpParams, x: np.ndarray) -> np.ndarray:
    """The MLP's output, layer by layer through ``autodiff.matmul``, as in training."""
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        x = ad.matmul(x, w, b, relu=i < last).data
    return x


# ---------------------------------------------------------------------------
# configuration and parameters


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of a model.

    ``mlp_hidden`` sizes the two feature MLPs that ``init_params`` builds.
    A model reconstructed by ``expressive.reconstruct_with_mlp`` or read by
    ``load_model`` takes each MLP's sizes from its own weights
    (``MlpParams.hidden_sizes``), which may differ between the point and the
    bump MLP; there ``mlp_hidden`` records the point MLP's.
    """

    d: int
    norm: int = 2
    mode: str = MODE_BOXE
    embedding_scale: float | None = None  # None -> 1.0 pure, 0.5 feature mode
    mlp_hidden: tuple[int, ...] = (1000, 1000)
    feature_dim: int | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimensionality must be >= 1")
        check_norm_order(self.norm)
        if self.mode not in (MODE_BOXE, MODE_MLP_BOXE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == MODE_MLP_BOXE and self.feature_dim is None:
            raise ValueError("feature mode requires feature_dim")
        object.__setattr__(self, "mlp_hidden", tuple(self.mlp_hidden))

    @property
    def feature_mode(self) -> bool:
        return self.mode == MODE_MLP_BOXE

    @property
    def scale(self) -> float:
        if self.embedding_scale is not None:
            return self.embedding_scale
        return 0.5 if self.feature_mode else 1.0


@dataclass
class ModelParams:
    config: ModelConfig
    point_emb: np.ndarray
    bump_emb: np.ndarray
    class_center: np.ndarray
    class_size_raw: np.ndarray
    rel_head_center: np.ndarray
    rel_head_size_raw: np.ndarray
    rel_tail_center: np.ndarray
    rel_tail_size_raw: np.ndarray
    mlp_point: MlpParams | None = None
    mlp_bump: MlpParams | None = None

    def __post_init__(self):
        if (self.mlp_point is None) != (self.mlp_bump is None):
            raise ValueError("both feature MLPs must be present, or neither")
        if self.config.feature_mode != (self.mlp_point is not None):
            raise ValueError("feature MLPs present iff feature mode enabled")

    @property
    def n_entities(self) -> int:
        return self.point_emb.shape[0]

    @property
    def n_classes(self) -> int:
        return self.class_center.shape[0]

    @property
    def n_relations(self) -> int:
        return self.rel_head_center.shape[0]

    @property
    def d(self) -> int:
        return self.config.d

    def param_dict(self) -> dict[str, np.ndarray]:
        """Named live views of every trainable array (shared, not copied)."""
        out = {
            "point_emb": self.point_emb,
            "bump_emb": self.bump_emb,
            "class_center": self.class_center,
            "class_size_raw": self.class_size_raw,
            "rel_head_center": self.rel_head_center,
            "rel_head_size_raw": self.rel_head_size_raw,
            "rel_tail_center": self.rel_tail_center,
            "rel_tail_size_raw": self.rel_tail_size_raw,
        }
        for prefix, mlp in (("mlp_point", self.mlp_point), ("mlp_bump", self.mlp_bump)):
            if mlp is not None:
                for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
                    out[f"{prefix}.w{i}"] = w
                    out[f"{prefix}.b{i}"] = b
        return out

    def copy(self) -> "ModelParams":
        return ModelParams(
            config=self.config,
            point_emb=self.point_emb.copy(),
            bump_emb=self.bump_emb.copy(),
            class_center=self.class_center.copy(),
            class_size_raw=self.class_size_raw.copy(),
            rel_head_center=self.rel_head_center.copy(),
            rel_head_size_raw=self.rel_head_size_raw.copy(),
            rel_tail_center=self.rel_tail_center.copy(),
            rel_tail_size_raw=self.rel_tail_size_raw.copy(),
            mlp_point=None if self.mlp_point is None else self.mlp_point.copy(),
            mlp_bump=None if self.mlp_bump is None else self.mlp_bump.copy(),
        )


def init_params(
    counts: Vocabulary | tuple[int, int, int],
    config: ModelConfig,
    seed: int,
) -> ModelParams:
    """Seeded initialization: small uniform points, near-unit box widths.

    Box extents start in [0.01, 0.1], scaled by ``FEATURE_BOX_EXTENT_SCALE``
    in feature mode.
    """
    if isinstance(counts, Vocabulary):
        n_e, n_c, n_r = counts.n_entities, counts.n_classes, counts.n_relations
    else:
        n_e, n_c, n_r = counts
    rng = np.random.default_rng(seed)
    d = config.d
    bound = 0.5 / np.sqrt(d)
    extent_scale = FEATURE_BOX_EXTENT_SCALE if config.feature_mode else 1.0

    def points(n):
        return rng.uniform(-bound, bound, size=(n, d))

    def size_raw(n):
        return inv_softplus(extent_scale * rng.uniform(0.01, 0.1, size=(n, d)))

    mlp_point = mlp_bump = None
    if config.feature_mode:
        mlp_point = mlp_init(config.feature_dim, config.mlp_hidden, d, rng)
        mlp_bump = mlp_init(config.feature_dim, config.mlp_hidden, d, rng)

    return ModelParams(
        config=config,
        point_emb=points(n_e),
        bump_emb=points(n_e),
        class_center=points(n_c),
        class_size_raw=size_raw(n_c),
        rel_head_center=points(n_r),
        rel_head_size_raw=size_raw(n_r),
        rel_tail_center=points(n_r),
        rel_tail_size_raw=size_raw(n_r),
        mlp_point=mlp_point,
        mlp_bump=mlp_bump,
    )


def box_corners(center: np.ndarray, size_raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    half = 0.5 * softplus(size_raw)
    return center - half, center + half


# ---------------------------------------------------------------------------
# explicit (materialized) configurations


@dataclass(eq=False)
class ExplicitConfig:
    """Raw scoring configuration: entity points and box corners."""

    positions: np.ndarray
    bumps: np.ndarray
    class_lower: np.ndarray
    class_upper: np.ndarray
    rel_head_lower: np.ndarray
    rel_head_upper: np.ndarray
    rel_tail_lower: np.ndarray
    rel_tail_upper: np.ndarray
    norm: int = 2

    def __post_init__(self):
        check_norm_order(self.norm)
        arrays = [
            self.positions,
            self.bumps,
            self.class_lower,
            self.class_upper,
            self.rel_head_lower,
            self.rel_head_upper,
            self.rel_tail_lower,
            self.rel_tail_upper,
        ]
        d = arrays[0].shape[1]
        for arr in arrays:
            if arr.ndim != 2 or arr.shape[1] != d:
                raise ValueError("all configuration arrays must be (n, d)")
            if not np.all(np.isfinite(arr)):
                raise ValueError("configuration arrays must be finite")
        if self.positions.shape != self.bumps.shape:
            raise ValueError("positions and bumps must have matching shapes")
        for lower, upper in (
            (self.class_lower, self.class_upper),
            (self.rel_head_lower, self.rel_head_upper),
            (self.rel_tail_lower, self.rel_tail_upper),
        ):
            if lower.shape != upper.shape:
                raise ValueError("box corner arrays must have matching shapes")
            if np.any(lower > upper):
                raise ValueError("box corners require lower <= upper")

    @property
    def n_entities(self) -> int:
        return self.positions.shape[0]

    @property
    def n_classes(self) -> int:
        return self.class_lower.shape[0]

    @property
    def n_relations(self) -> int:
        return self.rel_head_lower.shape[0]

    @property
    def d(self) -> int:
        return self.positions.shape[1]


def check_features(features: np.ndarray) -> None:
    """Raise ``DataError`` naming the first row with a non-finite feature."""
    bad_rows = np.flatnonzero(~np.all(np.isfinite(features), axis=1))
    if bad_rows.size:
        raise DataError(f"non-finite feature in row {int(bad_rows[0])}")


def materialize(params: ModelParams, features: np.ndarray | None = None) -> ExplicitConfig:
    """Resolve embeddings (+MLP outputs) and box corners into raw arrays."""
    if params.config.feature_mode:
        if features is None:
            raise DataError("feature mode requires a feature matrix")
        check_features(features)
        scale = params.config.scale
        positions = scale * params.point_emb + mlp_forward(params.mlp_point, features)
        bumps = scale * params.bump_emb + mlp_forward(params.mlp_bump, features)
    else:
        positions = params.point_emb.copy()
        bumps = params.bump_emb.copy()
    class_lower, class_upper = box_corners(params.class_center, params.class_size_raw)
    head_lower, head_upper = box_corners(params.rel_head_center, params.rel_head_size_raw)
    tail_lower, tail_upper = box_corners(params.rel_tail_center, params.rel_tail_size_raw)
    return ExplicitConfig(
        positions=positions,
        bumps=bumps,
        class_lower=class_lower,
        class_upper=class_upper,
        rel_head_lower=head_lower,
        rel_head_upper=head_upper,
        rel_tail_lower=tail_lower,
        rel_tail_upper=tail_upper,
        norm=params.config.norm,
    )


def _binary_scores(cfg: ExplicitConfig, rel, head_pos, head_bump, tail_pos, tail_bump):
    """Translate each side by the other's bump and add the two box scores."""
    head_dist = piecewise_distance(
        head_pos + tail_bump, cfg.rel_head_lower[rel], cfg.rel_head_upper[rel]
    )
    tail_dist = piecewise_distance(
        tail_pos + head_bump, cfg.rel_tail_lower[rel], cfg.rel_tail_upper[rel]
    )
    return lx_norm(head_dist, cfg.norm) + lx_norm(tail_dist, cfg.norm)


def config_unary_scores(cfg: ExplicitConfig, cls, ent) -> np.ndarray:
    cls = np.asarray(cls, dtype=np.intp)
    ent = np.asarray(ent, dtype=np.intp)
    dist = piecewise_distance(
        cfg.positions[ent], cfg.class_lower[cls], cfg.class_upper[cls]
    )
    return lx_norm(dist, cfg.norm)


def config_binary_scores(cfg: ExplicitConfig, rel, head, tail) -> np.ndarray:
    rel = np.asarray(rel, dtype=np.intp)
    head = np.asarray(head, dtype=np.intp)
    tail = np.asarray(tail, dtype=np.intp)
    return _binary_scores(
        cfg, rel, cfg.positions[head], cfg.bumps[head], cfg.positions[tail], cfg.bumps[tail]
    )


def config_class_scores(cfg: ExplicitConfig, ent) -> np.ndarray:
    """Scores of every class for each given entity, shape (n_ent, n_classes)."""
    ent = np.asarray(ent, dtype=np.intp)
    points = cfg.positions[ent][:, None, :]
    dist = piecewise_distance(points, cfg.class_lower[None], cfg.class_upper[None])
    return lx_norm(dist, cfg.norm)


def config_scores_all_heads(cfg: ExplicitConfig, rel: int, tail: int) -> np.ndarray:
    """Scores of rel(h, tail) for every candidate head h."""
    return _binary_scores(
        cfg, rel, cfg.positions, cfg.bumps, cfg.positions[tail], cfg.bumps[tail]
    )


def config_scores_all_tails(cfg: ExplicitConfig, rel: int, head: int) -> np.ndarray:
    """Scores of rel(head, t) for every candidate tail t."""
    return _binary_scores(
        cfg, rel, cfg.positions[head], cfg.bumps[head], cfg.positions, cfg.bumps
    )


# ---------------------------------------------------------------------------
# checkpoint container (JSON with base64 float64 tensors, lossless round trip)


def save_model(params: ModelParams, path) -> None:
    """Write a version-2 checkpoint: JSON whose tensors hold base64 ``<f8`` bytes."""
    cfg = params.config
    tensors = {
        name: {
            "shape": list(arr.shape),
            "data": base64.b64encode(np.ascontiguousarray(arr, dtype="<f8")).decode("ascii"),
        }
        for name, arr in params.param_dict().items()
    }
    payload = {
        "format": CHECKPOINT_FORMAT,
        "format_version": CHECKPOINT_VERSION,
        "config": {
            "d": cfg.d,
            "norm": cfg.norm,
            "mode": cfg.mode,
            "embedding_scale": cfg.embedding_scale,
            "mlp_hidden": list(cfg.mlp_hidden),
            "feature_dim": cfg.feature_dim,
        },
        "counts": {
            "entities": params.n_entities,
            "classes": params.n_classes,
            "relations": params.n_relations,
        },
        "tensors": tensors,
    }
    with open_fresh(path) as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")


def _decode_tensor(name: str, entry, version: int) -> np.ndarray:
    """One checkpoint tensor as a fresh writable float64 array, or ``DataError``.

    Version 1 stores ``data`` as a flat list of JSON numbers, version 2 as
    the base64 of the tensor's little-endian float64 bytes.
    """
    if not isinstance(entry, dict) or set(entry) != {"shape", "data"}:
        raise DataError(f"checkpoint tensor {name} must hold exactly 'shape' and 'data'")
    shape, data = entry["shape"], entry["data"]
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise DataError(f"checkpoint tensor {name} has shape {shape!r}, not non-negative ints")
    size = math.prod(shape)
    if version == 1:
        if not isinstance(data, list) or not set(map(type, data)) <= {int, float}:
            raise DataError(f"checkpoint tensor {name} data is not a list of numbers")
        if len(data) != size:
            raise DataError(f"checkpoint tensor {name} has {len(data)} values, expected {size}")
        try:
            return np.array(data, dtype=np.float64).reshape(shape)
        except OverflowError as exc:  # an integer beyond the float range
            raise DataError(f"checkpoint tensor {name}: {exc}") from exc
    if not isinstance(data, str):
        raise DataError(f"checkpoint tensor {name} data is not a base64 string")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise DataError(f"checkpoint tensor {name} data is not base64: {exc}") from exc
    if len(raw) != 8 * size:
        raise DataError(f"checkpoint tensor {name} holds {len(raw)} bytes, expected {8 * size}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def _is_int(value) -> bool:
    return type(value) is int  # not bool: JSON true and false load as bools, a kind of int


# (field, what it must be, test) for the numeric fields of a checkpoint's
# config; ``ModelConfig`` checks their ranges and the mode
_CONFIG_FIELD_TYPES = (
    ("d", "an int", _is_int),
    ("norm", "an int", _is_int),
    ("feature_dim", "null or an int", lambda v: v is None or _is_int(v)),
    ("embedding_scale", "null or a finite number",
     lambda v: v is None or type(v) in (int, float) and abs(v) <= sys.float_info.max),
    ("mlp_hidden", "a list of positive ints",
     lambda v: type(v) is list and all(_is_int(n) and n > 0 for n in v)),
)


def load_model(path) -> ModelParams:
    """Read a version-1 or version-2 checkpoint; malformed content raises ``DataError``.

    The config's numeric fields must have the types ``_CONFIG_FIELD_TYPES``
    names.  Every tensor must be present, finite and shaped as the stored
    counts and ``d`` imply, and each feature MLP must chain from
    ``feature_dim`` to ``d``; no other tensor may be present.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"corrupt checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise DataError(f"{path} is not a model checkpoint")
    version = payload.get("format_version")
    if type(version) is not int or version not in (1, CHECKPOINT_VERSION):
        raise DataError(
            f"checkpoint version {version!r} unsupported (expected 1 or {CHECKPOINT_VERSION})"
        )
    try:
        raw_cfg = payload["config"]
        for name, kind, ok in _CONFIG_FIELD_TYPES:
            if not ok(raw_cfg[name]):
                raise DataError(f"checkpoint config {name} must be {kind}, not {raw_cfg[name]!r}")
        config = ModelConfig(
            d=raw_cfg["d"],
            norm=raw_cfg["norm"],
            mode=raw_cfg["mode"],
            embedding_scale=raw_cfg["embedding_scale"],
            mlp_hidden=tuple(raw_cfg["mlp_hidden"]),
            feature_dim=raw_cfg["feature_dim"],
        )
        counts = {key: payload["counts"][key] for key in ("entities", "classes", "relations")}
        tensors = {
            name: _decode_tensor(name, entry, version)
            for name, entry in payload["tensors"].items()
        }
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed checkpoint {path}: {exc}") from exc

    d = config.d
    expected = {}
    for count, names in (
        ("entities", ("point_emb", "bump_emb")),
        ("classes", ("class_center", "class_size_raw")),
        ("relations", ("rel_head_center", "rel_head_size_raw",
                       "rel_tail_center", "rel_tail_size_raw")),
    ):
        for name in names:
            expected[name] = (counts[count], d)
    # each MLP must chain from feature_dim to d; its hidden sizes are its own
    n_layers = dict.fromkeys(("mlp_point", "mlp_bump"), 0) if config.feature_mode else {}
    for prefix in n_layers:
        fan_in = config.feature_dim
        while f"{prefix}.w{n_layers[prefix]}" in tensors:
            i = n_layers[prefix]
            weight = tensors[f"{prefix}.w{i}"]
            fan_out = weight.shape[-1] if weight.ndim == 2 else None
            expected[f"{prefix}.w{i}"] = (fan_in, fan_out)
            expected[f"{prefix}.b{i}"] = (fan_out,)
            fan_in, n_layers[prefix] = fan_out, i + 1
        if n_layers[prefix] == 0 or fan_in != d:
            raise DataError(
                f"checkpoint {path}: {prefix} does not map {config.feature_dim} features to d={d}"
            )
    if set(tensors) != set(expected):
        missing = sorted(set(expected) - set(tensors))
        unexpected = sorted(set(tensors) - set(expected))
        raise DataError(
            f"checkpoint {path}: missing tensors {missing}, unexpected tensors {unexpected}"
        )
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise DataError(
                f"checkpoint tensor {name} has shape {list(tensors[name].shape)},"
                f" expected {list(shape)}"
            )
        if not np.all(np.isfinite(tensors[name])):
            raise DataError(f"checkpoint tensor {name} has non-finite values")

    def mlp(prefix: str) -> MlpParams | None:
        if prefix not in n_layers:
            return None
        return MlpParams(
            [tensors[f"{prefix}.w{i}"] for i in range(n_layers[prefix])],
            [tensors[f"{prefix}.b{i}"] for i in range(n_layers[prefix])],
        )

    return ModelParams(
        config=config,
        **{name: tensors[name] for name in expected if not name.startswith("mlp_")},
        mlp_point=mlp("mlp_point"),
        mlp_bump=mlp("mlp_bump"),
    )


def check_dataset_compat(params: ModelParams, dataset) -> None:
    """Raise when a checkpoint cannot score the given dataset."""
    vocab = dataset.vocab
    mismatches = []
    if params.n_entities != vocab.n_entities:
        mismatches.append(f"entities {params.n_entities} != {vocab.n_entities}")
    if params.n_classes != vocab.n_classes:
        mismatches.append(f"classes {params.n_classes} != {vocab.n_classes}")
    if params.n_relations != vocab.n_relations:
        mismatches.append(f"relations {params.n_relations} != {vocab.n_relations}")
    if params.config.feature_mode:
        if dataset.features is None:
            mismatches.append("model expects features but dataset has none")
        elif dataset.feature_dim != params.config.feature_dim:
            mismatches.append(
                f"feature dim {params.config.feature_dim} != {dataset.feature_dim}"
            )
    if mismatches:
        raise DataError("model/dataset mismatch: " + "; ".join(mismatches))


# ---------------------------------------------------------------------------
# differentiable scoring graph (used by the training module)


def mlp_forward_tensors(pt: dict, prefix: str, n_layers: int, x: np.ndarray) -> "Tensor":
    """The MLP ``prefix`` on ``x``: one ``autodiff.matmul`` node per layer."""
    h: "Tensor" = ad.Tensor(x)
    for i in range(n_layers):
        h = ad.matmul(h, pt[f"{prefix}.w{i}"], pt[f"{prefix}.b{i}"], relu=i < n_layers - 1)
    return h


def representation_tensors(
    params: ModelParams, pt: dict, features: np.ndarray | None
) -> tuple["Tensor", "Tensor"]:
    """Position and bump matrices for all entities as graph nodes."""
    if not params.config.feature_mode:
        return pt["point_emb"], pt["bump_emb"]
    if features is None:
        raise DataError("feature mode requires a feature matrix")
    scale = params.config.scale
    positions = ad.mul(pt["point_emb"], scale) + mlp_forward_tensors(
        pt, "mlp_point", len(params.mlp_point.weights), features
    )
    bumps = ad.mul(pt["bump_emb"], scale) + mlp_forward_tensors(
        pt, "mlp_bump", len(params.mlp_bump.weights), features
    )
    return positions, bumps


def _box_center_width(center: "Tensor", size_raw: "Tensor"):
    width = ad.softplus(size_raw) + 1.0
    return center, width


def _box_constants(width: np.ndarray) -> tuple[np.ndarray, ...]:
    """Width, half-width, 1/w, kappa and d(kappa)/d(width), elementwise."""
    half = 0.5 * (width - 1.0)
    inv_w = 1.0 / width
    kappa = half * (width - inv_w)
    dkappa_dw = 0.5 * (2.0 * width - 1.0 - inv_w * inv_w)
    return width, half, inv_w, kappa, dkappa_dw


def _box_terms(p, bank, rows, saved, work, order: int) -> None:
    """Write the norms of points ``p`` and the factors of their backward into ``saved``.

    ``saved`` is (norms, d norm/d point, d norm/d width).  Under L1 the two
    factors are the signed slope d dist/d point, zero at the box center, and
    d dist/d width; under L2 each is multiplied by the unit vector
    d norm/d dist = dist / norm, which is zero on an all-zero distance row
    instead of a division by zero.  Boundary points take the inside branch.
    ``bank`` holds the box centers and ``_box_constants``; ``rows`` picks
    each point's box from it, an index array or ``...`` where points and
    boxes broadcast.  When every row picks one box, that box's bank rows
    broadcast instead of being gathered.  ``work`` is four float arrays, one
    int64 and one bool array of the scored shape; the distance and, under
    L2, the unit vector live in its third.  Every step writes into ``saved``
    or ``work``, so a call allocates nothing of that shape.  ``p`` may be
    ``work[0]``: the first step reads it and nothing after.

    The kernel avoids numpy's slow loops.  On a 256 x 128 block with a
    random inside mask (2-core Xeon, numpy 2.4), a masked (``where=``) copy
    took ~100 us against ~7 us for a plain one, and ``np.sign`` written over
    its input ~170 us against ~22 us out of place.  So the inside/outside choices are bitwise
    selects on int64 views, which move each chosen value's bits unchanged,
    and the sign goes to a free array; every element goes through the same
    IEEE operations as with masked copies, NaN and signed zeros included.
    Under L2 only a block holding a row of zero or NaN norm divides with a
    mask.
    """
    c, w, half, inv_w, kappa, dkappa_dw = bank
    norms, signed_slope, d_width = saved
    diff, offset, box, inv, outside, inside = work
    if rows is not ... and np.all(rows == rows[0]):
        rows = rows[0]  # one box: its (d,) bank rows broadcast

    def pick(table, out):  # the rows' boxes from one bank
        if rows is ... or np.isscalar(rows):
            return table[rows]
        return np.take(table, rows, axis=0, out=out)

    np.subtract(p, pick(c, box), out=diff)
    np.abs(diff, out=offset)
    np.less_equal(offset, pick(half, box), out=inside)
    np.subtract(inside.view(np.int8), 1, out=outside)  # -1 (all bits set) outside, 0 inside
    inv = pick(inv_w, inv)
    w = pick(w, box)
    _select(signed_slope, w, inv, outside)
    signed_slope *= np.sign(diff, out=d_width)
    scaled = np.multiply(offset, inv, out=diff)
    dist = np.multiply(offset, w, out=box)
    dist -= pick(kappa, d_width)
    _select(dist, dist, scaled, outside)
    np.subtract(offset, pick(dkappa_dw, d_width), out=d_width)
    np.negative(np.multiply(scaled, inv, out=scaled), out=scaled)
    _select(d_width, d_width, scaled, outside)
    if order == 1:
        dist.sum(axis=-1, out=norms)
        return
    np.sqrt(np.multiply(dist, dist, out=offset).sum(axis=-1, out=norms), out=norms)
    live = norms[..., None] > 0
    with np.errstate(invalid="ignore"):
        if live.all():
            np.divide(dist, norms[..., None], out=dist)
        else:
            np.divide(dist, norms[..., None], out=dist, where=live)
            np.copyto(dist, 0.0, where=~live)
    signed_slope *= dist
    d_width *= dist


def _select(out, outside_value, inside_value, outside) -> None:
    """``out`` = ``outside_value`` where ``outside`` is -1, ``inside_value`` where it is 0."""
    out, inside_value = out.view(np.int64), inside_value.view(np.int64)
    np.bitwise_xor(outside_value.view(np.int64), inside_value, out=out)
    out &= outside
    out ^= inside_value


def _saved_arrays(shape: tuple) -> tuple[np.ndarray, ...]:
    """Empty ``saved`` arrays of ``_box_terms`` for points of (broadcast) ``shape``."""
    return np.empty(shape[:-1]), np.empty(shape), np.empty(shape)


def _work_arrays(shape: tuple) -> tuple[np.ndarray, ...]:
    """Empty ``work`` arrays of ``_box_terms`` for points of (broadcast) ``shape``."""
    return tuple(np.empty(shape) for _ in range(4)) + (
        np.empty(shape, dtype=np.int64), np.empty(shape, dtype=bool)
    )


# Largest block, in cells, of the per-box paths (``box_score_rows`` with
# ``box_ids``, ``translated_box_score_rows``): 2**15 float64 cells (256 KB;
# 256 rows at d = 128).  A block's four float, one int64 and one bool work
# arrays take 1.3 MB, within the 2 MB L2 cache of one core.  On a 2-core
# Xeon, 2**13 to 2**17 cells ran a 51,200 x 128 call equally fast; 2**16 let
# the forward's peak reach 3.6 (n, d) arrays at d = 64 against 3.35 at
# 2**15.  The rule reads the shapes alone.
BOX_SCORE_BLOCK_CELLS = 2**15


class _BlockWork(threading.local):
    """Flat work arrays of ``_box_terms`` for one block, made once per thread.

    Made afresh per call, they were freed to the top of glibc's heap,
    trimmed, and faulted back in by the next call: a ``joint-mlp`` training
    run (seed 1) took two to three times the minor page faults and system
    time.
    """

    def __init__(self):
        self.arrays = _work_arrays((BOX_SCORE_BLOCK_CELLS,))


_BLOCK_WORK = _BlockWork()


def _blocked_terms(n: int, d: int, terms) -> tuple[np.ndarray, ...]:
    """Run ``terms`` over blocks of rows in order; returns the n-row ``saved`` arrays.

    ``terms(rows, saved, work)`` writes ``_box_terms`` of the rows a slice
    selects into those ``saved`` rows, using ``work`` of the block's size.
    A block holds at most ``BOX_SCORE_BLOCK_CELLS`` cells (one row if d is
    larger), and its work arrays are views of the thread's ``_BLOCK_WORK``.
    """
    step = max(1, BOX_SCORE_BLOCK_CELLS // d)
    flat = _BLOCK_WORK.arrays if step * d <= BOX_SCORE_BLOCK_CELLS else _work_arrays((d,))
    saved = _saved_arrays((n, d))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        size = min(step, n - start)
        work = tuple(a[: size * d].reshape(size, d) for a in flat)
        terms(rows, tuple(a[rows] for a in saved), work)
    return saved


def _box_score_node(saved, sinks, center: "Tensor", width: "Tensor", box_ids) -> "Tensor":
    """Graph node of ``_box_terms`` results: scores, with their hand-derived backward.

    ``sinks`` pairs each point source with the rows it gave each point:
    ``(tensor, None)`` when the tensor holds the points themselves,
    ``(table, index)`` when point i took ``table[index[i]]``.  The point
    gradient goes to each in turn, scattered onto tables by
    ``autodiff.scatter_rows``.  The backward multiplies ``g`` into each
    saved factor in place and lets go of it at its last use: d norm/d width
    once the width gradient is summed, before any point scatter, and
    d norm/d point, which becomes the point gradient, when it returns.  So a
    graph through the node backpropagates once; a second raises.
    """
    norms, *factors = saved  # factors: d norm/d point, d norm/d width; emptied by the backward

    def per_box(g_rows):
        # broadcast boxes are summed back by ``_accumulate``
        return g_rows if box_ids is None else ad.scatter_rows(box_ids, g_rows, len(center.data))

    def backward(g):
        g = g[..., None]
        d_point, d_width = factors
        factors.clear()
        if width.requires_grad:
            width._accumulate(per_box(np.multiply(g, d_width, out=d_width)))
        del d_width
        g_points = np.multiply(g, d_point, out=d_point)
        for source, index in sinks:
            if source.requires_grad:
                source._accumulate(
                    g_points if index is None
                    else ad.scatter_rows(index, g_points, len(source.data))
                )
        if center.requires_grad:
            center._accumulate(-per_box(g_points))

    parents = tuple(source for source, _ in sinks) + (center, width)
    return ad._node(norms, parents, ad.once(backward))


def box_score_rows(
    points: "Tensor",
    center: "Tensor",
    width: "Tensor",
    order: int,
    box_ids: np.ndarray | None = None,
) -> "Tensor":
    """Fused piecewise-distance-plus-norm with a hand-derived backward pass.

    Reduces over the last axis.  Kappa is derived internally, so the width
    gradient carries the d(kappa)/d(width) term.  Boundary points take the
    inside-branch subgradient and a point at the box center a zero one; an
    all-zero distance row under the L2 norm gets a zero subgradient instead
    of a division by zero.  The forward keeps two arrays of the scored shape
    beside the scores, d norm/d point and d norm/d width (under L2 the
    unit vector is already multiplied in).  The backward multiplies ``g``
    into each in place and frees d norm/d width once the width gradient is
    summed, so a graph through it backpropagates once.

    Without ``box_ids``, ``points`` and the center/width boxes broadcast
    against each other, for example (n, 1, d) points against (1, C, d) boxes
    for (n, C) scores; gradients are summed back over the broadcast axes.

    With ``box_ids``, each (n, d) point row is scored against its own box
    from the (n_boxes, d) banks.  The per-box constants (half-width, 1/w,
    kappa, d(kappa)/d(width)) are computed once on the banks and gathered
    per block of rows, in row order, or broadcast where a block's rows share
    one box; each block is at most ``BOX_SCORE_BLOCK_CELLS`` cells so that
    its temporaries stay in cache.
    The box gradients are summed per box by one ``autodiff.scatter_rows``
    over all rows.  Each element goes through the same formulas in the same
    association as in the broadcast path, and each norm sums one row alone,
    so scores and gradients are bit-identical to scoring gathered boxes.
    """
    p = points.data
    bank = (center.data,) + _box_constants(width.data)
    if box_ids is None:
        shape = np.broadcast_shapes(p.shape, center.data.shape, width.data.shape)
        saved = _saved_arrays(shape)
        _box_terms(p, bank, ..., saved, _work_arrays(shape), order)
    else:
        saved = _blocked_terms(
            len(box_ids), p.shape[-1],
            lambda rows, saved, work: _box_terms(p[rows], bank, box_ids[rows], saved, work, order),
        )
    return _box_score_node(saved, ((points, None),), center, width, box_ids)


def translated_box_score_rows(
    positions: "Tensor",
    bumps: "Tensor",
    point_ids: np.ndarray,
    bump_ids: np.ndarray,
    center: "Tensor",
    width: "Tensor",
    order: int,
    box_ids: np.ndarray,
) -> "Tensor":
    """``box_score_rows`` of the points ``positions[point_ids] + bumps[bump_ids]``.

    One side of a binary fact: each entity's position translated by the
    other entity's bump, scored against its own box ``box_ids`` from the
    banks.  Each block of rows gathers and adds its own points, so the (n, d)
    gathered and translated points are never built, and the forward keeps
    what ``box_score_rows`` keeps: two (n, d) arrays.  The backward frees
    d norm/d width before it scatters the point gradient onto ``positions``
    at ``point_ids``, then onto ``bumps`` at ``bump_ids``; the point
    gradient, formed in the other saved array, goes when it returns.
    Scores and gradients are bit-identical to gathering with
    ``autodiff.take_rows``, adding, and calling ``box_score_rows``.
    """
    pos, bump = positions.data, bumps.data
    bank = (center.data,) + _box_constants(width.data)

    def terms(rows, saved, work):
        points = np.take(pos, point_ids[rows], axis=0, out=work[0])
        points += np.take(bump, bump_ids[rows], axis=0, out=work[1])
        _box_terms(points, bank, box_ids[rows], saved, work, order)

    saved = _blocked_terms(len(box_ids), pos.shape[-1], terms)
    sinks = ((positions, point_ids), (bumps, bump_ids))
    return _box_score_node(saved, sinks, center, width, box_ids)


def unary_score_tensors(
    params: ModelParams, pt: dict, positions: "Tensor", cls: np.ndarray, ent: np.ndarray
) -> "Tensor":
    cls = np.asarray(cls, dtype=np.intp)
    ent = np.asarray(ent, dtype=np.intp)
    points = ad.take_rows(positions, ent)
    center, width = _box_center_width(pt["class_center"], pt["class_size_raw"])
    return box_score_rows(points, center, width, params.config.norm, box_ids=cls)


def unary_all_class_score_tensors(
    params: ModelParams, pt: dict, positions: "Tensor", ent: np.ndarray
) -> "Tensor":
    """Scores against every class box, shape (n_facts, n_classes)."""
    ent = np.asarray(ent, dtype=np.intp)
    points = ad.reshape(ad.take_rows(positions, ent), (len(ent), 1, params.d))
    center, width = _box_center_width(pt["class_center"], pt["class_size_raw"])
    boxes = (1, params.n_classes, params.d)
    return box_score_rows(
        points, ad.reshape(center, boxes), ad.reshape(width, boxes), params.config.norm
    )


def binary_score_tensors(
    params: ModelParams,
    pt: dict,
    positions: "Tensor",
    bumps: "Tensor",
    rel: np.ndarray,
    head: np.ndarray,
    tail: np.ndarray,
) -> "Tensor":
    """Scores of rel(head, tail): one ``translated_box_score_rows`` node per side.

    The head side scores ``positions[head] + bumps[tail]`` against the
    relation's head box, the tail side ``positions[tail] + bumps[head]``
    against its tail box.  Per call the graph keeps two (n, d) arrays per
    side, as ``box_score_rows`` does, and no gathered rows.  The backward
    runs one side after the other and frees each side's arrays as it goes,
    so its first entity scatter meets at most four (n, d) arrays: the other
    side's two, its own point gradient and the scatter's index.
    """
    rel = np.asarray(rel, dtype=np.intp)
    head = np.asarray(head, dtype=np.intp)
    tail = np.asarray(tail, dtype=np.intp)
    hc, hw = _box_center_width(pt["rel_head_center"], pt["rel_head_size_raw"])
    tc, tw = _box_center_width(pt["rel_tail_center"], pt["rel_tail_size_raw"])
    norm = params.config.norm
    head_scores = translated_box_score_rows(positions, bumps, head, tail, hc, hw, norm, rel)
    tail_scores = translated_box_score_rows(positions, bumps, tail, head, tc, tw, norm, rel)
    return head_scores + tail_scores
