"""Desk-scale distillation mathematics on tiny feedforward networks.

Everything is plain numpy with hand-derived gradients so that every
training path can be checked against central finite differences:

* temperature-softened distillation: cross-entropy on the labels plus a
  temperature-squared-weighted KL term between the softened teacher and
  student predictions,
* feature-matching distillation (simKD style): squared distance between
  teacher features and a linear projection of student features, with the
  teacher's linear classifier reused at inference time,
* FedSGD: full-batch client gradients aggregated size-weighted, which
  makes one federated round exactly equal to a centralized step.

Data is synthetic Gaussian class blobs; Non-IID clients get disjoint
label subsets.  Networks are a 1-2 layer tanh encoder plus one linear
classifier layer.

Every training run (train_teacher, fedsgd_round and both
distill_student variants) steps through one loop, _descend, with one
divergence rule: a non-finite loss at an epoch, or non-finite
parameters after the last one, raises DivergenceError naming the run,
the epoch and the step size.  A network's parameters are views into one
float64 buffer (NetParams.flat), which a run steps in place; what stays
fixed for the run is built once, before the loop.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

VARIANTS = ("kd", "simkd")


class DivergenceError(RuntimeError):
    """A training loss or the trained parameters became non-finite: the
    step size is too large for the data, or the data holds non-finite
    inputs."""


# ---------------------------------------------------------------------------
# datasets


@dataclass(frozen=True)
class BlobSpec:
    """Parameters of the synthetic Gaussian-blob generator."""

    num_classes: int = 4
    num_features: int = 8
    center_scale: float = 3.0
    noise: float = 1.5
    seed: int = 0

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "BlobSpec":
        return cls(**json.loads(text))


@dataclass
class ToyDataset:
    inputs: np.ndarray      # (samples, features)
    labels: np.ndarray      # (samples,) int class indices
    num_classes: int

    def __post_init__(self) -> None:
        self.inputs = np.asarray(self.inputs, dtype=float)
        labels = np.asarray(self.labels)
        if labels.dtype.kind == "f" and not (
                np.isfinite(labels).all() and (labels == np.trunc(labels)).all()):
            raise ValueError("ToyDataset.labels must be integral class indices")
        self.labels = np.asarray(labels, dtype=int)
        if self.inputs.ndim != 2 or len(self.inputs) == 0:
            raise ValueError("ToyDataset.inputs must be a non-empty (n, features) array")
        if self.labels.shape != (len(self.inputs),):
            raise ValueError("ToyDataset.labels must have one entry per sample")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError("ToyDataset.labels must lie in [0, num_classes)")

    def __len__(self) -> int:
        return len(self.inputs)

    def restrict_labels(self, labels) -> "ToyDataset":
        """The slice whose labels fall in the given set (class count kept)."""
        mask = np.isin(self.labels, list(labels))
        if not mask.any():
            raise ValueError(f"no samples with labels {sorted(labels)}")
        return ToyDataset(self.inputs[mask], self.labels[mask], self.num_classes)


def make_train_test(spec: BlobSpec, train_per_class: int,
                    test_per_class: int) -> tuple[ToyDataset, ToyDataset]:
    """Two independent draws around the same class centers."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    centers = spec.center_scale * rng.normal(size=(spec.num_classes, spec.num_features))

    def draw(per_class: int) -> ToyDataset:
        xs, ys = [], []
        for c in range(spec.num_classes):
            xs.append(centers[c] + spec.noise * rng.normal(size=(per_class, spec.num_features)))
            ys.append(np.full(per_class, c))
        perm = rng.permutation(per_class * spec.num_classes)
        return ToyDataset(np.concatenate(xs)[perm], np.concatenate(ys)[perm],
                          spec.num_classes)

    return draw(train_per_class), draw(test_per_class)


def split_by_label(ds: ToyDataset, label_groups) -> list[ToyDataset]:
    """Disjoint-label (Non-IID) shards; each keeps the global class count."""
    return [ds.restrict_labels(group) for group in label_groups]


# ---------------------------------------------------------------------------
# networks


@dataclass(frozen=True)
class NetArch:
    hidden: tuple[int, ...] = (16,)
    feature_dim: int = 8


@dataclass
class NetParams:
    """tanh encoder (1-2 hidden layers) plus one linear classifier layer.

    The constructor copies the given arrays into one flat buffer; the four
    fields are views into it, so writing to a field writes to `flat`.
    """

    weights: tuple     # encoder weight matrices, shapes chaining input -> feature
    biases: tuple
    w_out: np.ndarray  # (feature_dim, num_classes)
    b_out: np.ndarray
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("encoder needs matching non-empty weight/bias tuples")
        for i in range(1, len(self.weights)):
            if self.weights[i].shape[0] != self.weights[i - 1].shape[1]:
                raise ValueError(f"encoder layer {i} does not chain: "
                                 f"{self.weights[i - 1].shape} -> {self.weights[i].shape}")
        for w, b in zip(self.weights, self.biases):
            if b.shape != (w.shape[1],):
                raise ValueError("bias shape must match layer width")
        if self.w_out.shape[0] != self.weights[-1].shape[1]:
            raise ValueError("classifier input must equal encoder output width")
        if self.b_out.shape != (self.w_out.shape[1],):
            raise ValueError("classifier bias shape mismatch")
        arrays = self.arrays()
        self._bind(np.concatenate([np.ravel(a) for a in arrays], dtype=float),
                   [a.shape for a in arrays])
        if not np.isfinite(self.flat).all():
            raise ValueError("network parameters must be finite")

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def feature_dim(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def num_classes(self) -> int:
        return self.w_out.shape[1]

    def arrays(self) -> list[np.ndarray]:
        return [*self.weights, *self.biases, self.w_out, self.b_out]

    def _bind(self, flat: np.ndarray, shapes) -> None:
        """Point the fields at consecutive slices of flat, in arrays() order."""
        views, start = [], 0
        for shape in shapes:
            size = math.prod(shape)
            views.append(flat[start:start + size].reshape(shape))
            start += size
        k = (len(views) - 2) // 2
        self.weights, self.biases = tuple(views[:k]), tuple(views[k:2 * k])
        self.w_out, self.b_out = views[-2], views[-1]
        self.flat = flat

    def _with_flat(self, flat: np.ndarray) -> "NetParams":
        """Unchecked, over the given buffer in this layout: for gradients
        and copies."""
        return _unchecked(flat, [a.shape for a in self.arrays()])

    def _zeros_like(self) -> "NetParams":
        """A zero gradient buffer in this layout."""
        return self._with_flat(np.zeros_like(self.flat))

    def copy(self) -> "NetParams":
        return self._with_flat(self.flat.copy())

    def __reduce__(self):
        # pickle and copy would store each view as its own array; a clone
        # is unchecked, like the gradient it may be
        return _unchecked, (self.flat.copy(), [a.shape for a in self.arrays()])

    def to_json(self) -> str:
        payload = {
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "w_out": self.w_out.tolist(),
            "b_out": self.b_out.tolist(),
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "NetParams":
        payload = json.loads(text)
        return cls(tuple(np.asarray(w, dtype=float) for w in payload["weights"]),
                   tuple(np.asarray(b, dtype=float) for b in payload["biases"]),
                   np.asarray(payload["w_out"], dtype=float),
                   np.asarray(payload["b_out"], dtype=float))


def _unchecked(flat: np.ndarray, shapes) -> NetParams:
    """A NetParams whose fields are views of flat, without the checks of
    the constructor."""
    p = object.__new__(NetParams)
    p._bind(flat, shapes)
    return p


@dataclass
class Projector:
    """Bias-free linear map from student to teacher feature space."""

    w: np.ndarray

    def __post_init__(self) -> None:
        self.w = np.asarray(self.w, dtype=float)
        if self.w.ndim != 2:
            raise ValueError("Projector.w must be a 2-d matrix")
        if not np.isfinite(self.w).all():
            raise ValueError("Projector.w must be finite")

    def __call__(self, f_s: np.ndarray) -> np.ndarray:
        return np.asarray(f_s, dtype=float) @ self.w


@dataclass(frozen=True)
class LossSpec:
    """Distillation loss of distill_student, one of VARIANTS."""

    variant: str
    temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not 0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be finite and > 0, got {self.temperature}")


def init_net(arch: NetArch, in_dim: int, num_classes: int,
             rng: np.random.Generator) -> NetParams:
    """Gaussian init scaled by 1/sqrt(fan_in)."""
    dims = [in_dim, *arch.hidden, arch.feature_dim]
    weights, biases = [], []
    for a, b in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(size=(a, b)) / np.sqrt(a))
        biases.append(np.zeros(b))
    w_out = rng.normal(size=(arch.feature_dim, num_classes)) / np.sqrt(arch.feature_dim)
    return NetParams(tuple(weights), tuple(biases), w_out, np.zeros(num_classes))


def _forward(p: NetParams, x: np.ndarray):
    """Layer outputs for backprop; hs[0] is the input batch."""
    hs = [x]
    for w, b in zip(p.weights, p.biases):
        hs.append(np.tanh(hs[-1] @ w + b))
    logits = hs[-1] @ p.w_out + p.b_out
    return hs, logits


def net_eval(p: NetParams, x) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic forward pass; returns (features, logits)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != p.in_dim:
        raise ValueError(f"input width {x.shape[1]} does not match network input {p.in_dim}")
    hs, logits = _forward(p, x)
    return hs[-1], logits


def _backprop(p: NetParams, hs, g: NetParams | None, dlogits=None,
              dfeatures=None) -> NetParams:
    """Gradients for a batch given the upstream gradient at the logits
    (classifier path) or directly at the features (encoder-only path),
    written into g (a new zero buffer when g is None).  The encoder-only
    path gives a zero classifier gradient."""
    if g is None:
        g = p._zeros_like()
    if dlogits is not None:
        np.matmul(hs[-1].T, dlogits, out=g.w_out)
        np.add.reduce(dlogits, axis=0, out=g.b_out)
        dh = dlogits @ p.w_out.T
    else:
        g.w_out.fill(0.0)
        g.b_out.fill(0.0)
        dh = dfeatures
    for layer in reversed(range(len(p.weights))):
        dz = dh * (1.0 - hs[layer + 1] ** 2)   # tanh'
        np.matmul(hs[layer].T, dz, out=g.weights[layer])
        np.add.reduce(dz, axis=0, out=g.biases[layer])
        if layer:   # the input layer needs no gradient below it
            dh = dz @ p.weights[layer].T
    return g


# ---------------------------------------------------------------------------
# losses


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


@dataclass(frozen=True)
class _Labels:
    """Class labels as positions in the flattened (n, classes) logits and
    as a one-hot matrix: the constants of the cross-entropy."""

    idx: np.ndarray
    onehot: np.ndarray


def _labels(labels: np.ndarray, num_classes: int) -> _Labels:
    n = len(labels)
    if n and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes})")
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), labels] = 1.0
    return _Labels(np.arange(n) * num_classes + labels, onehot)


def _cross_entropy(logits: np.ndarray, labels: _Labels) -> tuple[float, np.ndarray]:
    """Batch-mean cross-entropy of (n, classes) logits and its gradient."""
    log_p = _log_softmax(logits)
    loss = -log_p.take(labels.idx).mean()
    return float(loss), (np.exp(log_p) - labels.onehot) / len(logits)


@dataclass(frozen=True)
class _KDTargets:
    """The constants of kd_loss for one teacher and one temperature: the
    labels and the teacher's softened log-probabilities and probabilities."""

    labels: _Labels
    log_p_tt: np.ndarray
    p_tt: np.ndarray
    temperature: float


def _kd_targets(shape: tuple, teacher_logits, labels, temperature: float) -> _KDTargets:
    """Validated against student logits of the given (n, classes) shape."""
    z_t = np.atleast_2d(np.asarray(teacher_logits, dtype=float))
    y = np.atleast_1d(np.asarray(labels, dtype=int))
    if shape != z_t.shape:
        raise ValueError(f"student/teacher logit shapes differ: {shape} vs {z_t.shape}")
    if y.shape != (shape[0],):
        raise ValueError("labels must have one entry per logit row")
    log_p_tt = _log_softmax(z_t / temperature)
    return _KDTargets(_labels(y, shape[1]), log_p_tt, np.exp(log_p_tt), temperature)


def _kd_loss(z_s: np.ndarray, targets: _KDTargets) -> tuple[float, np.ndarray]:
    n = z_s.shape[0]
    t = targets.temperature
    p_tt = targets.p_tt

    hard, d_hard = _cross_entropy(z_s, targets.labels)
    log_p_st = _log_softmax(z_s / t)
    soft = (p_tt * (targets.log_p_tt - log_p_st)).sum(axis=1).mean()

    loss = hard + t * t * soft
    grad = d_hard + t * (np.exp(log_p_st) - p_tt) / n
    return float(loss), grad


def kd_loss(student_logits, teacher_logits, labels,
            temperature: float) -> tuple[float, np.ndarray]:
    """Distillation loss and its exact gradient w.r.t. the student logits.

    loss = CE(student probs, labels)
         + T^2 * KL(teacher softened || student softened)

    with both softened distributions taken at temperature T and the KL
    pointing from teacher to student.  Batch-mean reduction throughout.
    """
    z_s = np.atleast_2d(np.asarray(student_logits, dtype=float))
    loss, grad = _kd_loss(z_s, _kd_targets(z_s.shape, teacher_logits, labels, temperature))
    return loss, (grad if np.ndim(student_logits) == 2 else grad[0])


def simkd_loss(f_t, f_s, proj: Projector) -> tuple[float, np.ndarray, np.ndarray]:
    """Feature-matching loss ||f_t - P(f_s)||^2 (batch mean) and its exact
    gradients w.r.t. the student features and the projector matrix."""
    f_t = np.atleast_2d(np.asarray(f_t, dtype=float))
    f_s = np.atleast_2d(np.asarray(f_s, dtype=float))
    if f_s.shape[1] != proj.w.shape[0]:
        raise ValueError(f"student features of width {f_s.shape[1]} do not match "
                         f"projector input {proj.w.shape[0]}")
    if f_t.shape[1] != proj.w.shape[1]:
        raise ValueError(f"teacher features of width {f_t.shape[1]} do not match "
                         f"projector output {proj.w.shape[1]}")
    n = f_s.shape[0]
    diff = f_s @ proj.w - f_t
    loss = float((diff ** 2).sum() / n)
    dpred = 2.0 * diff / n
    return loss, dpred @ proj.w.T, f_s.T @ dpred


# The kernels take an optional gradient buffer `out` to write into, and
# hard_grads and kd_grads the constants of their loss, built once per
# training run; without these they build both on every call.


def hard_grads(p: NetParams, ds: ToyDataset, out: NetParams | None = None,
               labels: _Labels | None = None) -> tuple[float, NetParams]:
    """Full-batch cross-entropy loss and parameter gradients."""
    hs, logits = _forward(p, ds.inputs)
    if labels is None:
        labels = _labels(ds.labels, p.num_classes)
    loss, dlogits = _cross_entropy(logits, labels)
    return loss, _backprop(p, hs, out, dlogits=dlogits)


def kd_grads(p: NetParams, teacher_logits: np.ndarray, ds: ToyDataset,
             temperature: float, out: NetParams | None = None,
             targets: _KDTargets | None = None) -> tuple[float, NetParams]:
    hs, logits = _forward(p, ds.inputs)
    if targets is None:
        targets = _kd_targets(logits.shape, teacher_logits, ds.labels, temperature)
    loss, dlogits = _kd_loss(logits, targets)
    return loss, _backprop(p, hs, out, dlogits=dlogits)


def simkd_grads(p: NetParams, proj: Projector, teacher_features: np.ndarray,
                ds: ToyDataset, out: NetParams | None = None
                ) -> tuple[float, NetParams, np.ndarray]:
    """Loss plus encoder gradients (classifier gradient zero) and projector
    grad."""
    hs, _ = _forward(p, ds.inputs)
    loss, d_fs, d_proj = simkd_loss(teacher_features, hs[-1], proj)
    return loss, _backprop(p, hs, out, dfeatures=d_fs), d_proj


def _check_lr(lr: float) -> None:
    if not 0.0 <= lr < np.inf:
        raise ValueError(f"lr must be finite and >= 0, got {lr}")


def _descend(what: str, params: list, step, epochs: int, lr: float) -> None:
    """Full-batch gradient descent of the arrays params, in place: each
    epoch step() gives the loss and one gradient g per array at their
    current values, and each array steps by -lr * g.  A non-finite loss
    raises DivergenceError naming the epoch; so do arrays that are not
    finite after the last epoch, which the loss misses when tanh
    saturates an infinite weight."""
    for epoch in range(epochs):
        loss, grads = step()
        if not math.isfinite(loss):
            raise DivergenceError(f"{what} diverged at epoch {epoch}: loss={loss} (lr={lr})")
        for a, g in zip(params, grads):
            a -= lr * g
    if not all(np.isfinite(a).all() for a in params):
        raise DivergenceError(f"{what} diverged at epoch {epochs - 1}: the trained "
                              f"parameters are not finite (lr={lr})")


# ---------------------------------------------------------------------------
# federated teacher training


def _fedsgd(parts, net):
    """(p, step) of FedSGD over the partitions that hold samples (warning
    about the others), refusing by index one that does not fit p =
    net(in_dim, num_classes) of the first: step() gives _descend their
    size-weighted mean loss and flat gradient at p, those of their union."""
    used = [(i, part) for i, part in enumerate(parts) if len(part) > 0]
    if len(used) < len(parts):
        logger.warning("excluding %d empty partitions from the round", len(parts) - len(used))
    if not used:
        raise ValueError("all partitions are empty")
    p = net(used[0][1].inputs.shape[1], used[0][1].num_classes)
    for i, part in used:
        if (part.inputs.shape[1], part.num_classes) != (p.in_dim, p.num_classes):
            raise ValueError(f"partition {i} has {part.inputs.shape[1]} features and "
                             f"{part.num_classes} classes, not {p.in_dim} and {p.num_classes}")
    total = sum(len(part) for _, part in used)
    clients = [(part, len(part) / total, _labels(part.labels, p.num_classes))
               for _, part in used]
    g = p._zeros_like()

    def step() -> tuple[float, list]:
        agg, loss_sum = None, 0.0
        for part, w, labels in clients:
            loss, _ = hard_grads(p, part, g, labels)
            loss_sum += w * loss
            agg = w * g.flat if agg is None else agg + w * g.flat
        return loss_sum, [agg]

    return p, step


def fedsgd_round(global_params: NetParams, parts, lr: float) -> NetParams:
    """One synchronous round: every client computes a full-batch
    cross-entropy gradient on its entire partition, gradients are averaged
    weighted by partition size, and one step is applied to a copy of the
    global parameters.  (Distillation needs the teacher that this round
    trains.)
    """
    _check_lr(lr)
    p, step = _fedsgd(parts, lambda *dims: global_params.copy())
    _descend("fedsgd_round", [p.flat], step, 1, lr)
    return p


def train_teacher(parts, epochs: int, lr: float, arch: NetArch = NetArch((32,), 16),
                  seed: int = 0) -> NetParams:
    """Federated full-batch training of the shared teacher network, sized
    to the first partition that holds samples."""
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    _check_lr(lr)
    rng = np.random.Generator(np.random.PCG64(seed))
    p, step = _fedsgd(parts, lambda *dims: init_net(arch, *dims, rng))
    _descend("teacher training", [p.flat], step, epochs, lr)
    return p


# ---------------------------------------------------------------------------
# distillation


def distill_student(teacher: NetParams, student_arch: NetArch, data: ToyDataset,
                    loss: LossSpec, epochs: int, lr: float,
                    seed: int = 0) -> tuple[NetParams, Projector | None]:
    """Full-batch gradient descent of a fresh student on its private data.

    variant "kd": the student trains its own classifier against the hard
    labels plus the teacher's softened predictions; no projector is used.
    variant "simkd": the student encoder and a linear projector regress
    the teacher's features; the student's own classifier is left at its
    initialization and inference reuses the teacher's classifier.
    """
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    _check_lr(lr)
    rng = np.random.Generator(np.random.PCG64(seed))
    student = init_net(student_arch, data.inputs.shape[1], data.num_classes, rng)
    t_features, t_logits = net_eval(teacher, data.inputs)
    g = student._zeros_like()

    if loss.variant == "kd":
        proj, params = None, [student.flat]
        targets = _kd_targets((len(data), student.num_classes), t_logits, data.labels,
                              loss.temperature)

        def step() -> tuple[float, list]:
            return kd_grads(student, t_logits, data, loss.temperature, g, targets)[0], [g.flat]
    else:
        proj = Projector(rng.normal(size=(student_arch.feature_dim, teacher.feature_dim))
                         / np.sqrt(student_arch.feature_dim))
        params = [student.flat, proj.w]

        def step() -> tuple[float, list]:
            val, _, d_proj = simkd_grads(student, proj, t_features, data, g)
            return val, [g.flat, d_proj]

    _descend(f"{loss.variant} distillation", params, step, epochs, lr)
    return student, proj


def measure_accuracy(p: NetParams, data: ToyDataset,
                     classifier_override: tuple[NetParams, Projector] | None = None) -> float:
    """Mean of indicator(argmax prediction == label).

    classifier_override = (teacher, projector) routes the student features
    through the projector and the teacher's linear classifier, the
    inference path of feature-matching distillation.
    """
    if len(data) == 0:
        raise ValueError("cannot measure accuracy on an empty dataset")
    features, logits = net_eval(p, data.inputs)
    if classifier_override is not None:
        teacher, proj = classifier_override
        logits = proj(features) @ teacher.w_out + teacher.b_out
    return float((logits.argmax(axis=1) == data.labels).mean())
