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
the epoch and the step size; the loss is computed every epoch.  A
network's parameters are views into one float64 buffer
(NetParams.flat), which a run steps in place.  Each run builds one
_Pass before its loop, which owns the activations, deltas and gradients
a step writes through the network; the FedSGD clients share one pass
over their concatenated rows.  A loss head holds only its run's
constants and gives its loss and delta as plain expressions.  The
public kernels build a pass and call it once, so each gradient has one
implementation.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .model import check_count, is_real

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
        t = self.temperature
        if not (is_real(t) and 0 < t < math.inf):
            raise ValueError(f"temperature must be finite and > 0, got {t!r}")


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


# ---------------------------------------------------------------------------
# losses
#
# A loss head takes the (n, classes) logits, or the (n, features) features
# if its on_features is set, and gives the loss and the delta there.  It
# holds only what stays fixed for a run; its rows belong to consecutive
# clients (bounds), and grads holds its gradients of parameters outside
# the network (the projector), which _descend steps in place.


def _row_max(z: np.ndarray) -> np.ndarray:
    """z.max(axis=1), as a chain of np.maximum over the columns: the same
    bits, nan and signed zeros included, and faster on rows of a few
    classes."""
    m = z[:, 0].copy()
    for j in range(1, z.shape[1]):
        np.maximum(m, z[:, j], out=m)
    return m


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of an (n, c) array."""
    y = z - _row_max(z)[:, None]
    return y - np.log(np.add.reduce(np.exp(y), axis=1, keepdims=True))


class _Hard:
    """Cross-entropy of (n, c) logits against labels, for consecutive
    clients of the given sizes: each client's mean loss, and the delta,
    each row divided by its client's size."""

    on_features, grads = False, ()

    def __init__(self, labels: np.ndarray, c: int, sizes: list):
        n = len(labels)
        if n and (labels.min() < 0 or labels.max() >= c):
            raise ValueError(f"labels must lie in [0, {c})")
        starts = np.cumsum([0, *sizes]).tolist()
        self.bounds = list(zip(starts, starts[1:]))
        self.idx = np.arange(n) * c + labels
        self.onehot = np.eye(c)[labels]
        self.per_row = np.repeat(np.array(sizes, dtype=float), sizes)[:, None]

    def __call__(self, z: np.ndarray) -> tuple[list, np.ndarray]:
        log_p = _log_softmax(z)
        picked = log_p.take(self.idx)
        # np.add.reduce(v) / n is v.mean() bit for bit, in half the time
        losses = [-float(np.add.reduce(picked[a:b]) / (b - a)) for a, b in self.bounds]
        return losses, (np.exp(log_p) - self.onehot) / self.per_row


class _KD(_Hard):
    """kd_loss of (n, c) student logits against one teacher's logits,
    labels and temperature, whose softened targets it computes once."""

    def __init__(self, shape: tuple, teacher_logits, labels, temperature: float):
        z_t = np.atleast_2d(np.asarray(teacher_logits, dtype=float))
        y = np.atleast_1d(np.asarray(labels, dtype=int))
        if shape != z_t.shape:
            raise ValueError(f"student/teacher logit shapes differ: {shape} vs {z_t.shape}")
        if y.shape != (shape[0],):
            raise ValueError("labels must have one entry per logit row")
        super().__init__(y, shape[1], [shape[0]])
        self.t = temperature
        self.log_p_tt = _log_softmax(z_t / temperature)
        self.p_tt = np.exp(self.log_p_tt)

    def __call__(self, z: np.ndarray) -> tuple[float, np.ndarray]:
        (hard,), d = super().__call__(z)
        t, n = self.t, len(z)
        log_p_st = _log_softmax(z / t)
        soft = np.add.reduce(np.add.reduce(self.p_tt * (self.log_p_tt - log_p_st), axis=1)) / n
        d += (np.exp(log_p_st) - self.p_tt) * t / n
        return float(hard + t * t * soft), d


class _Match:
    """simkd_loss of student features of the given (n, s) shape against
    the teacher's features through proj: the loss, the delta at the
    features, and the projector's gradient in grads."""

    on_features = True

    def __init__(self, f_t, proj: Projector, shape: tuple):
        f_t = np.atleast_2d(np.asarray(f_t, dtype=float))
        if shape[1] != proj.w.shape[0]:
            raise ValueError(f"student features of width {shape[1]} do not match "
                             f"projector input {proj.w.shape[0]}")
        if f_t.shape[1] != proj.w.shape[1]:
            raise ValueError(f"teacher features of width {f_t.shape[1]} do not match "
                             f"projector output {proj.w.shape[1]}")
        self.f_t, self.w, self.bounds = f_t, proj.w, [(0, shape[0])]
        self.grads = [np.empty_like(proj.w)]

    def __call__(self, f_s: np.ndarray) -> tuple[float, np.ndarray]:
        n = len(f_s)
        diff = f_s @ self.w - self.f_t
        loss = float(np.add.reduce(np.square(diff), axis=None) / n)
        diff = diff * 2.0 / n
        np.matmul(f_s.T, diff, out=self.grads[0])
        return loss, diff @ self.w.T


def kd_loss(student_logits, teacher_logits, labels,
            temperature: float) -> tuple[float, np.ndarray]:
    """Distillation loss and its exact gradient w.r.t. the student logits.

    loss = CE(student probs, labels)
         + T^2 * KL(teacher softened || student softened)

    with both softened distributions taken at temperature T and the KL
    pointing from teacher to student.  Batch-mean reduction throughout.
    """
    z_s = np.atleast_2d(np.asarray(student_logits, dtype=float))
    loss, grad = _KD(z_s.shape, teacher_logits, labels, temperature)(z_s)
    return loss, (grad if np.ndim(student_logits) == 2 else grad[0])


def simkd_loss(f_t, f_s, proj: Projector) -> tuple[float, np.ndarray, np.ndarray]:
    """Feature-matching loss ||f_t - P(f_s)||^2 (batch mean) and its exact
    gradients w.r.t. the student features and the projector matrix."""
    f_s = np.atleast_2d(np.asarray(f_s, dtype=float))
    head = _Match(f_t, proj, f_s.shape)
    return (*head(f_s), head.grads[0])


# ---------------------------------------------------------------------------
# passes


class _Pass:
    """Network p over the rows of x, with a loss head (None: the forward
    pass only).  It owns the arrays a step writes through the network:
    the activations hs (hs[0] is x), the logits (None when the head reads
    the features), one buffer that each layer's delta dh takes in turn,
    and the gradient of each client of the head's bounds, gs; a head on
    the features leaves the classifier's gradient at zero."""

    def __init__(self, p: NetParams, x: np.ndarray, head=None):
        n, widths = len(x), [w.shape[1] for w in p.weights]
        self.p, self.head = p, head
        self.hs = [x, *(np.empty((n, k)) for k in widths)]
        self.logits = None if head and head.on_features else np.empty((n, p.num_classes))
        if head is None:
            return
        dh = np.empty(n * max(widths))
        self.dhs = [dh[:n * k].reshape(n, k) for k in widths]
        self.gs = [p._zeros_like() for _ in head.bounds]

    def forward(self) -> tuple[np.ndarray, np.ndarray | None]:
        p, hs = self.p, self.hs
        for w, b, h_in, h in zip(p.weights, p.biases, hs, hs[1:]):
            np.tanh(np.add(np.matmul(h_in, w, out=h), b, out=h), out=h)
        if self.logits is not None:
            np.add(np.matmul(hs[-1], p.w_out, out=self.logits), p.b_out, out=self.logits)
        return hs[-1], self.logits

    def __call__(self):
        """The head's loss at p, with p's gradient for each client in gs.
        Every op but the gradient sums is row-wise, so it runs once over
        all clients' rows.  Each activation, once used, is overwritten by
        tanh' and then by the delta dz."""
        p, hs, head = self.p, self.hs, self.head
        self.forward()
        if head.on_features:
            loss, dh = head(hs[-1])
        else:
            loss, d = head(self.logits)
            for g, (a, b) in zip(self.gs, head.bounds):
                np.matmul(hs[-1][a:b].T, d[a:b], out=g.w_out)
                np.add.reduce(d[a:b], axis=0, out=g.b_out)
            dh = np.matmul(d, p.w_out.T, out=self.dhs[-1])
        for layer in reversed(range(len(p.weights))):
            h = hs[layer + 1]   # h becomes tanh' = 1 - h^2, then dz = dh * tanh'
            dz = np.multiply(np.subtract(1.0, np.square(h, out=h), out=h), dh, out=h)
            for g, (a, b) in zip(self.gs, head.bounds):
                np.matmul(hs[layer][a:b].T, dz[a:b], out=g.weights[layer])
                np.add.reduce(dz[a:b], axis=0, out=g.biases[layer])
            if layer:   # the input layer needs no delta below it
                dh = np.matmul(dz, p.weights[layer].T, out=self.dhs[layer - 1])
        return loss


def net_eval(p: NetParams, x) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic forward pass; returns (features, logits)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != p.in_dim:
        raise ValueError(f"input width {x.shape[1]} does not match network input {p.in_dim}")
    return _Pass(p, x).forward()


def hard_grads(p: NetParams, ds: ToyDataset) -> tuple[float, NetParams]:
    """Full-batch cross-entropy loss and parameter gradients."""
    run = _Pass(p, ds.inputs, _Hard(ds.labels, p.num_classes, [len(ds)]))
    return run()[0], run.gs[0]


def kd_grads(p: NetParams, teacher_logits: np.ndarray, ds: ToyDataset,
             temperature: float) -> tuple[float, NetParams]:
    run = _Pass(p, ds.inputs, _KD((len(ds), p.num_classes), teacher_logits, ds.labels,
                                  temperature))
    return run(), run.gs[0]


def simkd_grads(p: NetParams, proj: Projector, teacher_features: np.ndarray,
                ds: ToyDataset) -> tuple[float, NetParams, np.ndarray]:
    """Loss plus encoder gradients (classifier gradient zero) and projector
    grad."""
    head = _Match(teacher_features, proj, (len(ds), p.feature_dim))
    run = _Pass(p, ds.inputs, head)
    return run(), run.gs[0], head.grads[0]


def _check_run(lr: float, epochs: int = 1, least: int = 1) -> None:
    """Refuse, by name, an epoch count that is not an integer (a bool is
    not one) or is below least, and a step size that is not a finite
    number >= 0."""
    check_count("epochs", epochs, least)
    if not (is_real(lr) and 0.0 <= lr < math.inf):
        raise ValueError(f"lr must be finite and >= 0, got {lr!r}")


def _descend(what: str, params: list, step, epochs: int, lr: float) -> None:
    """Full-batch gradient descent of the arrays params, in place: each
    epoch step() gives the loss and one gradient g per array at their
    current values, and each array steps by -lr * g, written over g.  A
    non-finite loss raises DivergenceError naming the epoch; so do arrays
    that are not finite after the last epoch, which the loss misses when
    tanh saturates an infinite weight."""
    for epoch in range(epochs):
        loss, grads = step()
        if not math.isfinite(loss):
            raise DivergenceError(f"{what} diverged at epoch {epoch}: loss={loss} (lr={lr})")
        for a, g in zip(params, grads):
            a -= np.multiply(g, lr, out=g)
    if not all(np.isfinite(a).all() for a in params):
        raise DivergenceError(f"{what} diverged at epoch {epochs - 1}: the trained "
                              f"parameters are not finite (lr={lr})")


# ---------------------------------------------------------------------------
# federated teacher training


def _fedsgd(parts, net):
    """(p, step) of FedSGD over the partitions that hold samples (warning
    about the others), refusing by index one that does not fit p =
    net(in_dim, num_classes) of the first: step() gives _descend their
    size-weighted mean loss and flat gradient at p, those of their union.
    The clients share one pass over their concatenated rows."""
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
    sizes = [len(part) for _, part in used]
    run = _Pass(p, np.concatenate([part.inputs for _, part in used]),
                _Hard(np.concatenate([part.labels for _, part in used]), p.num_classes, sizes))
    weights = [size / sum(sizes) for size in sizes]

    def step() -> tuple[float, list]:
        loss = 0.0
        for w, client_loss, g in zip(weights, run(), run.gs):
            loss += w * client_loss
            g.flat *= w
            if g is not run.gs[0]:
                run.gs[0].flat += g.flat
        return loss, [run.gs[0].flat]

    return p, step


def fedsgd_round(global_params: NetParams, parts, lr: float) -> NetParams:
    """One synchronous round: every client computes a full-batch
    cross-entropy gradient on its entire partition, gradients are averaged
    weighted by partition size, and one step is applied to a copy of the
    global parameters.  (Distillation needs the teacher that this round
    trains.)
    """
    _check_run(lr)
    p, step = _fedsgd(parts, lambda *dims: global_params.copy())
    _descend("fedsgd_round", [p.flat], step, 1, lr)
    return p


def train_teacher(parts, epochs: int, lr: float, arch: NetArch = NetArch((32,), 16),
                  seed: int = 0) -> NetParams:
    """Federated full-batch training of the shared teacher network, sized
    to the first partition that holds samples."""
    _check_run(lr, epochs)
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
    _check_run(lr, epochs, least=0)
    rng = np.random.Generator(np.random.PCG64(seed))
    student = init_net(student_arch, data.inputs.shape[1], data.num_classes, rng)
    t_features, t_logits = net_eval(teacher, data.inputs)
    if loss.variant == "kd":
        proj, params = None, [student.flat]
        head = _KD((len(data), student.num_classes), t_logits, data.labels, loss.temperature)
    else:
        proj = Projector(rng.normal(size=(student_arch.feature_dim, teacher.feature_dim))
                         / np.sqrt(student_arch.feature_dim))
        params = [student.flat, proj.w]
        head = _Match(t_features, proj, (len(data), student.feature_dim))
    run = _Pass(student, data.inputs, head)
    _descend(f"{loss.variant} distillation", params,
             lambda: (run(), [run.gs[0].flat, *head.grads]), epochs, lr)
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
