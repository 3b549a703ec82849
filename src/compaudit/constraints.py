"""Compression constraints attached to dense models.

A constraint records the structure a compression operation imposed on the
weight matrices of a model, one class per family: ``Pruned`` holds a
keep-mask, ``Clustered`` a shared-centroid assignment and ``Quantized`` a
symmetric int8 grid. Each class also holds what training, fine-tuning and
checkpoints need of its family, so trainers keep the active constraint
satisfied after every parameter update and a compressed model never drifts
off its constrained manifold.

Biases are never constrained.
"""

import base64
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

# Symmetric signed int8 grid: integer levels in [-127, 127].
QUANT_LEVELS = 127


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to the nearest integer with halves away from zero.

    np.round rounds halves to even, which is the wrong convention here.
    """
    x = np.asarray(x)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def quant_scale(w: np.ndarray) -> float:
    """Symmetric per-tensor scale max|w| / 127; an all-zero tensor gets 1."""
    m = float(np.max(np.abs(w))) if w.size else 0.0
    return m / QUANT_LEVELS if m > 0.0 else 1.0


def fake_quantize(w: np.ndarray, scale: float | None = None) -> tuple[np.ndarray, float]:
    """Snap a tensor onto the int8 grid, returning (q * s, s); a zero is +0.0."""
    s = quant_scale(w) if scale is None else float(scale)
    q = np.clip(round_half_away(w / s), -QUANT_LEVELS, QUANT_LEVELS)
    return q * s + 0.0, s


def _b64(a: np.ndarray) -> str:
    """Base64 text of an array's bytes."""
    return base64.b64encode(a.tobytes()).decode("ascii")


def _b64_bytes(text, nbytes: int, name: str) -> bytes:
    """The bytes of canonical base64 ``text``, which must number ``nbytes``.

    Raises ValueError when ``text`` is not base64 as ``_b64`` writes it
    (padded, no whitespace, zero trailing bits) or holds another count.
    """
    if not isinstance(text, str):
        raise TypeError(f"{name} is not base64 text")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or text that is not ASCII
        raise ValueError(f"{name} is not base64 text") from None
    if base64.b64encode(raw).decode("ascii") != text:
        raise ValueError(f"{name} is not canonical base64")
    if len(raw) != nbytes:
        raise ValueError(f"{name} holds {len(raw)} bytes, its layer needs {nbytes}")
    return raw


def _assignment_dtype(n_centroids: int) -> np.dtype:
    """The narrowest little-endian unsigned integer that holds ``n_centroids - 1``."""
    return np.dtype(np.min_scalar_type(max(n_centroids - 1, 0))).newbyteorder("<")


@dataclass
class Unconstrained:
    """The parameterization of a plain model, and the base of the three families.

    A compression family is one subclass: its fields are the structure the
    compression imposed, ``kind`` names it in a checkpoint and ``family``
    in a model's order key. ``check`` tests weights exactly, with no
    tolerance; ``fields`` gives the checkpoint fields as JSON values or
    numpy arrays, as ``checkpoint.write_json`` takes them, and
    ``from_fields(d, shapes)`` reads them back, given the shapes of the
    weight matrices they constrain, and raises ValueError or TypeError on a
    field that does not fit them. Training runs on the family's
    parameters: ``parameters`` makes them from the model's weights,
    ``weights`` maps them back to weight matrices for each forward pass,
    ``gradients`` maps weight gradients onto them, and ``project`` restores
    the constraint after each update. Here the parameters are the weights
    themselves.
    """

    def refreshed(self, weights: list[np.ndarray]):
        """Fine-tuned ``weights`` as they are stored, and the constraint they satisfy."""
        return weights, self

    def parameters(self, weights: list[np.ndarray]) -> list[np.ndarray]:
        params = [w.copy() for w in weights]
        self.project(params)
        return params

    def weights(self, params: list[np.ndarray], shapes) -> list[np.ndarray]:
        return params

    def gradients(self, dWs: list[np.ndarray]) -> list[np.ndarray]:
        return dWs

    def project(self, params: list[np.ndarray]):
        pass


@dataclass
class Pruned(Unconstrained):
    """Boolean keep-masks shaped like each weight matrix, True at kept positions.

    Masked positions are set back to exactly zero after every update, so
    their gradients need no mask: their updates never survive the step.
    """

    prune_masks: list[np.ndarray]
    kind = "prune_mask"
    family = "prune"

    def check(self, weights):
        return all(mask.shape == w.shape and not np.any(w[~mask] != 0.0)
                   for w, mask in zip(weights, self.prune_masks, strict=True))

    def fields(self):
        """Each mask as base64 of ``np.packbits`` over its row-major bits."""
        return {"masks": [_b64(np.packbits(m)) for m in self.prune_masks]}

    @classmethod
    def from_fields(cls, d, shapes):
        masks = []
        for i, (text, shape) in enumerate(zip(d["masks"], shapes, strict=True)):
            n = math.prod(shape)
            # unpackbits(count=n) would zero-pad short input, so the length is checked first
            bits = np.unpackbits(np.frombuffer(_b64_bytes(text, -(-n // 8), f"mask {i}"), np.uint8))
            if bits[n:].any():
                raise ValueError(f"mask {i} has non-zero pad bits")
            masks.append(bits[:n].astype(bool).reshape(shape))
        return cls(masks)

    def project(self, params):
        for w, m in zip(params, self.prune_masks):
            w[~m] = 0.0


@dataclass
class Clustered(Unconstrained):
    """Shared centroid values per weight matrix.

    ``cluster_assignments`` holds flat int arrays, one entry per weight,
    and ``cluster_centroids`` the shared values per matrix. Training moves
    the centroids: a centroid's gradient is the sum of its members'.
    """

    cluster_assignments: list[np.ndarray]
    cluster_centroids: list[np.ndarray]
    kind = "cluster_assignment"
    family = "cluster"

    def check(self, weights):
        return all(assign.shape[0] == w.size and not np.any(assign >= cent.shape[0])
                   and np.array_equal(cent[assign].reshape(w.shape), w)
                   for w, assign, cent in zip(
                       weights, self.cluster_assignments, self.cluster_centroids, strict=True))

    def fields(self):
        """Each layer's assignments as base64 of its narrowest little-endian unsigned ints."""
        return {"assignments": [_b64(a.astype(_assignment_dtype(c.shape[0])))
                                for a, c in zip(self.cluster_assignments, self.cluster_centroids)],
                "centroids": self.cluster_centroids}

    @classmethod
    def from_fields(cls, d, shapes):
        centroids = [np.asarray(c, dtype=float) for c in d["centroids"]]
        assignments = []
        for i, (text, cent, shape) in enumerate(
                zip(d["assignments"], centroids, shapes, strict=True)):
            dtype, n = _assignment_dtype(cent.shape[0]), math.prod(shape)
            raw = _b64_bytes(text, n * dtype.itemsize, f"assignments {i}")
            assign = np.frombuffer(raw, dtype).astype(np.int64)
            if n and assign.max() >= cent.shape[0]:
                raise ValueError(f"assignments {i} name centroid {assign.max()} "
                                 f"of {cent.shape[0]}")
            assignments.append(assign)
        return cls(assignments, centroids)

    def refreshed(self, weights):
        """Centroid values re-read from clustered weights after training.

        Member weights of one cluster stay equal throughout constrained
        training, so any member carries the centroid value; weights whose
        members differ fail the ``check`` that follows a fine-tune. Empty
        clusters keep their previous centroid.
        """
        out = [c.astype(float) for c in self.cluster_centroids]
        for w, assign, cent in zip(weights, self.cluster_assignments, out, strict=True):
            cent[assign] = w.ravel()
        return weights, Clustered(self.cluster_assignments, out)

    def parameters(self, weights):
        return [c.astype(float) for c in self.cluster_centroids]

    def weights(self, params, shapes):
        return [c[a].reshape(s) for c, a, s in zip(params, self.cluster_assignments, shapes)]

    def gradients(self, dWs):
        return [np.bincount(a, weights=dW.ravel(), minlength=c.shape[0])
                for dW, a, c in zip(dWs, self.cluster_assignments, self.cluster_centroids)]


@dataclass
class Quantized(Unconstrained):
    """One positive int8 scale per weight matrix.

    Training keeps float latents and snaps them onto the grid of their own
    current scale for every forward pass; gradients flow straight through.
    Training starts them from ``latents``, the float weights a model was
    just quantized from, or else from the grid values, as for a loaded
    checkpoint. Checkpoints and equality ignore ``latents``.
    """

    quant_scales: list[float]
    latents: list[np.ndarray] | None = field(default=None, compare=False, repr=False)
    kind = "fake_quant"
    family = "quant"

    def __post_init__(self):
        if any(s <= 0 for s in self.quant_scales):
            raise InputError("quant scales must be positive")

    def check(self, weights):
        return all(np.array_equal(fake_quantize(w, s)[0], w)
                   for w, s in zip(weights, self.quant_scales, strict=True))

    def fields(self):
        return {"scales": [float(s) for s in self.quant_scales]}

    @classmethod
    def from_fields(cls, d, shapes):
        return cls([float(s) for s in d["scales"]])

    def refreshed(self, weights):
        """Trained weights snapped again onto their own grid, and that grid.

        Training's scales s = fl(M / 127) give fl(fl(127 s) / 127) = s, so
        the snap changes no bit there; a grid of another scale may not be
        its own (about one scale in 128), and the snap makes it so.
        """
        snapped = [fake_quantize(w) for w in weights]
        return [w for w, _ in snapped], Quantized([s for _, s in snapped])

    def parameters(self, weights):
        return super().parameters(weights if self.latents is None else self.latents)

    def weights(self, params, shapes):
        return [fake_quantize(w)[0] for w in params]


# checkpoint kind -> family class
KINDS = {cls.kind: cls for cls in (Pruned, Clustered, Quantized)}
