"""Model zoo with declared latent injection sites.

Site ids index latent representations: 0 is the network input, higher ids
sit at declared points between layer groups, always strictly before the
final classifier layer. Forward passes capture latent values and register
the sites on the tape so one backward sweep yields all site gradients.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .autodiff import (_FORWARD, ShapeMismatch, Tape, UnknownSite, backward,
                       count_forward)

CKPT_MAGIC = b"SLATCKPT"
CKPT_VERSION = 1

PARAMETRIC = ("dense", "conv2d")
FORWARD_ROWS = 128     # a multiple of 16, so slices keep the GEMM row blocking

# The one site table: zoo model -> {site id: position of the layer whose
# input the site perturbs}. The builders and config read it.
ZOO_SITES = {"linear": {0: 0}, "toy_mlp": {0: 0, 1: 2},
             "small_cnn": {0: 0, 1: 3, 2: 6}}


class ShapeTooSmall(Exception):
    pass


class CheckpointError(Exception):
    pass


class Layer:
    """One op application; dense/conv layers own their parameter arrays."""

    def __init__(self, kind, **arrays):
        self.kind = kind
        self.arrays = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}


class Model:
    def __init__(self, layers, sites, input_shape=(), n_classes=2):
        self.layers = list(layers)
        self.site_positions = {int(k): int(p) for k, p in sites.items()}
        for k, p in self.site_positions.items():
            if not 0 <= p <= len(self.layers) - 1:
                raise ValueError(
                    f"site {k} at position {p}: injection must happen strictly "
                    f"before the final layer")
        self.input_shape = tuple(input_shape)
        self.n_classes = int(n_classes)

    @property
    def K(self):
        """The site ids, ascending."""
        return sorted(self.site_positions)

    def parameters(self):
        """Named parameter arrays, in deterministic order."""
        out = {}
        for i, layer in enumerate(self.layers):
            for pname, arr in layer.arrays.items():
                out[f"layer{i}.{pname}"] = arr
        return out

    def copy(self):
        layers = [Layer(l.kind, **{n: a.copy() for n, a in l.arrays.items()})
                  for l in self.layers]
        return Model(layers, self.site_positions, self.input_shape, self.n_classes)


def _check_batch(model, x):
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1:] != model.input_shape:
        raise ShapeMismatch("forward", ("B",) + model.input_shape, x.shape)
    return x


def _apply_layer(tape, layer, cur, layer_idx):
    kind = layer.kind
    if kind in PARAMETRIC:
        if tape.stem is None:
            tape.stem = cur.idx
        nodes = []
        for pname, arr in layer.arrays.items():
            pn = tape.leaf(arr)
            tape.params[f"layer{layer_idx}.{pname}"] = pn
            nodes.append(pn)
        return tape.record(kind, [cur] + nodes)
    return tape.record(kind, [cur])


def forward_with_latents(model, x, deltas=None):
    """Run the model, returning (logits node, latent record, tape).

    `deltas` maps site ids to perturbations added to the latent at that
    site before propagation continues; omitted sites pass through clean.
    """
    x = _check_batch(model, x)
    deltas = deltas or {}
    for k in deltas:
        if k not in model.site_positions:
            raise UnknownSite(k)

    pos_to_site = {p: k for k, p in model.site_positions.items()}
    tape = Tape()
    cur = tape.leaf(x)
    tape.input = cur
    latents = {}
    for p in range(len(model.layers) + 1):
        k = pos_to_site.get(p)
        if k is not None:
            if k in deltas:
                d = np.asarray(deltas[k], dtype=np.float64)
                if d.shape != cur.value.shape:
                    raise ShapeMismatch(f"delta at site {k}", cur.value.shape, d.shape)
                cur = tape.record("add", [cur, tape.leaf(d)])
            tape.register_site(k, cur)
            latents[k] = cur.value
        if p < len(model.layers):
            cur = _apply_layer(tape, model.layers[p], cur, p)
    count_forward()
    return cur, latents, tape


def loss_grads(model, x, y, deltas=None, reduction="sum", wrt="all"):
    """Cross-entropy of one (optionally injected) forward pass, swept once.

    Returns (loss node, tape). `wrt` names the gradients that land in
    tape.grads, each bit-identical to the full sweep's:
    - "all": the input, every site and every parameter;
    - "inputs": the input and every site, no parameter (attacks, latent
      deltas, feature gradients);
    - "params": every parameter and the sites past the first parametric
      layer, nothing on its input side (the update).
    """
    logits, _, tape = forward_with_latents(model, x, deltas)
    loss = tape.record("loss_softmax_xent", [logits], labels=np.asarray(y),
                       reduction=reduction)
    if wrt == "all":
        skip = ()
    elif wrt == "inputs":
        skip = {node.idx for node in tape.params.values()}
    elif wrt == "params":
        skip = (tape.stem,)
    else:
        raise ValueError(f"wrt must be 'all', 'inputs' or 'params', got {wrt!r}")
    backward(tape, loss, skip=skip)
    return loss, tape


def forward_logits(model, x):
    """Logits of one clean forward pass, for callers that read values only:
    FORWARD_ROWS-row slices run the layers' forward rules with no tape, so
    each intermediate is freed once read. Counts as one forward pass."""
    x = _check_batch(model, x)
    out = []
    for i in range(0, max(len(x), 1), FORWARD_ROWS):
        cur = x[i:i + FORWARD_ROWS]
        for layer in model.layers:
            cur = _FORWARD[layer.kind]([cur, *layer.arrays.values()], {})[0]
        out.append(cur)
    count_forward()
    return np.concatenate(out)


def truncated_forward(model, site_id, h):
    """Forward from a site value treated as a leaf input of the tail network."""
    if site_id not in model.site_positions:
        raise UnknownSite(site_id)
    tape = Tape()
    cur = tape.leaf(h)
    tape.input = cur
    for p in range(model.site_positions[site_id], len(model.layers)):
        cur = _apply_layer(tape, model.layers[p], cur, p)
    count_forward()
    return cur, tape


def _glorot(rng, fan_in, fan_out, shape):
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=shape)


def zoo_sites(zoo, sites=None):
    """{site id: layer position} for `sites` of a zoo model (None: all)."""
    table = ZOO_SITES[zoo]
    for k in sites or ():
        if k not in table:
            raise UnknownSite(k)
    return {k: table[k] for k in (table if sites is None else sites)}


def site_steps(eta, sites):
    """{site: step}: `eta` if it is that mapping, else `eta` at every site."""
    if isinstance(eta, dict):
        return {int(k): float(v) for k, v in eta.items()}
    return dict.fromkeys(sites, float(eta))


def build_linear(d_in, classes, seed=0):
    """Single dense layer; the oracle model for attack-optimality tests."""
    if d_in < 1 or classes < 2:
        raise ValueError("need d_in >= 1 and classes >= 2")
    rng = np.random.default_rng(seed)
    layer = Layer("dense", w=_glorot(rng, d_in, classes, (d_in, classes)),
                  b=np.zeros(classes))
    return Model([layer], zoo_sites("linear"), input_shape=(d_in,), n_classes=classes)


def build_toy_mlp(hidden=16, activation="relu", seed=0, sites=None):
    """2-d input, one hidden layer, 2 classes; sites: a subset of {0, 1} (None: all)."""
    if hidden < 1:
        raise ValueError("hidden must be >= 1")
    rng = np.random.default_rng(seed)
    layers = [
        Layer("dense", w=_glorot(rng, 2, hidden, (2, hidden)), b=np.zeros(hidden)),
        Layer(activation),
        Layer("dense", w=_glorot(rng, hidden, 2, (hidden, 2)), b=np.zeros(2)),
    ]
    return Model(layers, zoo_sites("toy_mlp", sites), input_shape=(2,), n_classes=2)


def small_cnn_shape_problem(in_shape):
    """Why the small CNN cannot take inputs of this shape, or None."""
    if len(in_shape) != 3:
        return f"need a (C, H, W) shape, got {in_shape}"
    if in_shape[1] < 8 or in_shape[2] < 8:
        return f"need H,W >= 8, got {in_shape}"
    if in_shape[1] % 4 or in_shape[2] % 4:
        return f"two 2x2 pools need H,W divisible by 4, got {in_shape}"
    return None


def build_small_cnn(in_shape=(1, 28, 28), classes=10, activation="relu",
                    seed=0, sites=None):
    """conv16-pool / conv32-pool / dense; sites at input and after each block.

    `sites` selects a subset of {0: input, 1: after block 1, 2: after block 2}
    (None: all), which is how the deeper-injection ablation variants are built.
    """
    problem = small_cnn_shape_problem(in_shape)
    if problem:
        raise ShapeTooSmall(problem)
    c, h, w = in_shape
    rng = np.random.default_rng(seed)
    flat = 32 * (h // 4) * (w // 4)
    layers = [
        Layer("conv2d", w=_glorot(rng, c * 9, 16 * 9, (16, c, 3, 3)), b=np.zeros(16)),
        Layer(activation),
        Layer("maxpool2x2"),
        Layer("conv2d", w=_glorot(rng, 16 * 9, 32 * 9, (32, 16, 3, 3)), b=np.zeros(32)),
        Layer(activation),
        Layer("maxpool2x2"),
        Layer("flatten"),
        Layer("dense", w=_glorot(rng, flat, classes, (flat, classes)),
              b=np.zeros(classes)),
    ]
    return Model(layers, zoo_sites("small_cnn", sites), input_shape=in_shape,
                 n_classes=classes)


def save_checkpoint(model, path):
    """Versioned binary dump of named parameters, little-endian throughout."""
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", CKPT_VERSION))
        for name, arr in model.parameters().items():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint back into {name: ndarray}."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != CKPT_MAGIC:
        raise CheckpointError(f"bad magic {blob[:8]!r}")
    if len(blob) < 12:
        raise CheckpointError(f"header short: {len(blob)} of 12 bytes")
    (version,) = struct.unpack_from("<I", blob, 8)
    if version != CKPT_VERSION:
        raise CheckpointError(f"unsupported version {version}")
    out = {}
    off = 12
    try:
        while off < len(blob):
            (nlen,) = struct.unpack_from("<I", blob, off)
            off += 4
            name = blob[off:off + nlen].decode("utf-8")
            off += nlen
            (rank,) = struct.unpack_from("<I", blob, off)
            off += 4
            dims = struct.unpack_from(f"<{rank}Q", blob, off)
            off += 8 * rank
            count = math.prod(dims)
            if 8 * count > len(blob) - off:
                raise CheckpointError(f"truncated checkpoint: {name} needs "
                                      f"{8 * count} bytes, {len(blob) - off} left")
            arr = np.frombuffer(blob, dtype="<f8", count=count, offset=off)
            off += 8 * count
            out[name] = arr.reshape(dims).astype(np.float64)
    except (struct.error, ValueError) as exc:
        raise CheckpointError(f"truncated checkpoint: {exc}") from exc
    if off != len(blob):
        raise CheckpointError("trailing bytes after last parameter record")
    return out


def load_into(model, state):
    params = model.parameters()
    if set(state) != set(params):
        raise CheckpointError(
            f"parameter names do not match: {sorted(set(state) ^ set(params))}")
    for name, arr in state.items():
        if arr.shape != params[name].shape:
            raise CheckpointError(f"{name}: shape {arr.shape} != {params[name].shape}")
        np.copyto(params[name], arr)
    return model
