"""The four benchmark workloads and the closed loop that drives them.

Each workload builds its inputs from the workload seed in ``setup`` (the
library only ever receives the generated arrays), then ``run`` issues one
operation at a time until the session's time is up: a closed loop with one
client, where each operation starts when the previous one returns.

An operation is a training step (train-multiblock, retrain-toy), an
inference batch (infer-bigblock) or a load -> convert -> save round trip
(convert-alexnet). Correctness checks run between operations, outside the
timed region, and count as attempted operations of their own.
"""

import contextlib
import hashlib
import sys
import traceback
from time import perf_counter

import numpy as np

from circconv import analysis, model_io, nn
from circconv.circulant import CirculantBaseTensor, CompressionScheme, PartitionConfig
from circconv.convops import ConvGeometry
from circconv.errors import ModelFormatError

import checks

PAD1 = ConvGeometry(pad=(1, 1))

# workload-specific names of the generic metrics:
# alias -> (end-to-end metric, scale, unit)
TRAIN_ALIASES = {
    "train_samples_per_s": ("samples_per_s", 1.0, "1/s"),
    "train_step_p50_ms": ("op_p50_ms", 1.0, "ms"),
    "train_step_p90_ms": ("op_p90_ms", 1.0, "ms"),
}


class Session:
    """Clock, counters and samples of one run.

    With a tracer, every other operation (or training episode) is recorded;
    the untraced ones are the baseline for the tracing overhead.
    """

    def __init__(self, seconds, tracer=None):
        self.tracer = tracer
        self.op_ms, self.traced_op_ms = [], []
        self.samples = 0  # processed by untraced operations
        self.attempted = self.failed = 0
        self.final_loss = None
        self.worst_rel_diff = 0.0
        self.twin = []  # one {pass: (circ s, dense s)} per layer check
        self.counters = {}
        self._deadline = perf_counter() + seconds

    def running(self, done, minimum=1):
        """Whether to start another operation or episode after ``done`` of them.

        At least ``minimum`` always run, twice that with a tracer so that
        both traced and untraced ones exist; then until time is up.
        """
        return done < minimum * (2 if self.tracer else 1) or perf_counter() < self._deadline

    def traced(self, index):
        return self.tracer is not None and index % 2 == 1

    def recording(self, traced, op_id):
        if traced:
            return self.tracer.recording(op_id)
        return contextlib.nullcontext()

    def record_op(self, ms, samples, ok, traced):
        self.attempted += 1
        if not ok:
            self.failed += 1
            return
        if traced:
            self.traced_op_ms.append(ms)
        else:
            self.op_ms.append(ms)
            self.samples += samples

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)

    def op_failed(self, what):
        """Count an operation that raised; the traceback goes to stderr."""
        self.attempted += 1
        self.failed += 1
        print(f"perfbench: {what} raised", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)

    def record_final_loss(self, loss):
        """The first completed episode sets final_loss; later ones must match."""
        if self.final_loss is None:
            self.final_loss = loss
            self.check(np.isfinite(loss), f"final loss {loss} is not finite")
        else:
            self.check(loss == self.final_loss, f"final loss {loss} != {self.final_loss}")

    def check_layers(self, net, x, rng):
        worst, finite, timings = checks.circ_layers(net, x, rng)
        self.worst_rel_diff = max(self.worst_rel_diff, worst)
        self.twin.append(timings)
        self.check(
            finite and worst <= checks.TOLERANCE,
            f"fast path vs dense oracle: rel diff {worst:.3e} > {checks.TOLERANCE:.0e}",
        )


def fingerprint(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def he_normal(rng, shape, fan_in):
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def circ_layer(rng, c_in, c_out, n, kernel=(3, 3), geometry=PAD1):
    cfg = PartitionConfig(n=n, c_in=c_in, c_out=c_out)
    base = he_normal(rng, (*kernel, cfg.padded_in, cfg.s), kernel[0] * kernel[1] * c_in)
    return nn.CircConvLayer(CirculantBaseTensor(base, cfg), geometry=geometry)


def dense_layer(rng, c_in, c_out, kernel=(3, 3), geometry=PAD1):
    w = he_normal(rng, (*kernel, c_in, c_out), kernel[0] * kernel[1] * c_in)
    return nn.DenseConvLayer(w, bias=rng.normal(0.0, 0.1, c_out), geometry=geometry)


def fc_layer(rng, c_in, c_out):
    return nn.FullyConnected(rng.normal(0.0, np.sqrt(1.0 / c_in), (c_in, c_out)))


def planted_task(rng, n, spatial, channels, hidden, classes, label_noise):
    """Gaussian inputs labeled by a planted dense conv-ReLU-GAP-FC teacher.

    Teacher logits are centered per class before the argmax so that every
    class occurs; a fraction label_noise of labels is resampled uniformly.
    """
    x = rng.standard_normal((n, *spatial, channels))
    teacher = nn.Network(
        [dense_layer(rng, channels, hidden), nn.ReLU(), nn.GlobalAveragePool(),
         fc_layer(rng, hidden, classes)]
    )
    logits, _ = nn.forward_pass(teacher, x)
    labels = (logits - logits.mean(axis=0)).argmax(axis=1)
    flip = rng.random(n) < label_noise
    labels[flip] = rng.integers(0, classes, size=int(flip.sum()))
    return x, labels


def layer_specs(net, spatial):
    """analysis.LayerSpec list of a network for an input of the given spatial size."""
    specs = []
    for i, layer in enumerate(net.layers):
        if isinstance(layer, (nn.CircConvLayer, nn.DenseConvLayer)):
            circ = isinstance(layer, nn.CircConvLayer)
            kernel = layer.base.kernel_size if circ else layer.w.shape[:2]
            c_in, c_out = (
                (layer.base.config.c_in, layer.base.config.c_out) if circ
                else layer.w.shape[2:]
            )
            out = layer.geometry.out_size(spatial, kernel)
            specs.append(analysis.LayerSpec(
                kind="circconv" if circ else "conv", name=f"layer{i}",
                kernel=tuple(kernel), c_in=c_in, c_out=c_out, in_spatial=spatial,
                out_spatial=out, n=layer.base.config.n if circ else 1,
            ))
            spatial = out
        elif isinstance(layer, nn.FullyConnected):
            specs.append(analysis.LayerSpec(
                kind="fc", name=f"layer{i}",
                c_in=layer.matrix.shape[0], c_out=layer.matrix.shape[1],
            ))
    return specs


class TrainMultiblock:
    """Training from random init on a two-block circulant stack (N=8, R=S=8)."""

    name = "train-multiblock"
    aliases = TRAIN_ALIASES
    samples = 64
    batch = 16
    steps = 8  # per episode; final_loss is taken after exactly this many
    sgd = nn.SgdConfig(lr=0.05, momentum=0.9, weight_decay=1e-4, batch_size=16)

    def setup(self, seed, workdir):
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        self.x, self.labels = planted_task(rng, self.samples, (16, 16), 16, 16, 10, 0.0)
        order = np.random.default_rng([seed, 2])
        self.batches = [
            order.choice(self.samples, self.batch, replace=False) for _ in range(self.steps)
        ]
        self.flop_specs = layer_specs(self.new_net(), (16, 16))
        return fingerprint(self.x, self.labels, *self.batches)

    def new_net(self):
        rng = np.random.default_rng([self.seed, 1])
        return nn.Network([
            circ_layer(rng, 16, 64, 8), nn.ReLU(),
            circ_layer(rng, 64, 64, 8), nn.ReLU(),
            nn.GlobalAveragePool(), fc_layer(rng, 64, 10),
        ])

    def _step(self, net, state, idx):
        xb, yb = self.x[idx], self.labels[idx]
        logits, cache = nn.forward_pass(net, xb)
        loss, _ = nn.softmax_cross_entropy(logits, yb)
        grads = nn.backward_pass(net, cache, yb)
        return loss, nn.sgd_step(net, grads, state, self.sgd)

    def run(self, session):
        gate_rng = np.random.default_rng([self.seed, 3])
        episode = 0
        while session.running(episode):
            traced = session.traced(episode)
            with session.recording(traced, episode):
                try:
                    net, state = self.new_net(), None
                    for idx in self.batches:
                        t0 = perf_counter()
                        loss, state = self._step(net, state, idx)
                        ms = (perf_counter() - t0) * 1e3
                        session.record_op(ms, self.batch, np.isfinite(loss), traced)
                    final_loss = nn.evaluate(net, self.x, self.labels)[0]
                except Exception:
                    session.op_failed(f"{self.name} episode {episode}")
                    final_loss = None
            if final_loss is not None:
                session.record_final_loss(final_loss)
                session.check_layers(net, self.x[episode % self.samples], gate_rng)
            episode += 1


class RetrainToy:
    """Convert-then-retrain at the toy task's scale (12x12x4 -> 8 -> 4 classes)."""

    name = "retrain-toy"
    aliases = TRAIN_ALIASES
    spec = nn.ToyTaskSpec()
    pretrain_steps = 60
    steps = 50  # retraining steps per episode; final_loss is taken after them
    sgd = nn.SgdConfig(lr=0.05, momentum=0.9, weight_decay=1e-4, batch_size=16)
    scheme = CompressionScheme((2,))

    def setup(self, seed, workdir):
        self.seed = seed
        s = self.spec
        rng = np.random.default_rng([seed, 0])
        self.data = planted_task(
            rng, s.n_samples, s.spatial, s.channels, s.hidden, s.classes, s.label_noise
        )
        init = np.random.default_rng([seed, 1])
        self.dense = nn.Network([
            dense_layer(init, s.channels, s.hidden), nn.ReLU(),
            nn.GlobalAveragePool(), fc_layer(init, s.hidden, s.classes),
        ])
        nn.train(self.dense, self.data, self.sgd, self.pretrain_steps, seed=2 * seed)
        converted, _ = nn.convert_network(self.dense, self.scheme)
        self.flop_specs = layer_specs(converted, s.spatial)
        return fingerprint(*self.data, *checks.network_arrays(self.dense))

    def run(self, session):
        gate_rng = np.random.default_rng([self.seed, 3])
        x, labels = self.data
        episode = 0
        while session.running(episode):
            traced = session.traced(episode)
            clock = [0.0]

            def step_done(record):
                now = perf_counter()
                ok = np.isfinite(record["loss"])
                session.record_op((now - clock[0]) * 1e3, self.sgd.batch_size, ok, traced)
                clock[0] = now

            with session.recording(traced, episode):
                try:
                    net, _ = nn.convert_network(self.dense, self.scheme)
                    clock[0] = perf_counter()
                    nn.train(net, self.data, self.sgd, self.steps, seed=2 * self.seed + 1,
                             log=step_done)
                    final_loss = nn.evaluate(net, x, labels)[0]
                except Exception:
                    session.op_failed(f"{self.name} episode {episode}")
                    final_loss = None
            if final_loss is not None:
                session.record_final_loss(final_loss)
                session.check_layers(net, x[episode % len(x)], gate_rng)
            episode += 1


class InferBigblock:
    """Batched inference where the FFT path beats dense (N=64 and N=256 blocks)."""

    name = "infer-bigblock"
    aliases = {
        "infer_samples_per_s": ("samples_per_s", 1.0, "1/s"),
        "infer_batch_p50_ms": ("op_p50_ms", 1.0, "ms"),
        "infer_batch_p90_ms": ("op_p90_ms", 1.0, "ms"),
    }
    batch = 64
    batches = 4  # distinct input batches, cycled
    gate_every = 8

    def setup(self, seed, workdir):
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        net = nn.Network([
            circ_layer(rng, 64, 256, 64), nn.ReLU(),
            circ_layer(rng, 256, 256, 256), nn.ReLU(),
            nn.GlobalAveragePool(), fc_layer(rng, 256, 10),
        ])
        path = workdir / "infer-bigblock.ccm"
        model_io.save_model(net, path)
        self.net = model_io.load_model(path)
        data = np.random.default_rng([seed, 0])
        self.inputs = [data.standard_normal((self.batch, 8, 8, 64)) for _ in range(self.batches)]
        self.labels = [data.integers(0, 10, self.batch) for _ in range(self.batches)]
        self.flop_specs = layer_specs(self.net, (8, 8))
        return fingerprint(*self.inputs, *self.labels, *checks.network_arrays(self.net))

    def run(self, session):
        gate_rng = np.random.default_rng([self.seed, 3])
        first = [None] * self.batches
        op = 0
        while session.running(op, self.batches):
            traced = session.traced(op)
            xb = self.inputs[op % self.batches]
            with session.recording(traced, op):
                try:
                    t0 = perf_counter()
                    logits, _ = nn.forward_pass(self.net, xb)
                    ms = (perf_counter() - t0) * 1e3
                except Exception:
                    session.op_failed(f"{self.name} batch {op}")
                    logits = None
            if logits is not None:
                session.record_op(ms, self.batch, bool(np.all(np.isfinite(logits))), traced)
                k = op % self.batches
                if first[k] is None:
                    first[k] = logits
                else:
                    session.check(np.array_equal(logits, first[k]),
                                  f"batch {k} logits differ between passes")
            if op % self.gate_every == 0:
                session.check_layers(self.net, xb[(op // self.gate_every) % self.batch], gate_rng)
            op += 1
        if all(f is not None for f in first):
            session.record_final_loss(float(np.mean([
                nn.softmax_cross_entropy(f, y)[0] for f, y in zip(first, self.labels)
            ])))


def alexnet_dense(rng):
    """Dense network with the analysis.alexnet_v2() conv shapes and geometry,
    ReLU after each conv, and a GAP + FC(256 -> 10) head."""
    layers, c_last = [], None
    for spec in analysis.alexnet_v2():
        if spec.kind != "conv":
            continue
        (k, _), (w_in, _), (w_out, _) = spec.kernel, spec.in_spatial, spec.out_spatial
        if w_in == w_out:
            geometry = ConvGeometry(pad=((k - 1) // 2, (k - 1) // 2))
        else:
            geometry = ConvGeometry(stride=round((w_in - k) / (w_out - 1)))
        if geometry.out_size(spec.in_spatial, spec.kernel) != spec.out_spatial:
            raise ValueError(f"{spec.name}: no stride/pad gives {spec.out_spatial}")
        layers += [dense_layer(rng, spec.c_in, spec.c_out, spec.kernel, geometry), nn.ReLU()]
        c_last = spec.c_out
    return nn.Network(layers + [nn.GlobalAveragePool(), fc_layer(rng, c_last, 10)])


class ConvertAlexnet:
    """The ``circconv convert`` path: load_model -> convert_network -> save_model.

    Known defect: the strided ratio-1 stem becomes an N=1 circulant layer
    with stride 4, which save_model writes and load_model then rejects
    ("circconv layers require stride 1"). The check decodes the written file
    itself; each rejected reload is counted in model_io.load_model.rejected.
    """

    name = "convert-alexnet"
    aliases = {"convert_s": ("op_p50_ms", 1e-3, "s")}
    scheme = CompressionScheme.parse("1-2-2-2-2")

    def setup(self, seed, workdir):
        self.seed = seed
        net = alexnet_dense(np.random.default_rng([seed, 1]))
        self.dense_path = workdir / "alexnet-dense.ccm"
        self.out_path = workdir / "alexnet-circ.ccm"
        model_io.save_model(net, self.dense_path)
        arrays = checks.network_arrays(net)
        self.conv_sq_norm = sum(
            float(np.sum(layer.w ** 2)) for layer in net.layers
            if isinstance(layer, nn.DenseConvLayer)
        )
        self.flop_specs = layer_specs(nn.convert_network(net, self.scheme)[0], (224, 224))
        return fingerprint(*arrays)

    def _round_trip(self):
        net = model_io.load_model(self.dense_path)
        converted, sq_error = nn.convert_network(net, self.scheme)
        model_io.save_model(converted, self.out_path)
        return converted, sq_error

    def _check_output(self, session, converted, first_bytes):
        data = self.out_path.read_bytes()
        if first_bytes is None:
            _, arrays = checks.decode_model_file(data)
            ours = checks.network_arrays(converted)
            session.check(
                checks.same_bits(arrays, ours) and all(np.all(np.isfinite(a)) for a in ours),
                "written model file does not hold the converted parameters",
            )
        else:
            session.check(data == first_bytes, "round trips wrote different files")
        try:
            reloaded = model_io.load_model(self.out_path)
        except ModelFormatError as exc:
            if "require stride 1" not in str(exc):
                raise
            self.rejected += 1
        else:
            session.check(
                checks.same_bits(checks.network_arrays(reloaded), checks.network_arrays(converted)),
                "reloaded model differs from the converted one",
            )
        return data

    def run(self, session):
        self.rejected = 0
        first_bytes = None
        op = 0
        while session.running(op):
            traced = session.traced(op)
            with session.recording(traced, op):
                try:
                    t0 = perf_counter()
                    converted, sq_error = self._round_trip()
                    ms = (perf_counter() - t0) * 1e3
                except Exception:
                    session.op_failed(f"{self.name} round trip {op}")
                    converted = None
            if converted is not None:
                session.record_op(ms, 1, np.isfinite(sq_error), traced)
                session.record_final_loss(sq_error / self.conv_sq_norm)
                try:
                    first_bytes = self._check_output(session, converted, first_bytes)
                except Exception:
                    session.op_failed(f"{self.name} output check {op}")
            op += 1
        session.counters["model_io.load_model.rejected"] = self.rejected / max(op, 1)


WORKLOADS = {w.name: w for w in (TrainMultiblock, RetrainToy, InferBigblock, ConvertAlexnet)}
