"""The reduced-scale (64x64) LithoGAN that ``serve`` and ``ilt`` run on.

Trained at set-up from the workload seed, long enough that the output
guards accept its clips (so ``serve`` measures the network, not the
simulator fallback) and no longer.
"""

from __future__ import annotations

import dataclasses
import time

from repro import api
from repro.config import N10, reduced

from harness import digest_arrays

#: minted clips; a quarter of them are held out and become served masks
CLIPS = 64
#: two set-ups per run: the median is reported, the weights must agree
SETUP_REPEATS = 2


def _train(ctx):
    config = reduced(N10, num_clips=CLIPS, epochs=3, seed=ctx.seed)
    config = config.replace(
        training=dataclasses.replace(
            config.training, aux_epochs=2, batch_size=8, learning_rate=2e-3),
        parallel=ctx.kernel_cache(),
    )
    ctx.build_kernels(config)
    dataset = api.mint(config, workers=1).dataset
    trained = api.train(config, dataset)
    return config, trained


def _weights_digest(model) -> str:
    arrays = []
    for net in (model.cgan.generator, model.center_cnn):
        state = net.state_dict()
        arrays.extend(state[key] for key in sorted(state))
    return digest_arrays(arrays)


def set_up(ctx):
    """Returns ``(config, trained, setup_body_s)``; records a check that
    the repeated set-ups trained bit-identical weights."""
    setup_s, digests = [], []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        config, trained = _train(ctx)
        setup_s.append(time.perf_counter() - started)
        digests.append(_weights_digest(trained.model))
    ctx.check("setup_deterministic", len(set(digests)) == 1, digests[0])
    return config, trained, setup_s
