"""The benchmark's workloads and the seeded inputs each one runs.

A workload fixes the serving configuration (sparsity method, compute
backend, batch width), the load shape (open loop at a constant rate, or a
closed loop of waiting clients) and the distribution of prompt and decode
lengths.  :func:`round_script` turns a workload and a seed into the exact
requests of one round, which every round of a run replays; the program
under test only ever sees those requests.

Lengths and inter-arrival gaps are *stratified*: the mid-quantiles of the
stated distribution, in one fixed shuffled order.  Which request gets which
length, tenant and arrival gap is the same under every seed; the seed picks
the tokens (prompt bodies and tenant heads).  So the shape of the work in a
round does not depend on the seed, and a run-to-run spread measures the
system and not the sampling of the workload.
"""

from __future__ import annotations

import dataclasses
import math
from statistics import NormalDist
from typing import List, Optional, Tuple, Union

import numpy as np

MODEL_NAME = "phi3-medium"  # sim config: d_model 96, 6 layers, d_ffn 384
MODEL_SEED = 0
VOCAB_SIZE = 256  # phi3-medium sim config
DENSITY = 0.5

#: ``(prompt tokens, max_new_tokens)`` of one request.
Request = Tuple[Tuple[int, ...], int]


@dataclasses.dataclass(frozen=True)
class Workload:
    """One traffic mix and the serving configuration it runs against."""

    name: str
    why: str
    method: str
    #: Compute backend name; ``None`` keeps the library default.
    backend: Optional[str]
    #: ``"open"``: requests are sent on a schedule at ``rate_per_s``;
    #: ``"closed"``: ``clients`` callers each send the next request when the
    #: previous one finished, with zero think time.
    loop: str
    #: Requests in the script that every round replays on a fresh scheduler
    #: (an open loop replays its arrival offsets too), so rounds differ only
    #: by the machine's speed while they ran.
    round_requests: int
    max_batch_size: int = 8
    rate_per_s: float = 0.0
    clients: int = 1
    #: Warm-up requests served before any timing (fills lazy state and caches).
    warmup_requests: int = 8
    prompt_median: float = 16.0
    prompt_sigma: float = 0.5
    prompt_min: int = 4
    prompt_max: int = 48
    decode_median: float = 40.0
    decode_sigma: float = 0.4
    decode_min: int = 8
    decode_max: int = 64
    #: Shared-prefix tenants (0: every prompt is unshared).
    tenants: int = 0
    tenant_head_len: int = 0
    #: SLO limits: a request meets the SLO when its TTFT and its mean
    #: inter-token gap are both within these.  Constants, never derived per
    #: run; set well above the healthy values (a cold rag wave reads ~140 ms
    #: TTFT), so a miss flags a stall or a failure, not machine noise.
    slo_ttft_ms: float = 500.0
    slo_mean_itl_ms: float = 50.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="chat-poisson",
            why="open-loop Poisson chat at ~40% scheduler load in 2 s rounds; decode steps and queueing "
                "dominate, the prefix cache only misses",
            method="dip",
            backend=None,
            loop="open",
            # ~40% busy (10 req/s kept the scheduler ~65% busy); near
            # saturation the open loop amplifies machine noise.
            rate_per_s=5.0,
            round_requests=10,
        ),
        Workload(
            name="rag-prefix-closed",
            why="closed loop of 8 clients over 4 shared 64-token heads; prefill and prefix-cache "
                "lookup/insert dominate, every count repeats",
            method="dip",
            backend=None,
            loop="closed",
            round_requests=64,
            clients=8,
            tenants=4,
            tenant_head_len=64,
            prompt_median=16.0,
            prompt_sigma=0.35,
            prompt_min=8,
            prompt_max=24,
            decode_median=8.0,
            decode_sigma=0.0,
            decode_min=8,
            decode_max=8,
        ),
        Workload(
            name="ondevice-dipca",
            why="single-user device case: dip-ca on gather kernels at width 1 plus the hwsim device "
                "model; batching and the prefix cache are bypassed",
            method="dip-ca",
            backend="gather",
            loop="closed",
            round_requests=4,
            clients=1,
            warmup_requests=2,
            prompt_median=32.0,
            prompt_sigma=0.2,
            prompt_min=24,
            prompt_max=40,
            decode_median=64.0,
            decode_sigma=0.0,
            decode_min=64,
            decode_max=64,
        ),
    )
}


def _stratified_lognormal(
    rng: np.random.Generator, n: int, median: float, sigma: float, lo: int, hi: int
) -> List[int]:
    """``n`` lengths at the mid-quantiles of a log-normal, shuffled."""
    normal = NormalDist()
    values = [
        min(hi, max(lo, int(round(median * math.exp(sigma * normal.inv_cdf((i + 0.5) / n))))))
        for i in range(n)
    ]
    return [values[i] for i in rng.permutation(n)]


def _stratified_gaps(rng: np.random.Generator, n: int, rate_per_s: float) -> List[float]:
    """``n`` exponential inter-arrival gaps at mid-quantiles, shuffled."""
    gaps = [-math.log(1.0 - (i + 0.5) / n) / rate_per_s for i in range(n)]
    return [gaps[i] for i in rng.permutation(n)]


def make_requests(workload: Workload, seed: int, n: int, stream: int = 0) -> List[Request]:
    """The ``n`` requests of ``workload`` under ``seed``.

    ``stream`` selects an independent request stream for the same seed
    (0: measured requests, 1: warm-up requests), so warm-up never replays
    the measured prompts.
    """
    # Which request gets which length and tenant is the same under every
    # seed, so every seed batches and queues alike; the seed picks tokens.
    shape = np.random.default_rng(stream)
    rng = np.random.default_rng([seed, stream])
    prompt_lens = _stratified_lognormal(
        shape, n, workload.prompt_median, workload.prompt_sigma, workload.prompt_min, workload.prompt_max
    )
    decode_lens = _stratified_lognormal(
        shape, n, workload.decode_median, workload.decode_sigma, workload.decode_min, workload.decode_max
    )
    heads: List[np.ndarray] = []
    tenant_of: List[int] = []
    if workload.tenants:
        # Heads depend on the seed only, so warm-up and measured requests of
        # one seed share them.
        head_rng = np.random.default_rng([seed, 99])
        heads = [
            head_rng.integers(1, VOCAB_SIZE, size=workload.tenant_head_len)
            for _ in range(workload.tenants)
        ]
        tenant_of = [int(t) for t in shape.permutation(np.arange(n) % workload.tenants)]
    requests: List[Request] = []
    for i in range(n):
        body = rng.integers(1, VOCAB_SIZE, size=prompt_lens[i])
        prompt = np.concatenate([heads[tenant_of[i]], body]) if heads else body
        requests.append((tuple(int(t) for t in prompt), decode_lens[i]))
    return requests


def open_loop_schedule(workload: Workload, seed: int) -> List[Tuple[float, Request]]:
    """``(due offset in seconds, request)`` pairs of one open-loop round."""
    n = workload.round_requests
    gaps = _stratified_gaps(np.random.default_rng(2), n, workload.rate_per_s)  # same under every seed
    due = np.cumsum(gaps) - gaps[0]  # the first request is due at the round's start
    return list(zip((float(d) for d in due), make_requests(workload, seed, n)))


def round_script(workload: Workload, seed: int) -> Union[List[Tuple[float, Request]], List[Request]]:
    """What every round of ``workload`` replays under ``seed``.

    Open loop: the round's ``(due, request)`` schedule; closed loop: the
    round's requests, which the clients take in order.
    """
    if workload.loop == "open":
        return open_loop_schedule(workload, seed)
    return make_requests(workload, seed, workload.round_requests)
