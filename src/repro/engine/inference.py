"""Running a model with a sparsity method active.

The engine is *batched by default*: every evaluation entry point stacks
sequences of equal length and issues one model forward per bucket chunk of
at most :data:`DEFAULT_BATCH_TOKENS` tokens, flattening the ``(batch, seq)``
hidden states to a ``(batch*seq, d_model)`` token axis around the sparsity
method — so every registered method gets batching for free, without knowing
about the batch dimension.  Flattening is C-ordered
(sequence 0's tokens first), which preserves the per-layer token order of the
old sequence-by-sequence loop; even the stateful cache-aware method therefore
produces identical masks batched and sequential.

Decoding has one core, the slot-wise :class:`ContinuousBatch`.  Requests
reach it through one driver, :class:`ContinuousDecoder`, of which the
serving scheduler, the fleet decode worker and :func:`serve_continuous_greedy`
are thin shells; :meth:`SparseInferenceEngine.generate_batch` steps it
directly.  :meth:`SparseInferenceEngine.generate` runs the numpy oracle,
:meth:`CausalLM.generate <repro.nn.transformer.CausalLM.generate>`.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, Iterator, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.backend import BackendLike, use_backend
from repro.engine.decode_step import decode_step
from repro.nn.decode_attn import check_slots
from repro.nn.embedding import check_id_range, check_ids, check_length, check_prompt, check_request
from repro.nn.prefix_cache import PrefixCache, PrefixMatch
from repro.nn.transformer import CausalLM, TransformerBlock, _sample_token, left_pad_ragged
from repro.sparsity.base import MLPMasks, SparsityMethod, masks_mlp_density
from repro.utils.logging import get_logger
from repro.utils.native import BoundAttribute
from repro.utils.numerics import logsumexp
from repro.utils.rng import SeedLike, new_rng

logger = get_logger("engine.inference")


def _as_sequence_list(sequences) -> List[np.ndarray]:
    """Normalise input to a list of 1-D int64 token sequences.

    Accepts a single 1-D sequence, a 2-D ``(n, seq)`` array, or an iterable of
    (possibly ragged) 1-D sequences.
    """
    if isinstance(sequences, np.ndarray):
        if sequences.ndim == 1:
            return [sequences.astype(np.int64, copy=False)]
        if sequences.ndim == 2:
            return list(sequences.astype(np.int64, copy=False))
        raise ValueError("sequences must be 1-D, 2-D, or a list of 1-D arrays")
    return [np.asarray(s, dtype=np.int64) for s in sequences]


def _as_prompt_list(prompts) -> List[np.ndarray]:
    """Normalise a generation-prompt argument to a list of 1-D prompts.

    A 1-D array *or a flat list of token ids* is one prompt (the historical
    ``generate_batch`` contract), not a batch of single-token prompts.
    """
    if isinstance(prompts, np.ndarray):
        if prompts.ndim == 1:
            prompts = prompts[None]
    else:
        flat = list(prompts)
        if flat and all(np.ndim(p) == 0 for p in flat):
            prompts = np.asarray(flat, dtype=np.int64)[None]
    return _as_sequence_list(prompts)


#: Token budget per batched forward, for the evaluation entry points (when no
#: ``batch_size`` is given) and for :meth:`ContinuousBatch.admit`'s prefill
#: forwards (padded query tokens).  Chosen so the big per-layer intermediates
#: stay roughly cache-resident: very large batches of long sequences stream
#: multi-MB temporaries through every elementwise op and end up slower than
#: moderate chunks (``docs/BENCHMARKS.md``, "Prefill token budget").
DEFAULT_BATCH_TOKENS = 256


def _pack_forwards(items: List[int], lengths: List[int]) -> List[List[int]]:
    """Split ``items`` into prefill forwards of at most
    :data:`DEFAULT_BATCH_TOKENS` padded query tokens; ``lengths[j]`` is item
    ``j``'s query length.

    Shortest first (stable): an item joins the open forward while ``(rows +
    1) * its length`` fits the budget, so a forward's padded width is its
    last item's length.  An item longer than the budget gets a forward of
    its own.
    """
    forwards: List[List[int]] = []
    for j in sorted(range(len(items)), key=lengths.__getitem__):
        if not forwards or (len(forwards[-1]) + 1) * lengths[j] > DEFAULT_BATCH_TOKENS:
            forwards.append([])
        forwards[-1].append(items[j])
    return forwards


def iter_length_buckets(
    sequences: Sequence[np.ndarray],
    batch_size: Optional[int] = None,
    max_tokens: Optional[int] = None,
) -> Iterator[List[Tuple[int, np.ndarray]]]:
    """Yield ``(original_index, sequence)`` batches of equal-length sequences.

    Ragged inputs are grouped by length (first-seen order, stable within each
    group), so each batch can be stacked into one ``(batch, seq)`` array.
    ``batch_size`` caps the bucket size; otherwise ``max_tokens`` caps the
    batch at ``max_tokens // length`` sequences; with neither, each length
    group is a single batch.
    """
    groups: dict = {}
    for index, seq in enumerate(sequences):
        groups.setdefault(len(seq), []).append((index, seq))
    for length, group in groups.items():
        if batch_size is not None:
            step = batch_size
        elif max_tokens is not None:
            step = max(1, max_tokens // max(1, length))
        else:
            step = len(group)
        for start in range(0, len(group), step):
            yield group[start : start + step]


class MaskRecorder:
    """Accumulates the per-layer masks produced while running sequences."""

    def __init__(self, n_layers: int):
        self.n_layers = n_layers
        self._per_layer: List[List[MLPMasks]] = [[] for _ in range(n_layers)]

    def record(self, layer_index: int, masks: MLPMasks) -> None:
        self._per_layer[layer_index].append(masks)

    def layer_masks(self, layer_index: int) -> MLPMasks:
        """Concatenate all recorded masks of one layer along the token axis."""
        chunks = self._per_layer[layer_index]
        if not chunks:
            raise ValueError(f"no masks recorded for layer {layer_index}")
        down = np.concatenate([c.down_mask for c in chunks], axis=0)
        first = chunks[0]

        def cat(attr: str) -> Optional[np.ndarray]:
            values = [getattr(c, attr) for c in chunks]
            if values[0] is None:
                return None
            return np.concatenate(values, axis=0)

        return MLPMasks(
            down_mask=down,
            input_mask=cat("input_mask"),
            up_axis=first.up_axis,
            up_mask=cat("up_mask"),
            gate_axis=first.gate_axis,
            gate_mask=cat("gate_mask"),
        )

    def all_layer_masks(self) -> List[MLPMasks]:
        return [self.layer_masks(i) for i in range(self.n_layers)]

    def mean_mlp_density(self, d_model: int, d_ffn: int) -> float:
        """Average MLP density over all layers and tokens."""
        densities = [masks_mlp_density(self.layer_masks(i), d_model, d_ffn) for i in range(self.n_layers)]
        return float(np.mean(densities))

    def n_recorded_tokens(self) -> int:
        """Token rows recorded so far (layer 0; all layers record in step)."""
        return sum(chunk.n_tokens for chunk in self._per_layer[0]) if self._per_layer else 0


def _permute_token_rows(masks: MLPMasks, permutation: np.ndarray, skip_rows: int) -> MLPMasks:
    """Reorder the last ``len(permutation)`` token rows of every mask array."""

    def reorder(array: Optional[np.ndarray]) -> Optional[np.ndarray]:
        if array is None:
            return None
        tail = array[skip_rows:][permutation]
        return np.concatenate([array[:skip_rows], tail], axis=0) if skip_rows else tail

    return MLPMasks(
        down_mask=reorder(masks.down_mask),
        input_mask=reorder(masks.input_mask),
        up_axis=masks.up_axis,
        up_mask=reorder(masks.up_mask),
        gate_axis=masks.gate_axis,
        gate_mask=reorder(masks.gate_mask),
    )


class SparseInferenceEngine:
    """Evaluate a model with an MLP sparsity method substituted in.

    The engine uses the model's array (inference) path and replaces every
    MLP call with ``method.sparse_forward``; attention, norms and embeddings
    are untouched, exactly as in the paper.  A DIP or DIP-CA decode step of
    a :class:`ContinuousBatch`, at any width, runs every block, its MLP in
    the compiled decode MLP, in one call instead
    (:mod:`repro.engine.decode_step`), unless masks are being recorded.
    """

    def __init__(
        self,
        model: CausalLM,
        method: SparsityMethod,
        record_masks: bool = False,
        backend: BackendLike = None,
    ):
        self.model = model
        self.method = method
        #: Compute backend (name or instance) every evaluation entry point
        #: runs under; ``None`` takes the ambient selection when an entry
        #: point is entered (explicit :func:`~repro.backend.use_backend`
        #: scope > ``REPRO_BACKEND`` env var > numpy reference).
        self.backend = backend
        self.recorder = MaskRecorder(len(model.blocks)) if record_masks else None

    # ----------------------------------------------------------------- hooks
    def _mlp_override(self, block: TransformerBlock, normed: np.ndarray) -> np.ndarray:
        # Flatten a batched (batch, seq, d_model) input to one (batch*seq,
        # d_model) token axis: sparsity methods only ever see (T, d_model).
        batched = normed.ndim == 3
        if batched:
            batch, seq, d_model = normed.shape
            normed = normed.reshape(batch * seq, d_model)
        masks = self.method.compute_masks(block.mlp, block.layer_index, normed)
        if self.recorder is not None:
            self.recorder.record(block.layer_index, masks)
        out = self.method.sparse_forward(block.mlp, block.layer_index, normed, masks)
        if batched:
            out = out.reshape(batch, seq, d_model)
        return out

    def _fused_step(self, batch: "ContinuousBatch", slots: List[int], ids: np.ndarray) -> Optional[np.ndarray]:
        # Every block of a DIP/DIP-CA step in one compiled call, the
        # binding kept on the batch; like the compiled decode MLP, it yields
        # no masks to record.
        if self.recorder is not None:
            return None
        return decode_step(self.method, batch, slots, ids)

    # ------------------------------------------------------------------- API
    def reset(self) -> None:
        """Reset any stateful components (e.g. the DIP-CA cache model)."""
        self.method.reset()
        if self.recorder is not None:
            self.recorder = MaskRecorder(len(self.model.blocks))

    def logits(self, token_ids: np.ndarray) -> np.ndarray:
        """Logits for ``(seq,)`` or ``(batch, seq)`` token ids under the sparse
        model; ``ValueError`` for an id outside the vocabulary."""
        ids = np.asarray(token_ids, dtype=np.int64)
        check_ids(ids, self.model.config.vocab_size)
        with use_backend(self.backend):
            return self.model.forward_array(ids, mlp_override=self._mlp_override)

    def sequence_log_likelihood(self, token_ids: np.ndarray, continuation_start: int = 1) -> float:
        """Sum of next-token log-probabilities from ``continuation_start`` onward."""
        return float(
            self.sequence_log_likelihoods([np.asarray(token_ids, dtype=np.int64)], continuation_start)[0]
        )

    def sequence_log_likelihoods(
        self,
        sequences,
        continuation_starts=1,
        reduction: str = "sum",
        batch_size: Optional[int] = None,
    ) -> np.ndarray:
        """Per-sequence continuation log-likelihoods, batched by length bucket.

        ``continuation_starts`` is a scalar or one value per sequence; entry
        ``i`` reduces the log-probabilities of tokens
        ``sequences[i][continuation_starts[i]:]`` with ``reduction`` (``"sum"``
        or ``"mean"``).  The result is aligned with the input order regardless
        of bucketing.
        """
        if reduction not in ("sum", "mean"):
            raise ValueError("reduction must be 'sum' or 'mean'")
        sequences = _as_sequence_list(sequences)
        starts = np.broadcast_to(np.asarray(continuation_starts, dtype=np.int64), (len(sequences),))
        results = np.empty(len(sequences), dtype=np.float64)
        for bucket in iter_length_buckets(sequences, batch_size, DEFAULT_BATCH_TOKENS):
            indices = [index for index, _ in bucket]
            ids = np.stack([seq for _, seq in bucket])  # (b, L)
            picked = self._picked_log_probs(ids)
            # Mask out the context part: token j of picked predicts ids[j+1].
            positions = np.arange(picked.shape[1])[None, :]
            keep = positions >= (starts[indices] - 1)[:, None]
            totals = np.where(keep, picked, 0.0).sum(axis=-1)
            if reduction == "mean":
                totals = totals / np.maximum(keep.sum(axis=-1), 1)
            results[indices] = totals
        return results

    def perplexity(
        self,
        sequences: np.ndarray,
        max_sequences: Optional[int] = None,
        batch_size: Optional[int] = None,
    ) -> float:
        """Token-level perplexity over sequences, batched by length bucket.

        Ragged inputs (a list of unequal-length sequences) are bucketed by
        length; ``batch_size`` caps the number of sequences per forward, and
        without it each forward holds at most :data:`DEFAULT_BATCH_TOKENS`
        tokens.
        """
        sequences = _as_sequence_list(sequences)
        if max_sequences is not None:
            sequences = sequences[:max_sequences]
        total_nll = 0.0
        total_tokens = 0
        for bucket in iter_length_buckets(sequences, batch_size, DEFAULT_BATCH_TOKENS):
            ids = np.stack([seq for _, seq in bucket])
            picked = self._picked_log_probs(ids)
            total_nll -= float(picked.sum())
            total_tokens += picked.size
        return float(np.exp(total_nll / total_tokens))

    def _picked_log_probs(self, ids: np.ndarray) -> np.ndarray:
        """Next-token log-probabilities ``(batch, L-1)`` for stacked sequences.

        Normalises each picked logit by ``logsumexp`` directly instead of
        materialising the full ``(batch, L-1, vocab)`` log-softmax array.
        ``ValueError`` for sequences shorter than two tokens.
        """
        if ids.shape[1] < 2:
            raise ValueError("a sequence needs at least two tokens to have a target")
        check_ids(ids, self.model.config.vocab_size)  # the last ids are targets only, never logits inputs
        logits = self.logits(ids[:, :-1])
        targets = ids[:, 1:]
        picked = np.take_along_axis(logits, targets[..., None], axis=-1)[..., 0]
        return picked - logsumexp(logits, axis=-1)

    def collect_masks(
        self, sequences: np.ndarray, batch_size: Optional[int] = None
    ) -> List[MLPMasks]:
        """Run sequences purely to record masks (for HW-simulator traces).

        Mask rows come back in input order (sequence 0's tokens first) even
        for ragged inputs, whose buckets are processed out of order: the
        recorded rows are permuted back so trace consumers can correlate rows
        to sequence/token positions exactly as the old per-sequence loop did.
        """
        if self.recorder is None:
            self.recorder = MaskRecorder(len(self.model.blocks))
        sequences = _as_sequence_list(sequences)
        skip_rows = self.recorder.n_recorded_tokens()
        owners: List[int] = []
        for bucket in iter_length_buckets(sequences, batch_size, DEFAULT_BATCH_TOKENS):
            self.logits(np.stack([seq for _, seq in bucket]))
            for index, seq in bucket:
                owners.extend([index] * len(seq))
        masks = self.recorder.all_layer_masks()
        permutation = np.argsort(np.asarray(owners), kind="stable")
        if not np.array_equal(permutation, np.arange(len(owners))):
            masks = [_permute_token_rows(m, permutation, skip_rows) for m in masks]
        return masks

    # -------------------------------------------------------------- generation
    def generate(
        self,
        prompt_ids: Sequence[int],
        max_new_tokens: int,
        temperature: float = 1.0,
        rng=None,
    ) -> np.ndarray:
        """Autoregressive sampling with the sparsity method active, through
        the numpy oracle :meth:`CausalLM.generate
        <repro.nn.transformer.CausalLM.generate>`, which raises
        ``ValueError`` before any forward for an empty prompt, an id outside
        the vocabulary or a budget the model cannot hold."""
        prompt = np.asarray(list(prompt_ids), dtype=np.int64)
        with use_backend(self.backend):
            return self.model.generate(
                prompt, max_new_tokens, temperature=temperature, rng=rng, mlp_override=self._mlp_override
            )

    def generate_batch(self, prompts, max_new_tokens: int, temperature: float = 1.0, rng=None) -> np.ndarray:
        """Sampling across (possibly ragged) prompts through one
        :class:`ContinuousBatch`; the result is ``(batch, max_prompt_len +
        max_new_tokens)``, each row right-aligned behind zeros.

        The prompts are admitted together into a batch as wide as their
        count, and it steps until the budget is spent.  Methods whose masks
        depend on a cache state (DIP-CA, Algorithm 1) define token order as
        part of the method, so they decode at width 1 instead, prompt after
        prompt with no reset between.  Greedy rows are :meth:`generate`'s
        (for DIP-CA, after the prompts before it).  Sampled tokens come from
        one ``rng``, step by step, each step's rows in input order.  An
        empty prompt, an id outside the vocabulary, a negative budget or one
        the model cannot hold raises ``ValueError`` before any forward.
        """
        sequences = _as_prompt_list(prompts)
        if not sequences:
            raise ValueError("generate_batch needs at least one prompt")
        config = self.model.config
        for sequence in sequences:
            check_prompt(sequence, config.vocab_size)
            check_length(len(sequence), max_new_tokens, config.max_seq_len)
        rng = new_rng(rng)
        longest = max(len(p) for p in sequences)
        out = np.zeros((len(sequences), longest + max_new_tokens), dtype=np.int64)
        for row, sequence in zip(out, sequences):
            row[longest - len(sequence) : longest] = sequence
        if max_new_tokens == 0:
            return out
        width = 1 if self.method.requires_cache_state else len(sequences)
        batch = ContinuousBatch.from_engine(self, max_batch_size=width, max_seq_len=longest + max_new_tokens)
        for start in range(0, len(sequences), width):
            rows = np.arange(start, min(start + width, len(sequences)))
            slots, logits = batch.admit([sequences[i] for i in rows])
            for column in range(longest, longest + max_new_tokens):
                if column > longest:
                    logits = batch.step(slots, out[rows, column - 1])
                out[rows, column] = [_sample_token(row, temperature, rng) for row in logits]
            for slot in slots:
                batch.evict(slot)
        return out


class ContinuousBatch:
    """Slot-wise continuous-batching decode core.

    A fixed pool of KV-cache slots decodes in lock-step; a finished sequence
    frees its slot via :meth:`evict` and newly arrived ragged prompts prefill
    straight into the freed slots (:meth:`admit`) while the rest of the batch
    keeps decoding.  Every slot keeps its own RoPE positions and key mask, so
    greedy outputs are bit-identical to one-at-a-time
    :meth:`~repro.nn.transformer.CausalLM.generate` regardless of admission
    order or batch composition.  (Cache-state methods — DIP-CA — are the one
    exception: their masks depend on token order, so :meth:`from_engine`
    rejects them above ``max_batch_size=1``.)

    This class knows slots and tokens, not requests: :class:`ContinuousDecoder`
    drives it request by request.

    With a :class:`~repro.nn.prefix_cache.PrefixCache` attached, :meth:`admit`
    consults it per prompt (longest-match lookup over whole blocks), seeds
    the slot with the cached prefix K/V, prefills only the unseen suffix, and
    publishes each newly prefilled prompt back to the cache.
    ``prefill_tokens_total`` / ``prefill_tokens_forwarded`` count prompt
    tokens admitted vs. actually forwarded, so callers can report savings.
    """

    #: The one-call decode step's binding of this batch's model, method and
    #: caches (:mod:`repro.engine.decode_step`).  Holds addresses, so copies
    #: and pickles start without it.
    _bound = None
    #: What that binding reads of the batch: replacing one bumps
    #: :data:`~repro.utils.native.VERSION`.  ``caches`` is a tuple, one KV
    #: cache per block, so its items are replaced only with it.
    model = BoundAttribute()
    caches = BoundAttribute()
    occupied = BoundAttribute()

    def __init__(
        self,
        model: CausalLM,
        mlp_override=None,
        max_batch_size: int = 8,
        max_seq_len: Optional[int] = None,
        prefix_cache: Optional[PrefixCache] = None,
        backend: BackendLike = None,
    ):
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        self.model = model
        self.mlp_override = mlp_override
        #: Compute backend the prefill/decode forwards run under (``None``
        #: takes the ambient selection as each scope is entered; see
        #: :mod:`repro.backend`).
        self.backend = backend
        self.max_batch_size = max_batch_size
        self.max_seq_len = max_seq_len if max_seq_len is not None else model.config.max_seq_len
        self.prefix_cache = prefix_cache
        self.caches = tuple(model.new_kv_caches(self.max_seq_len, batch_size=max_batch_size))
        self.occupied = np.zeros(max_batch_size, dtype=bool)
        #: slot -> (prompt_tokens, forwarded_tokens) of its latest admission.
        self.slot_prefill: dict = {}
        self.prefill_tokens_total = 0
        self.prefill_tokens_forwarded = 0
        #: Run before every admission: :meth:`from_engine` sets it to
        #: ``engine.reset`` for cache-state methods.
        self.reset_method: Optional[Callable[[], None]] = None
        #: Tried first by every :meth:`step` as ``fused_step(batch, slots,
        #: ids)``, outside the backend scope: :meth:`from_engine` sets it to
        #: the engine's one-call step (:mod:`repro.engine.decode_step`), which
        #: returns the step's logits, or ``None`` when the per-layer path must
        #: run.
        self.fused_step: Optional[Callable[["ContinuousBatch", List[int], np.ndarray], Optional[np.ndarray]]] = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_bound", None)
        return state

    @classmethod
    def from_engine(cls, engine: SparseInferenceEngine, **kwargs) -> "ContinuousBatch":
        """Build a batch that decodes under ``engine``'s sparsity method.

        Methods whose masks depend on a cache state (DIP-CA) define token
        order as part of the method; batched continuous decode would change
        their masks, so they are only accepted at ``max_batch_size=1``
        (which is how the serving scheduler degrades for them) — and a
        prefix cache is refused outright, because skipping the prefix
        forward would change the method's cache-state evolution.  For them
        the batch also records ``engine.reset`` as its ``reset_method``.
        Every batch records the engine's one-call decode step as its
        ``fused_step``.
        """
        if engine.method.requires_cache_state:
            if kwargs.get("max_batch_size", 8) > 1:
                raise ValueError(
                    f"method '{engine.method.name}' requires cache state (token order is part of "
                    "the method); continuous batching would change its masks — use "
                    "max_batch_size=1, as engine.generate_batch does"
                )
            if kwargs.get("prefix_cache") is not None:
                raise ValueError(
                    f"method '{engine.method.name}' requires cache state; prefix caching would "
                    "skip prefix tokens and change the method's masks"
                )
        kwargs.setdefault("backend", engine.backend)
        batch = cls(engine.model, mlp_override=engine._mlp_override, **kwargs)
        if engine.method.requires_cache_state:
            batch.reset_method = engine.reset
        batch.fused_step = engine._fused_step
        return batch

    # ------------------------------------------------------------- slot state
    def check_request(self, prompt_len: int, max_new_tokens: int) -> None:
        """Raise ``ValueError`` unless a prompt of ``prompt_len`` tokens and
        ``max_new_tokens`` fit one slot: decode room in the caches'
        ``max_seq_len``, and room under the smaller of that and the model's
        RoPE table (:func:`~repro.nn.embedding.check_request`)."""
        check_request(prompt_len, max_new_tokens, self.max_seq_len, self.model.config.max_seq_len)

    def free_slots(self) -> List[int]:
        """Indices of currently unoccupied KV-cache slots."""
        return [int(i) for i in np.flatnonzero(~self.occupied)]

    @property
    def occupancy(self) -> int:
        """Number of occupied slots."""
        return int(self.occupied.sum())

    # ------------------------------------------------------------- operations
    def admit(
        self,
        prompts: Sequence[np.ndarray],
        cache_prefix: Optional[Sequence[bool]] = None,
    ) -> Tuple[List[int], np.ndarray]:
        """Prefill ragged prompts into free slots.

        Returns ``(slots, logits)`` where ``slots[i]`` is the cache slot now
        holding ``prompts[i]`` and ``logits[i]`` are the last-position logits
        (the distribution of each prompt's first new token).

        Prompts prefill in left-padded batched forwards of at most
        :data:`DEFAULT_BATCH_TOKENS` padded query tokens: shortest first, a
        prompt joins the open forward while ``(rows + 1) * its length`` fits
        the budget, and a single prompt longer than the budget gets a forward
        of its own.  With a :class:`PrefixCache` attached, each hit prompt
        instead seeds a staging cache with the cached prefix K/V and forwards
        *only its unseen suffix*; hits are grouped by matched prefix length
        and packed by suffix length.  Every prefilled prompt is published
        back to the cache (whole blocks only) so later admissions can share
        its head.  ``cache_prefix[i]=False`` opts prompt ``i`` out of both
        lookup and publication.  An empty prompt or an id outside the
        vocabulary raises ``ValueError`` before any forward, and a forward
        that raises fails the whole admission: no slot is taken and no
        prefill counter moves.
        """
        prompts = [np.asarray(p, dtype=np.int64).reshape(-1) for p in prompts]
        n = len(prompts)
        free = self.free_slots()
        if n > len(free):
            raise ValueError(f"cannot admit {n} prompts into {len(free)} free slots")
        for prompt in prompts:
            check_prompt(prompt, self.model.config.vocab_size)
            self.check_request(len(prompt), 1)
        if cache_prefix is not None and len(cache_prefix) != n:
            raise ValueError("cache_prefix must have one entry per prompt")
        slots = free[:n]

        def wants_cache(i: int) -> bool:
            return self.prefix_cache is not None and (cache_prefix is None or bool(cache_prefix[i]))

        matches: List[Optional[PrefixMatch]] = [None] * n
        for i, prompt in enumerate(prompts):
            if wants_cache(i):
                # Cap the match one token short: the last prompt token must be
                # forwarded to produce the first sampled token's logits.
                match = self.prefix_cache.lookup(prompt, max_length=len(prompt) - 1)
                if match is not None:
                    self.prefix_cache.acquire(match)
                    matches[i] = match
        logits_out = np.empty((n, self.model.config.vocab_size))
        try:
            # Fresh prompts first, then hits grouped by matched prefix length
            # (shared-head traffic matches one length, so steady state is one
            # group); each group is packed into budgeted forwards.
            groups: Dict[int, List[int]] = {0: []}
            for i, match in enumerate(matches):
                groups.setdefault(0 if match is None else match.length, []).append(i)
            for prefix_len, group in groups.items():
                for rows in _pack_forwards(group, [len(prompts[i]) - prefix_len for i in group]):
                    logits_out[rows] = self._prefill(prompts, rows, prefix_len, matches, slots, wants_cache)
        finally:
            for match in matches:
                if match is not None:
                    self.prefix_cache.release(match)
        for i, (prompt, match) in enumerate(zip(prompts, matches)):
            forwarded = len(prompt) - (match.length if match is not None else 0)
            self.prefill_tokens_total += len(prompt)
            self.prefill_tokens_forwarded += forwarded
            self.slot_prefill[slots[i]] = (len(prompt), forwarded)
        self.occupied[slots] = True
        return slots, logits_out

    def _prefill(
        self,
        prompts: List[np.ndarray],
        rows: List[int],
        prefix_len: int,
        matches: List[Optional[PrefixMatch]],
        slots: List[int],
        publish: Callable[[int], bool],
    ) -> np.ndarray:
        """One left-padded forward of ``prompts[i]`` for ``i`` in ``rows``,
        all sharing a matched prefix length (0 for none); returns their
        last-position logits, one row each.

        Each staging row is seeded with its own prefix K/V at ``0..P-1``;
        ragged suffixes are left-padded behind the prefix exactly like a
        normal ragged prefill — pad keys masked, per-row RoPE positions at
        offset ``P``.  Each prompt's K/V then land in its slot.
        """
        # Pads (id 0) fill only key positions the key bias hides.
        padded, positions, suffix_bias, lengths = left_pad_ragged([prompts[i][prefix_len:] for i in rows])
        end = prefix_len + padded.shape[1]
        staging = self.model.new_kv_caches(max_seq_len=end, batch_size=len(rows))
        prefixes = [matches[i].assemble() if prefix_len else None for i in rows]
        if prefix_len:
            for layer, staged in enumerate(staging):
                for row, prefix in enumerate(prefixes):
                    keys, values = prefix[layer]
                    staged.keys[row, :, :prefix_len] = keys
                    staged.values[row, :, :prefix_len] = values
                staged.length = prefix_len
                staged.lengths[:] = prefix_len
        key_bias = np.concatenate([np.zeros((len(rows), prefix_len)), suffix_bias], axis=1)
        with use_backend(self.backend):
            logits = self.model.forward_array(
                padded,
                kv_caches=staging,
                mlp_override=self.mlp_override,
                attention_mask=key_bias,
                position_ids=prefix_len + positions,
                last_only=True,
            )
        for row, i in enumerate(rows):
            start = end - int(lengths[row])  # skip the row's pads
            for layer, (cache, staged) in enumerate(zip(self.caches, staging)):
                cache.insert_slot(
                    slots[i],
                    staged.keys[row, :, start:end],
                    staged.values[row, :, start:end],
                    prefix=prefixes[row][layer] if prefix_len else None,
                )
            if publish(i):
                # Publish from the slot: it now holds the contiguous
                # prefix + suffix K/V at 0..L-1 (insert copies them).
                total = len(prompts[i])
                self.prefix_cache.insert(
                    prompts[i],
                    [cache.keys[slots[i], :, :total] for cache in self.caches],
                    [cache.values[slots[i], :, :total] for cache in self.caches],
                )
        return logits[:, -1]

    def step(self, slots: Sequence[int], tokens: Sequence[int]) -> np.ndarray:
        """Decode one token per slot in lock-step; returns next-token logits.

        ``tokens[i]`` is appended to ``slots[i]`` — slots may sit at different
        sequence lengths.  Each layer's slot view gives every slot its own
        RoPE position and hides the key positions past its length.  A step
        the ``fused_step`` serves builds no slot views, no per-layer forward
        and no backend scope, and its call checks the slots and ids itself;
        its logits are the same bits.  On either path, slots that repeat,
        lie outside the batch or hold no sequence, a token id outside the
        vocabulary and a full slot raise before any forward, so no length,
        K/V entry or method state moves.
        """
        slots = [int(s) for s in slots]
        if not slots:
            raise ValueError("step needs at least one slot")
        ids = np.asarray(tokens, dtype=np.int64).reshape(len(slots), 1)
        logits = None if self.fused_step is None else self.fused_step(self, slots, ids)
        if logits is None:
            check_slots(slots, self.max_batch_size)
            for slot in slots:
                if not self.occupied[slot]:
                    raise ValueError(f"slot {slot} is not occupied")
            check_id_range(int(ids.min()), int(ids.max()), self.model.config.vocab_size)
            lengths = self.caches[0].lengths.tolist()
            if max(lengths[slot] for slot in slots) + 1 > self.max_seq_len:
                raise RuntimeError("KV cache overflow; evict finished slots or raise max_seq_len")
            slot_ids = np.asarray(slots, dtype=np.int64)
            with use_backend(self.backend):
                logits = self.model.forward_array(
                    ids,
                    kv_caches=[cache.slot_view(slot_ids) for cache in self.caches],
                    mlp_override=self.mlp_override,
                )[:, -1, :]
        return logits

    def evict(self, slot: int) -> None:
        """Retire a finished sequence and free its KV-cache slot."""
        slot = int(slot)
        for cache in self.caches:
            cache.evict_slot(slot)
        self.occupied[slot] = False


#: Admission policies of :class:`ContinuousDecoder`: first-come-first-served,
#: or shortest prompt first (minimises padded prefill width when many ragged
#: prompts are queued).
ADMISSION_POLICIES = ("fcfs", "shortest")


class DecodeRequest:
    """One request as :class:`ContinuousDecoder` serves it.

    ``key`` is what :meth:`ContinuousDecoder.find` matches (keys may repeat);
    ``deadline`` is absolute, on the caller's clock.  The driver fills in
    ``tokens`` (drawn from the request's own ``rng``, so never dependent on
    batch neighbours), ``slot`` (the KV slot it was admitted to),
    ``finish_reason`` (``None`` while live) and ``error``.  Callers subclass
    it; the driver hands back their object.
    """

    __slots__ = ("key", "prompt", "max_new_tokens", "temperature", "rng", "deadline",
                 "cache_prefix", "tokens", "slot", "finish_reason", "error")

    def __init__(
        self,
        key: str,
        prompt: Sequence[int],
        max_new_tokens: int,
        temperature: float = 0.0,
        seed: SeedLike = None,
        deadline: Optional[float] = None,
        cache_prefix: bool = True,
    ) -> None:
        self.key = key
        self.prompt = np.asarray(prompt, dtype=np.int64).reshape(-1)
        self.max_new_tokens = int(max_new_tokens)
        self.temperature = float(temperature)
        self.rng = new_rng(seed)
        self.deadline = deadline
        self.cache_prefix = cache_prefix
        self.tokens: List[int] = []
        self.slot: Optional[int] = None
        self.finish_reason: Optional[str] = None
        self.error: Optional[Exception] = None


RequestT = TypeVar("RequestT", bound=DecodeRequest)


class ContinuousDecoder(Generic[RequestT]):
    """The one driver that turns queued requests into tokens.

    Synchronous and deterministic: callers :meth:`submit` requests, then
    alternate :meth:`admit` (prefill queued requests into free slots, in
    ``admission`` order) and :meth:`step` (one token for every active
    request).  Both return the requests they served: each holds one new
    token, or — if that forward raised — ``finish_reason="error"`` and
    ``error``; other requests are unaffected.  A spent budget finishes a
    request with ``"length"`` and frees its slot at once; :meth:`overdue`,
    :meth:`find` and :meth:`finish` serve deadlines and cancellation.  The
    batch's ``reset_method`` runs before every admission, so a DIP-CA request
    decodes exactly as ``engine.reset(); engine.generate(prompt)`` would.
    """

    def __init__(self, batch: ContinuousBatch, admission: str = "fcfs") -> None:
        if admission not in ADMISSION_POLICIES:
            raise ValueError(f"unknown admission policy '{admission}'; use {ADMISSION_POLICIES}")
        self.batch = batch
        self.admission = admission
        self.waiting: List[RequestT] = []
        self.active: Dict[int, RequestT] = {}  # slot -> request

    @property
    def idle(self) -> bool:
        """Nothing queued and nothing decoding."""
        return not self.waiting and not self.active

    def submit(self, request: RequestT) -> None:
        """Queue ``request``; ``ValueError`` if its prompt is empty or holds
        an id outside the vocabulary, or its budget cannot fit a slot or the
        model's RoPE table (:meth:`ContinuousBatch.check_request`)."""
        check_prompt(request.prompt, self.batch.model.config.vocab_size)
        self.batch.check_request(len(request.prompt), request.max_new_tokens)
        self.waiting.append(request)

    def find(self, key: str) -> Optional[RequestT]:
        """The first queued or active request with ``key``, else ``None``."""
        for request in self.waiting + list(self.active.values()):
            if request.key == key:
                return request
        return None

    def overdue(self, now: float) -> List[RequestT]:
        """Queued and active requests whose deadline is ≤ ``now``."""
        live = self.waiting + [self.active[slot] for slot in sorted(self.active)]
        return [r for r in live if r.deadline is not None and now >= r.deadline]

    def finish(self, request: RequestT, reason: str) -> None:
        """Retire a queued or active request with ``reason``, freeing its slot."""
        request.finish_reason = reason
        if request.slot is not None and self.active.get(request.slot) is request:
            self.batch.evict(request.slot)
            del self.active[request.slot]
        elif request in self.waiting:
            self.waiting.remove(request)

    def admit(self) -> List[RequestT]:
        """Prefill queued requests into the free slots and sample their first token."""
        if not self.waiting:
            return []
        n_free = len(self.batch.free_slots())
        if not n_free:
            return []
        if self.admission == "shortest":
            self.waiting.sort(key=lambda r: len(r.prompt))
        taken, self.waiting = self.waiting[:n_free], self.waiting[n_free:]
        if self.batch.reset_method is not None:
            self.batch.reset_method()
        try:
            slots, logits = self.batch.admit(
                [r.prompt for r in taken], cache_prefix=[r.cache_prefix for r in taken]
            )
        except Exception as exc:
            logger.exception("admission failed; failing %d request(s)", len(taken))
            return self._fail(taken, exc)
        for request, slot in zip(taken, slots):
            request.slot = slot
            self.active[slot] = request
        return self._sample(taken, logits)

    def step(self) -> List[RequestT]:
        """Decode one token for every active request."""
        if not self.active:
            return []
        slots = sorted(self.active)
        live = [self.active[slot] for slot in slots]
        try:
            logits = self.batch.step(slots, [r.tokens[-1] for r in live])
        except Exception as exc:
            logger.exception("decode step failed; failing %d active request(s)", len(live))
            return self._fail(live, exc)
        return self._sample(live, logits)

    def _sample(self, requests: List[RequestT], logits: np.ndarray) -> List[RequestT]:
        for row, request in enumerate(requests):
            request.tokens.append(_sample_token(logits[row], request.temperature, request.rng))
            if len(request.tokens) >= request.max_new_tokens:
                self.finish(request, "length")
        return requests

    def _fail(self, requests: List[RequestT], error: Exception) -> List[RequestT]:
        for request in requests:
            request.error = error
            self.finish(request, "error")
        return requests


def serve_continuous_greedy(
    batch: ContinuousBatch,
    prompts: Sequence[np.ndarray],
    max_new_tokens: Sequence[int],
    admission: str = "fcfs",
) -> List[np.ndarray]:
    """Greedy-decode a request list through a :class:`ContinuousDecoder`.

    Every prompt decodes for its own ``max_new_tokens[i]`` budget, admitted
    as slots free up (``admission``: see :data:`ADMISSION_POLICIES`).
    Returns the full (prompt + continuation) sequences in input order —
    token-for-token identical to one-at-a-time greedy ``generate`` (after
    ``engine.reset()`` for cache-state methods).  Used by benchmarks and
    parity tests; the asyncio scheduler exposes the same driver to servers.
    """
    budgets = list(max_new_tokens)
    if len(budgets) != len(prompts):
        raise ValueError("need one max_new_tokens per prompt")
    decoder: ContinuousDecoder[DecodeRequest] = ContinuousDecoder(batch, admission)
    requests = [DecodeRequest(str(i), p, b) for i, (p, b) in enumerate(zip(prompts, budgets))]
    for request in requests:
        decoder.submit(request)
    while not decoder.idle:
        for request in decoder.admit() + decoder.step():
            if request.error is not None:
                raise request.error
    return [np.concatenate([r.prompt, np.asarray(r.tokens, dtype=np.int64)]) for r in requests]
