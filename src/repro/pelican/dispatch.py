"""Batch-coalescing query dispatch, shard-agnostic (DESIGN.md §7/§10).

Concurrent query requests are grouped per personal model — by
``(user, window length, k)`` in arrival order — and each group is
answered through the graph-free fused inference path in *one* GEMM stack;
:func:`dispatch_tick` answers a whole flush's groups with one grouped
kernel call per shape bucket, bit-identically.
The grouping and the dispatch kernels live here so the single-cloud
:class:`~repro.pelican.fleet.Fleet`, the N-shard
:class:`~repro.pelican.cluster.Cluster`, and the cluster's failover path
all serve through the identical code — which is what makes their answers
bit-comparable.  Nothing here bills: every helper only computes, and
:meth:`Fleet._serve_group <repro.pelican.fleet.Fleet._serve_group>`
books what it returns.

Two request species flow through the same grouping:

* **prediction requests** — ordinary top-k queries, answered by
  :func:`dispatch_tick` (or :func:`dispatch_model_batch` for a
  reference-backend model);
* **probe batches** — bulk black-box confidence queries
  (:class:`ProbePayload`), the privacy-audit adversary's traffic
  (DESIGN.md §10), answered by :func:`dispatch_probe_batch`.  The group
  key carries the species, so probe and prediction groups never mix.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.features import FeatureSpec, SessionFeatures
from repro.models.architecture import NextLocationModel
from repro.models.predictor import NextLocationPredictor, check_location_domain
from repro.nn.functional import log_softmax_np, top_k_indices
from repro.nn.fused import grouped_infer_logits
from repro.nn.profiler import DEFAULT_CYCLES_PER_MAC, flop_counter
from repro.pelican.clock import QueryRequest
from repro.pelican.cloud import ResourceReport
from repro.pelican.stacking import StackKey, stack_key

# Kept resolvable for perfbench/tracing.py's span sites (see stacking.py).
from repro.pelican.stacking import stacked_path_removed as stacked_infer_last  # noqa: F401

#: Group key: requests sharing one can run as one fused dispatch.
#: ``(user_id, window length, k, is_probe)`` — the trailing flag keeps
#: audit probe traffic in its own groups (DESIGN.md §10).
GroupKey = Tuple[int, int, int, bool]


class ProbePayload:
    """Interface for bulk black-box probe batches (DESIGN.md §10).

    A probe payload stands in for *many* adversarial confidence queries
    against one user's model — the audit subsystem's unit of attack
    traffic.  The serving layer treats it like any other query payload:
    it rides a QUERY event on the event clock, is grouped by
    :func:`group_requests` (probe groups never mix with prediction
    groups), resolves its model through the same registry/placement/
    failover machinery, and bills one query exchange per probe.  Only the
    kernel differs: instead of top-k ranking, the dispatcher hands back
    the confidence the provider observes for each probe
    (:meth:`confidences`) — which is exactly the black-box surface the
    paper's threat model grants an honest-but-curious provider.

    The concrete implementation lives in the audit layer
    (:class:`repro.attacks.fleet_adversary.ProbeBatch`); this base class
    keeps the serving layer free of attack imports.
    """

    @property
    def num_probes(self) -> int:
        """How many individual black-box queries this payload carries."""
        raise NotImplementedError

    def __len__(self) -> int:
        """Window length in timesteps — part of the dispatch group key."""
        raise NotImplementedError

    def confidences(self, predictor: NextLocationPredictor) -> np.ndarray:
        """Observed-output confidence per probe, via ``predictor``'s
        black-box query surface (one value per probe, shape ``(n,)``)."""
        raise NotImplementedError


def group_requests(
    requests: Sequence[QueryRequest],
) -> "OrderedDict[GroupKey, List[int]]":
    """Coalesce concurrent requests into per-model dispatch groups.

    Returns ``{(user_id, len(history), k, is_probe): [request indices]}``
    in first-arrival order — the deterministic grouping every serving
    layer batches by.  Indices let callers scatter group results back to
    request order.  Probe payloads (:class:`ProbePayload`) group
    separately from prediction requests even at equal window length.
    """
    groups: "OrderedDict[GroupKey, List[int]]" = OrderedDict()
    for idx, request in enumerate(requests):
        key = (
            request.user_id,
            len(request.history),
            request.k,
            isinstance(request.history, ProbePayload),
        )
        groups.setdefault(key, []).append(idx)
    return groups


def dispatch_model_batch(
    model: NextLocationModel,
    spec: FeatureSpec,
    histories: Sequence[Tuple[SessionFeatures, ...]],
    k: int,
) -> Tuple[List[List[Tuple[int, float]]], ResourceReport]:
    """One fused batched dispatch against one model, MACs measured.

    Every history in the group is encoded into a single batch and
    answered by one graph-free fused inference stack; the returned
    :class:`ResourceReport` is the measured compute, for the caller to
    attribute to whichever side executed it (cloud shard, failover shard,
    or device).
    """
    predictor = NextLocationPredictor(model, spec)
    with flop_counter() as counter:
        results = predictor.top_k_batch(histories, k)
    return results, ResourceReport.from_counter(counter)


def group_macs(key: StackKey, steps: int, batch: int) -> int:
    """Per-model-equivalent MACs of one group of ``batch`` windows of
    ``steps`` sessions against a model of shape ``key``.

    Exactly the integer the flop counter records when the same group
    runs through :func:`dispatch_model_batch`: the per-layer input
    projection ``T·B·F·4H``, the ``(T-1)`` recurrent steps ``B·H·4H``
    (the ``t == 0`` zero-state step is skipped on every path), and the
    head ``B·H·L``.  Booking groups at this rate is what keeps the tick
    kernel's report signatures identical to the per-model path's
    (DESIGN.md §7): it changes how the arithmetic is *scheduled*, not
    how much arithmetic each group logically is.
    """
    total = 0
    for f, h in key[1]:
        total += steps * batch * f * 4 * h
        if steps > 1:
            total += (steps - 1) * batch * h * 4 * h
    h_top, locations = key[2]
    total += batch * h_top * locations
    return total


def _compute_report(macs: int) -> ResourceReport:
    """A group's booked compute at ``macs`` (no measured wall time)."""
    return ResourceReport(
        macs=macs,
        estimated_billion_cycles=macs * DEFAULT_CYCLES_PER_MAC / 1e9,
        wall_seconds=0.0,
    )


#: One resolved prediction group for :func:`dispatch_tick`:
#: ``(model, histories, k)``.
TickGroup = Tuple[NextLocationModel, Sequence[Tuple[SessionFeatures, ...]], int]


class _LogProbRows(NextLocationPredictor):
    """A predictor whose queries are rows of log-probabilities a tick
    kernel already computed, so a bucket is ranked by
    :meth:`NextLocationPredictor.top_k_batch` — the one ranking and
    answer-building definition every serving path uses."""

    def __init__(self, spec: FeatureSpec) -> None:
        self.model = None
        self.spec = spec
        self.query_count = 0

    def encode_histories(self, rows: np.ndarray) -> np.ndarray:
        return rows

    def log_confidences_encoded(self, batch: np.ndarray) -> np.ndarray:
        return batch


def _rank_rows(
    spec: FeatureSpec, log_probs: np.ndarray, ks: Sequence[int]
) -> List[List[Tuple[int, float]]]:
    """Each row's top-``ks[row]`` answer, one :meth:`top_k_batch` call per
    distinct ``k``: a row's ranking depends only on its scores and its k."""
    ranker = _LogProbRows(spec)
    distinct = dict.fromkeys(ks)
    if len(distinct) == 1:
        return ranker.top_k_batch(log_probs, ks[0])
    answers: List[List[Tuple[int, float]]] = [[] for _ in ks]
    picks = np.asarray(ks)
    for k in distinct:
        rows = np.flatnonzero(picks == k)
        for row, answer in zip(rows.tolist(), ranker.top_k_batch(log_probs[rows], k)):
            answers[row] = answer
    return answers


def dispatch_tick(
    spec: FeatureSpec,
    groups: Sequence[TickGroup],
) -> List[Optional[Tuple[List[List[Tuple[int, float]]], ResourceReport]]]:
    """Serve a flush's prediction groups through one grouped kernel call
    per shape bucket (DESIGN.md §7).

    Groups are bucketed by ``(stack key, window length)`` — same dtype,
    layer shapes and head — in arrival order, and within a bucket the
    groups over one shared trunk (:class:`~repro.models.trunk.Trunk`) are
    placed next to each other, so the kernel projects each trunk layer
    once for all of them.  A bucket's windows are encoded in one
    :meth:`~repro.data.features.FeatureSpec.encode_windows` call and
    answered by :func:`~repro.nn.fused.grouped_infer_logits`, which keeps
    every group's arithmetic at the per-model shapes; temperature and
    log-softmax then run over the bucket's rows at once, and the bucket
    is ranked by :meth:`NextLocationPredictor.top_k_batch`, once per
    distinct ``k``.  Answers are bit-identical to
    :func:`dispatch_model_batch` group by group, and each group books the
    MACs that path measures (:func:`group_macs`).  The returned list
    aligns with ``groups``: ``None`` marks a reference-backend model,
    which the caller serves per model.  A model outside the spec's
    location domain raises, as a predictor over it would.
    """
    served: List[Optional[Tuple[List[List[Tuple[int, float]]], ResourceReport]]] = [
        None
    ] * len(groups)
    buckets: "OrderedDict[Tuple[StackKey, int], List[int]]" = OrderedDict()
    for pos, (model, histories, _) in enumerate(groups):
        check_location_domain(model, spec)
        key = stack_key(model)
        if key is not None:
            buckets.setdefault((key, len(histories[0])), []).append(pos)

    for (key, steps), members in buckets.items():
        # Groups over one trunk sit together, in order of its first
        # arrival, so the kernel projects each of its layers in one GEMM.
        # The sort is stable.
        first_seen: Dict[int, int] = {}
        members.sort(
            key=lambda pos: first_seen.setdefault(
                id(groups[pos][0].lstm.cells[0].weight_ih.data), len(first_seen)
            )
        )
        models = [groups[pos][0] for pos in members]
        sizes = [len(groups[pos][1]) for pos in members]
        bounds = list(accumulate(sizes, initial=0))
        x = spec.encode_windows([h for pos in members for h in groups[pos][1]])
        dtype = key[0]
        if x.dtype != dtype:
            x = x.astype(dtype)
        logits = grouped_infer_logits(x, bounds, [m.fused_params() for m in models])
        # x / 1.0 is IEEE-exact, so dividing every row matches the
        # per-model path's skip at temperature 1.0.
        temps = np.array([m.privacy_temperature for m in models], dtype=dtype)
        logits /= np.repeat(temps, sizes)[:, None]
        ks = [groups[pos][2] for pos, size in zip(members, sizes) for _ in range(size)]
        answers = _rank_rows(spec, log_softmax_np(logits), ks)
        for pos, lo, hi in zip(members, bounds[:-1], bounds[1:]):
            served[pos] = (
                answers[lo:hi],
                _compute_report(group_macs(key, steps, hi - lo)),
            )
    return served


def dispatch_prior_batch(
    model,
    histories: Sequence[Tuple[SessionFeatures, ...]],
    k: int,
) -> List[List[Tuple[int, float]]]:
    """One degraded group against a population/Markov prior (DESIGN.md §11).

    The resilience ladder's last tier answers from a fitted
    :class:`~repro.models.markov.MarkovChainModel` instead of a neural
    model: a table lookup per history, no GEMMs, so there is no
    :class:`ResourceReport` to attribute — callers still bill the query
    exchange through the endpoint boundary like every other group.
    Results have the same ``[(location, confidence), ...]`` shape as
    :func:`dispatch_model_batch`, sorted descending, stable ties.
    """
    results = []
    for history in histories:
        confidences = np.asarray(model.confidences(history))
        top = top_k_indices(confidences, k)
        results.append([(int(i), float(confidences[i])) for i in top])
    return results


def dispatch_probe_batch(
    model: NextLocationModel,
    spec: FeatureSpec,
    probes: Sequence[ProbePayload],
) -> Tuple[List[np.ndarray], ResourceReport]:
    """One probe group against one model, MACs measured (DESIGN.md §10).

    Each payload's probes run through the model's graph-free fused
    inference kernel in chunked batches (the payload controls encoding
    and chunking, so fleet-served probes are bit-identical to the same
    attack querying a bare predictor directly).  Like
    :func:`dispatch_model_batch` the model is resolved by the caller —
    registry live copy, failover cold load, or on-device — and the
    measured compute comes back for per-side attribution;
    :meth:`Fleet._serve_group <repro.pelican.fleet.Fleet._serve_group>`
    bills it and mirrors it into the adversary overlay.
    """
    predictor = NextLocationPredictor(model, spec)
    with flop_counter() as counter:
        results = [probe.confidences(predictor) for probe in probes]
    return results, ResourceReport.from_counter(counter)
