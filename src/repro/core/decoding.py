"""Decoding transponder IDs from collisions by coherent combining (§8).

A band-pass filter around the tag's CFO cannot decode OOK — the data
energy is spread across the band, not parked at the spike (§8 opening; the
failing baseline lives in :mod:`repro.baselines.bandpass_decoder`).
Instead, Caraoke queries repeatedly. Each response j of the target tag
arrives with a fresh channel-plus-phase ``h_j`` (tags restart their
oscillator phase randomly) which the reader *measures from the spike
itself* (Eq 5), then compensates:

    ``acc(t) += r_j(t) * exp(-j 2 pi cfo t) / h_j``

The target's chips add coherently (amplitude N after N queries) while
every other tag adds with i.i.d. random phases (amplitude ~ sqrt(N)), so
the target's SNR grows ~N and eventually its 256 bits demodulate and pass
the CRC — the stopping rule of §12.4. Expected cost: interferer power
relative to the target sets N, hence decode time grows with the number of
colliding tags (Fig 16: ~4 ms at 2 tags, ~16 ms at 5, tens of ms at 10).

The reader captures on *three* antennas (Fig 6), and §8 notes the
captures can also be combined *across* antennas: each antenna's channel
comes from the same Eq 5 readout, so the K compensated copies of one
response are maximum-ratio combined into a single row before it enters
the accumulator.  With per-antenna channels ``h_a`` the MRC reduction is

    ``y_j(t) = sum_a conj(h_{j,a}) r_{j,a}(t) / sum_a |h_{j,a}|^2``

— unbiased in the target's chips (like ``r/h``) with noise variance cut
by ``sum_a |h_a|^2 / |h_0|^2`` (~K for comparable antennas), which shows
up directly as ~K-fold fewer queries on the Fig 16 workload.

Two execution paths implement the same math:

* :meth:`CoherentDecoder.decode` — the direct, per-capture reference
  algorithm, kept deliberately simple (it *is* §8 as written,
  single-antenna).
* :class:`MultiTargetCombiner` — the production path used by
  :class:`DecodeSession` and the corridor's station rounds.
  It is **incremental** (per-(target, antenna) accumulator rows advance
  one capture at a time and never re-sum their prefix), attempts
  demodulation only at *new* capture counts, and is **batched** across
  targets: each capture's channel estimates for every (target, antenna)
  come from one matrix product and every target's CFO phasor is built in
  one broadcast pass.  Its ``combining`` policy selects ``"mrc"``
  (default: all antennas, maximum-ratio) or ``"single"`` (one antenna —
  the pre-multi-antenna numerics, kept bit-for-bit as the ablation
  baseline).  A :class:`DecodeSession` also folds in captures donated
  to it — windows overheard from other readers — as free evidence;
  which windows to harvest is the caller's choice (one policy per city
  corridor).

A key algebraic identity makes the batched path cheap.  The compensated
capture is ``r_j(t) exp(-j 2 pi f t) / h_j`` with absolute time
``t = t0_j + tau``.  The channel estimate is read off the capture itself,
``h_j = 2 mean(r_j(t) exp(-j 2 pi f t))`` (Eq 5), so the absolute-time
rotation ``exp(-j 2 pi f t0_j)`` cancels between numerator and channel:
the accumulator factors as ``phasor(tau) * sum_j r_j(tau) / (2 q_j)``
where ``q_j = mean(r_j(tau) phasor(tau))`` is a single dot product per
(capture, target, antenna) and ``phasor`` is computed once per target.
The same cancellation holds per antenna, so the MRC reduction needs only
the ``q_{j,a}`` matrix — no second pass over the samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..constants import PACKET_BITS, QUERY_PERIOD_S
from ..errors import ConfigurationError, CrcError, DecodingError, ModulationError, PacketError
from ..phy.modulation import OokModulator
from ..phy.packet import TransponderPacket
from ..phy.waveform import Waveform
from .cfo import estimate_channel, refine_frequency

__all__ = ["DecodeResult", "CoherentDecoder", "MultiTargetCombiner", "DecodeSession"]

#: Valid cross-antenna combining policies.
COMBINING_POLICIES = ("mrc", "single")

#: A donated capture is combined for a target only when the target's
#: spike power at the capture exceeds this multiple of the per-bin
#: noise-plus-interference floor (~10.8 dB). An overheard window need
#: not contain the target at all (the tag may be out of the donor
#: query's range), and a target-absent capture would be combined
#: through a noise-dominated Eq 5 estimate — the probe keeps that
#: garbage out. Present-but-weak spikes that pass are further
#: inverse-variance weighted against the target's own captures (see
#: ``MultiTargetCombiner._combine``), so they shave variance instead of
#: amplifying their noise into the accumulator.
OVERHEARD_PROBE_THRESHOLD = 12.0


def validate_combining(combining: str) -> str:
    """Validate a combining policy: ``"mrc"`` (all antennas, maximum-ratio)
    or ``"single"`` (one-antenna ablation baseline)."""
    if combining not in COMBINING_POLICIES:
        raise ConfigurationError(
            f"unknown combining policy {combining!r}; options: {COMBINING_POLICIES}"
        )
    return combining


@dataclass
class DecodeResult:
    """Outcome of decoding one target tag.

    Attributes:
        packet: the recovered packet, or None if the budget ran out.
        n_queries: collisions combined before the CRC passed.
        cfo_hz: the refined CFO used for compensation.
        identification_time_s: queries x :data:`~repro.constants.QUERY_PERIOD_S`
            — the Fig 16 metric.
        channels: per-antenna channel evidence accumulated while decoding
            (None before any capture was combined).  Entry ``a`` is
            ``sum_j q_{j,a} conj(q_{j,0})`` over the combined captures —
            each response's random phase cancels against the reference
            antenna, so the terms add coherently and *cross-antenna
            ratios* converge on the true channel ratios ``h_a / h_b``.
            Those ratios are exactly the Eq 10 phase differences, which is
            what lets localization consume decode output directly instead
            of re-reading spectra.
        n_overheard: overheard (donated) captures combined on top of the
            ``n_queries`` own captures. They are free evidence — air time
            another reader already spent — so they never enter
            :attr:`identification_time_s`.
    """

    packet: TransponderPacket | None
    n_queries: int
    cfo_hz: float
    channels: np.ndarray | None = None
    n_overheard: int = 0

    @property
    def success(self) -> bool:
        return self.packet is not None

    @property
    def n_antennas(self) -> int:
        """How many antennas contributed channel evidence."""
        return 0 if self.channels is None else int(self.channels.size)

    @property
    def identification_time_s(self) -> float:
        return self.n_queries * QUERY_PERIOD_S

    @property
    def identification_time_ms(self) -> float:
        return self.identification_time_s * 1e3


class CoherentDecoder:
    """Combines repeated collision captures to decode one tag (§8)."""

    def __init__(self, sample_rate_hz: float):
        self.sample_rate_hz = sample_rate_hz
        self._modulator = OokModulator(sample_rate_hz=sample_rate_hz)

    def decode(self, captures: list[Waveform], target_cfo_hz: float) -> DecodeResult:
        """Decode by accumulating captures until the packet checks out.

        This is the reference single-target, single-antenna algorithm; it
        recomputes the compensation of every capture from scratch.
        Repeated-query pipelines should use :class:`DecodeSession` (or
        :class:`MultiTargetCombiner` directly), which share work across
        targets, antennas and retries.

        Args:
            captures: single-antenna captures, one per query, all aligned
                to their response start.
            target_cfo_hz: the target's spike frequency (from counting),
                sub-bin refined on the first capture.

        Returns:
            A :class:`DecodeResult`; ``packet`` is None if all captures
            were consumed without a CRC pass.
        """
        if not captures:
            raise DecodingError("no captures supplied")
        cfo = self.refine_cfo(captures[0], target_cfo_hz)
        accumulator = np.zeros(captures[0].n_samples, dtype=np.complex128)
        for j, capture in enumerate(captures, start=1):
            accumulator += self._compensated(capture, cfo)
            packet = self._try_demodulate(accumulator)
            if packet is not None:
                return DecodeResult(packet=packet, n_queries=j, cfo_hz=cfo)
        return DecodeResult(packet=None, n_queries=len(captures), cfo_hz=cfo)

    def refine_cfo(self, capture: Waveform, cfo_hz: float) -> float:
        """Sub-bin refine a spike frequency on one capture (§3)."""
        return refine_frequency(
            capture, cfo_hz, span_hz=capture.sample_rate_hz / capture.n_samples / 2.0
        )

    # -- internals ---------------------------------------------------------------

    def _compensated(self, capture: Waveform, cfo_hz: float) -> np.ndarray:
        """One capture, CFO-removed and divided by its own channel estimate."""
        h = estimate_channel(capture, cfo_hz)
        if h == 0:
            raise DecodingError("zero channel estimate for target")
        t = capture.times()
        return capture.samples * np.exp(-2j * np.pi * cfo_hz * t) / h

    def _try_demodulate(
        self, accumulator: np.ndarray | None = None, bits: np.ndarray | None = None
    ) -> TransponderPacket | None:
        """Matched-filter, Manchester-decode and CRC-check the average.

        One call is one demodulation attempt. Batched callers that have
        already matched-filtered and sliced a whole cohort pass ``bits``
        directly; the outcome is identical to passing the accumulator.
        """
        try:
            if bits is None:
                bits = self._modulator.demodulate_soft(accumulator, n_bits=PACKET_BITS)
            return TransponderPacket.from_bits(bits)
        except (CrcError, PacketError, ModulationError):
            return None


class MultiTargetCombiner:
    """Incremental, batched coherent recombination of shared captures.

    Holds one accumulator row per (target, antenna) over a single stream
    of captures (§12.4: the *same* collisions are recombined per target).
    Advancing a target by one capture costs one dot product per antenna
    (its channel estimates) and one broadcast add; nothing is ever
    re-summed, and demodulation is only attempted at capture counts not
    tried before — so a session that doubles its budget past a failure
    never repeats work.

    ``combining`` selects how a capture's antennas enter the rows:

    * ``"mrc"`` (default) — every antenna of the
      :class:`~repro.channel.collision.ReceivedCollision` contributes;
      per capture, the per-antenna Eq 5 readouts weight the compensated
      copies maximum-ratio, so the reduced cohort row is the
      minimum-variance unbiased estimate of the target's chips.
    * ``"single"`` — exactly one antenna (the first) feeds one row per
      target, reproducing the pre-multi-antenna pipeline bit-for-bit
      (the ablation baseline).

    Targets are identified by integer keys from :meth:`add_target` /
    :meth:`add_targets`. All per-target state lives in ``(T, A, N)``
    arrays so a cohort of targets advances through a capture with one
    matrix product and one broadcast add.  Bare :class:`Waveform`
    captures are accepted as one-antenna collisions.
    """

    def __init__(
        self,
        decoder: CoherentDecoder,
        n_samples: int,
        combining: str = "mrc",
        obs=None,
    ):
        if n_samples <= 0:
            raise DecodingError("combiner needs a positive capture length")
        self.decoder = decoder
        self.n_samples = int(n_samples)
        self.combining = validate_combining(combining)
        #: Nullable observability hook (see :mod:`repro.obs`): counts
        #: demodulation attempts and CRC passes.
        self.obs = obs
        self._tau = np.arange(self.n_samples) / decoder.sample_rate_hz
        self.cfos_hz = np.zeros(0, dtype=np.float64)
        self._phasors = np.zeros((0, self.n_samples), dtype=np.complex128)
        #: Antenna rows per target; fixed by the first combined capture.
        self.n_antennas: int | None = None
        self._acc: np.ndarray | None = None  # (T, A, N)
        #: Latest capture's per-antenna Eq 5 readout ``h = 2 q`` (T, A).
        self._latest_channels: np.ndarray | None = None
        #: Cross-antenna channel evidence ``sum_j q_{j,a} conj(q_{j,0})``.
        self._channel_acc: np.ndarray | None = None
        self.n_combined = np.zeros(0, dtype=np.int64)
        #: Overheard (donated) captures combined per target, on top of
        #: the shared main stream counted by ``n_combined``.
        self.n_extra = np.zeros(0, dtype=np.int64)
        #: Summed spike power of own-stream captures per target — the
        #: baseline donated captures are inverse-variance weighted
        #: against (see :meth:`advance_extra`).
        self._own_power = np.zeros(0, dtype=np.float64)
        self.n_attempted = np.zeros(0, dtype=np.int64)
        self._results: list[DecodeResult | None] = []

    @property
    def n_targets(self) -> int:
        return len(self._results)

    def add_targets(self, cfos_hz: list[float]) -> list[int]:
        """Register targets; their CFO phasors are built in one broadcast."""
        if not len(cfos_hz):
            return []
        cfos = np.asarray(cfos_hz, dtype=np.float64)
        first = self.n_targets
        phasors = np.exp(-2j * np.pi * cfos[:, None] * self._tau[None, :])
        self.cfos_hz = np.concatenate([self.cfos_hz, cfos])
        self._phasors = np.vstack([self._phasors, phasors])
        if self._acc is not None:
            a = self._acc.shape[1]
            self._acc = np.concatenate(
                [self._acc, np.zeros((cfos.size, a, self.n_samples), dtype=np.complex128)]
            )
            self._latest_channels = np.vstack(
                [self._latest_channels, np.zeros((cfos.size, a), dtype=np.complex128)]
            )
            self._channel_acc = np.vstack(
                [self._channel_acc, np.zeros((cfos.size, a), dtype=np.complex128)]
            )
        self.n_combined = np.concatenate(
            [self.n_combined, np.zeros(cfos.size, dtype=np.int64)]
        )
        self.n_extra = np.concatenate(
            [self.n_extra, np.zeros(cfos.size, dtype=np.int64)]
        )
        self._own_power = np.concatenate(
            [self._own_power, np.zeros(cfos.size, dtype=np.float64)]
        )
        self.n_attempted = np.concatenate(
            [self.n_attempted, np.zeros(cfos.size, dtype=np.int64)]
        )
        self._results.extend([None] * cfos.size)
        return list(range(first, self.n_targets))

    def add_target(self, cfo_hz: float) -> int:
        """Register one target (already-refined CFO); returns its key."""
        return self.add_targets([float(cfo_hz)])[0]

    def decoded(self, key: int) -> bool:
        """Whether the target's packet has passed its CRC."""
        return self._results[key] is not None

    def evidence_count(self, key: int) -> int:
        """Captures combined for the target: own stream plus overheard."""
        return int(self.n_combined[key] + self.n_extra[key])

    def channel_estimates(self, key: int) -> np.ndarray | None:
        """Per-antenna Eq 5 channel readout from the *latest* capture.

        ``h_a = 2 q_a`` including that response's random phase — directly
        comparable to the synthesis ground truth
        (:class:`~repro.channel.collision.TruthEntry.channels`) of the
        capture it was read from.  None before any capture was combined.
        """
        if self._latest_channels is None or self.n_combined[key] == 0:
            return None
        return self._latest_channels[key].copy()

    def accumulated_channels(self, key: int) -> np.ndarray | None:
        """Cross-antenna channel evidence summed over combined captures.

        See :attr:`DecodeResult.channels` for the semantics (per-response
        phases cancel against antenna 0, so ratios estimate ``h_a/h_b``
        with SNR growing in the number of captures).
        """
        if self._channel_acc is None or self.n_combined[key] == 0:
            return None
        return self._channel_acc[key].copy()

    def result(self, key: int, max_queries: int | None = None) -> DecodeResult:
        """The target's outcome so far.

        A success is returned as recorded; otherwise a failure result is
        minted reporting how many captures were combined (capped at
        ``max_queries`` when given, mirroring a budget-limited run).
        """
        recorded = self._results[key]
        if recorded is not None:
            return recorded
        n = int(self.n_combined[key])
        if max_queries is not None:
            n = min(n, int(max_queries))
        return DecodeResult(
            packet=None,
            n_queries=n,
            cfo_hz=float(self.cfos_hz[key]),
            channels=self.accumulated_channels(key),
            n_overheard=int(self.n_extra[key]),
        )

    def advance(self, keys: list[int], captures: list, upto: int) -> None:
        """Advance targets through ``captures[:upto]``, incrementally.

        ``captures`` holds :class:`~repro.channel.collision.ReceivedCollision`
        objects (a bare :class:`Waveform` is treated as a one-antenna
        collision).  Each target combines only captures beyond its own
        prefix and attempts demodulation only at capture counts above its
        previous attempt — the §12.4 stopping rule without quadratic
        re-work.
        """
        upto = min(int(upto), len(captures))
        keys = list(dict.fromkeys(keys))  # duplicates would double-combine
        pending = [
            k for k in keys if self._results[k] is None and self.n_combined[k] < upto
        ]
        if not pending:
            return
        # Decoded targets ride along in the combine cohorts: their rows
        # keep accumulating (harmless — their result is recorded) so that
        # lockstep batches stay on the full-matrix fast path instead of
        # falling back to gather/scatter indexing as targets finish.
        cohorts = list(keys)
        start = int(min(self.n_combined[k] for k in pending))
        for j in range(start, upto):
            cohort = np.array(
                [k for k in cohorts if self.n_combined[k] == j], dtype=np.intp
            )
            if cohort.size:
                self._combine(cohort, captures[j])
                self.n_combined[cohort] += 1
                self._attempt(cohort)
                pending = [k for k in pending if self._results[k] is None]
                if not pending:
                    return

    def advance_extra(self, keys: list[int], capture) -> list[int]:
        """Fold one *donated* capture into targets' rows as free evidence.

        Donated captures (e.g. a window overheard from a neighboring
        reader's query) advance the demod accumulators like main-stream
        captures — inverse-variance weighted, see :meth:`_combine` — but
        are tallied separately in ``n_extra`` (no air time, never in a
        result's ``n_queries``) and contribute nothing to the
        cross-antenna channel evidence (their geometry is stale by up to
        the harvest horizon, which would bias the Eq 10 AoA readout).
        Demodulation is attempted at the new total evidence count.
        Already-decoded targets are skipped; returns the keys actually
        advanced.
        """
        cohort = np.array(
            [k for k in dict.fromkeys(keys) if self._results[k] is None],
            dtype=np.intp,
        )
        if not cohort.size:
            return []
        self._combine(cohort, capture, extra=True)
        self.n_extra[cohort] += 1
        self._attempt(cohort)
        return [int(k) for k in cohort]

    # -- internals ---------------------------------------------------------------

    def _antenna_rows(self, capture) -> np.ndarray:
        """The capture's antenna streams as an (A, N) matrix.

        ``"single"`` slices out the first antenna; ``"mrc"`` stacks every
        antenna of the collision.  A bare waveform is one antenna either
        way.
        """
        if isinstance(capture, Waveform):
            rows = capture.samples[None, :]
        elif self.combining == "single":
            rows = capture.antennas[0].samples[None, :]
        else:
            rows = np.stack([wave.samples for wave in capture.antennas])
        if rows.shape[1] != self.n_samples:
            raise DecodingError(
                f"capture length {rows.shape[1]} does not match combiner "
                f"({self.n_samples})"
            )
        return rows

    def _ensure_rows(self, n_antennas: int) -> None:
        """Grow the accumulators to hold at least ``n_antennas`` rows.

        Captures may disagree on antenna count (a legacy one-antenna
        waveform seeded into a three-antenna stream, a degraded element):
        each capture contributes to the rows it has, zero-padded rows
        simply hold no evidence yet, and the MRC weights normalize per
        capture — so mixed streams stay well-defined instead of erroring.
        """
        n_antennas = int(n_antennas)
        if self.n_antennas is None:
            self.n_antennas = n_antennas
            self._acc = np.zeros(
                (self.n_targets, self.n_antennas, self.n_samples), dtype=np.complex128
            )
            self._latest_channels = np.zeros(
                (self.n_targets, self.n_antennas), dtype=np.complex128
            )
            self._channel_acc = np.zeros(
                (self.n_targets, self.n_antennas), dtype=np.complex128
            )
        elif n_antennas > self.n_antennas:
            grow = n_antennas - self.n_antennas
            self._acc = np.concatenate(
                [
                    self._acc,
                    np.zeros(
                        (self.n_targets, grow, self.n_samples), dtype=np.complex128
                    ),
                ],
                axis=1,
            )
            self._latest_channels = np.concatenate(
                [
                    self._latest_channels,
                    np.zeros((self.n_targets, grow), dtype=np.complex128),
                ],
                axis=1,
            )
            self._channel_acc = np.concatenate(
                [
                    self._channel_acc,
                    np.zeros((self.n_targets, grow), dtype=np.complex128),
                ],
                axis=1,
            )
            self.n_antennas = n_antennas

    def _combine(self, cohort: np.ndarray, capture, extra: bool = False) -> None:
        """Fold one capture into every cohort accumulator row (batched).

        ``extra`` marks a donated (overheard) capture: its contribution
        is inverse-variance weighted against the target's mean own-stream
        spike power. An own capture enters at weight 1 (``x / 2q``, whose
        noise scales as ``1/|h|``); a donated capture whose channel is
        ``w`` times weaker in power enters at weight ``min(1, w)``, so
        strong overheard evidence counts like an own query while a weak
        window shaves variance instead of amplifying its noise into the
        accumulator. Own-stream numerics are untouched.
        """
        rows = self._antenna_rows(capture)
        self._ensure_rows(rows.shape[0])
        # One matrix product gives every (target, antenna) channel readout
        # q = mean(x * phasor); the absolute-time rotation cancels against
        # Eq 5's channel estimate (see module docstring). The full-matrix
        # fast path requires the cohort in target order: per-target state
        # (own-power baselines, weights) is indexed by cohort, so a
        # *permuted* whole cohort must take the gather path.
        whole = cohort.size == self.n_targets and np.array_equal(
            cohort, np.arange(self.n_targets)
        )
        phasors = self._phasors if whole else self._phasors[cohort]
        if self.combining == "single":
            x = rows[0]
            q = phasors @ x / self.n_samples
            if np.any(q == 0):
                raise DecodingError("zero channel estimate for target")
            spike_power = np.abs(q) ** 2
            scale = self._extra_weight(cohort, spike_power, extra)
            contribution = x[None, :] / (2.0 * q[:, None])
            if scale is not None:
                contribution = contribution * scale[:, None]
            if whole:
                self._acc[:, 0, :] += contribution
            else:
                self._acc[cohort, 0, :] += contribution
            channels = q[:, None]
        else:
            q = phasors @ rows.T / self.n_samples  # (T_c, A)
            power = np.einsum("ka,ka->k", q, q.conj()).real
            if np.any(power == 0):
                raise DecodingError("zero channel estimate for target")
            scale = self._extra_weight(cohort, power, extra)
            # Maximum-ratio rows: antenna a's compensated copy x_a/(2 q_a)
            # weighted by |q_a|^2 / sum|q|^2 is conj(q_a) x_a / (2 sum|q|^2)
            # — no per-antenna division, so a dead antenna just drops out.
            weights = q.conj() / (2.0 * power[:, None])
            if scale is not None:
                weights = weights * scale[:, None]
            contribution = weights[:, :, None] * rows[None, :, :]
            if whole:
                self._acc[:, : rows.shape[0], :] += contribution
            else:
                self._acc[cohort, : rows.shape[0], :] += contribution
            channels = q
        if extra:
            # Donated captures feed the demod accumulator only. Their
            # channel readouts are valid but *stale geometry* — the tag
            # sat elsewhere when the overheard window was transmitted
            # (up to the harvest horizon ago, metres at city speeds) —
            # so folding them into the cross-antenna evidence would bias
            # the Eq 10 AoA readout localization consumes.
            return
        latest = np.zeros(
            (channels.shape[0], self.n_antennas), dtype=np.complex128
        )
        latest[:, : channels.shape[1]] = 2.0 * channels
        evidence = channels * channels[:, :1].conj()
        if whole:
            self._latest_channels[:] = latest
            self._channel_acc[:, : channels.shape[1]] += evidence
        else:
            self._latest_channels[cohort] = latest
            self._channel_acc[cohort, : channels.shape[1]] += evidence

    def _extra_weight(
        self, cohort: np.ndarray, spike_power: np.ndarray, extra: bool
    ) -> np.ndarray | None:
        """Per-target weight for a donated capture (None = own, weight 1).

        Own captures also feed the running own-power baseline here. A
        donation arriving before any own capture (no baseline yet) enters
        at weight 1.
        """
        if not extra:
            self._own_power[cohort] += spike_power
            return None
        counts = self.n_combined[cohort]
        baseline = np.where(
            counts > 0, self._own_power[cohort] / np.maximum(counts, 1), spike_power
        )
        return np.minimum(1.0, spike_power / np.maximum(baseline, 1e-300))

    def _reduced(self, idx: np.ndarray) -> np.ndarray:
        """MRC-reduce the antenna rows of the indexed targets to (n, N)."""
        if self.combining == "single":
            return self._acc[idx, 0, :]
        if self.n_antennas == 1:
            return self._acc[idx, 0, :]
        return self._acc[idx].sum(axis=1)

    def _attempt(self, cohort: np.ndarray) -> None:
        """Try demodulation for cohort members with new evidence counts.

        A target's count is its total evidence (own stream plus donated
        extras); demodulation is attempted only at counts not tried
        before. The antenna rows are reduced to one cohort row per
        target first; the matched filter and Manchester comparison then
        run once for the whole cohort (matrix ops); packet parsing — one
        demodulation attempt per target — still goes through the
        decoder's ``_try_demodulate`` funnel.
        """
        pending = [
            int(k)
            for k in cohort
            if self._results[int(k)] is None
            and self.n_attempted[int(k)] < self.evidence_count(int(k))
        ]
        if not pending:
            return
        idx = np.asarray(pending, dtype=np.intp)
        reduced = self._reduced(idx)
        modulator = self.decoder._modulator
        spc = modulator.samples_per_chip
        n_chips = 2 * PACKET_BITS
        if self.n_samples < n_chips * spc:
            # Captures too short for a packet: the per-target reference
            # path raises (and swallows) the same ModulationError.
            bit_rows = None
        else:
            rows = (self._phasors[idx] * reduced).real
            soft = (
                np.add.reduce(
                    rows[:, : n_chips * spc].reshape(idx.size, n_chips, spc), axis=2
                )
                / spc
            )
            bit_rows = (soft[:, 0::2] > soft[:, 1::2]).astype(np.uint8)
        for i, k in enumerate(pending):
            self.n_attempted[k] = self.evidence_count(k)
            if bit_rows is None:
                packet = self.decoder._try_demodulate(self._phasors[k] * reduced[i])
            else:
                packet = self.decoder._try_demodulate(bits=bit_rows[i])
            if self.obs is not None:
                self.obs.count(
                    "combiner.attempt",
                    outcome="decoded" if packet is not None else "pending",
                )
            if packet is not None:
                self._results[k] = DecodeResult(
                    packet=packet,
                    n_queries=int(self.n_combined[k]),
                    cfo_hz=float(self.cfos_hz[k]),
                    channels=self.accumulated_channels(k),
                    n_overheard=int(self.n_extra[k]),
                )


@dataclass
class DecodeSession:
    """Decode *every* tag in range from one shared stream of queries (§12.4).

    The paper notes that decoding all colliding tags costs no more air
    time than decoding one: the same collisions are recombined per target
    with different CFO/channel compensation. The session issues queries
    through a callable (e.g. ``ParkedSource.query``) and feeds
    the full :class:`~repro.channel.collision.ReceivedCollision` stream to
    a :class:`MultiTargetCombiner`, so:

    * captures are issued lazily and reused across targets *and* budget
      doublings (a failed target retried with a larger ``max_queries``
      resumes where it stopped);
    * demodulation is attempted exactly once per (target, capture count);
    * targets decoded together advance through each capture as one batch;
    * with ``combining="mrc"`` (default) every antenna of every capture
      contributes, cutting the Fig 16 query counts ~K-fold for a K-antenna
      reader; ``combining="single"`` is the one-antenna ablation baseline
      and reproduces the pre-multi-antenna numerics bit-for-bit.

    The session is a cache of decoding evidence: once a target's packet
    has passed its CRC, later calls return that result even if asked with
    a smaller ``max_queries``.

    *Donated* captures offered via :meth:`donate_capture` (responses
    overheard from another reader's trigger window) are combined for
    every pending target whose spike the capture detectably contains —
    free evidence, excluded from ``n_queries``/air time. Whether to
    harvest and donate them is the caller's policy (the city corridor's
    ``opportunistic``); a session never donated to decodes from its own
    queries alone.

    Attributes:
        query_fn: ``query_fn(t_s) -> ReceivedCollision``.
        decoder: the coherent decoder to use.
        combining: ``"mrc"`` or ``"single"``.
        obs: nullable observability hook (see :mod:`repro.obs`): counts
            queries issued, seeded captures, donations held, and the
            CFAR probe's accept/reject verdicts on donated windows.
            Never affects decode results.
    """

    query_fn: object
    decoder: CoherentDecoder
    combining: str = "mrc"
    captures: list = field(default_factory=list)
    _next_query_s: float = 0.0
    _combiner: MultiTargetCombiner | None = field(default=None, repr=False)
    _target_keys: dict[float, int] = field(default_factory=dict, repr=False)
    _donations: list = field(default_factory=list, repr=False)
    obs: object = None

    def __post_init__(self) -> None:
        validate_combining(self.combining)

    def _ensure_captures(self, n: int) -> None:
        while len(self.captures) < n:
            collision = self.query_fn(self._next_query_s)
            self._next_query_s += QUERY_PERIOD_S
            self.captures.append(collision)
            if self.obs is not None:
                self.obs.count("decode.capture", kind="query")

    def readout_capture(self, index: int) -> Waveform:
        """The single waveform used for spike/CFO readout of one capture:
        the first antenna under either policy (sub-bin refinement needs
        one clean tone, and every antenna sees the same spike frequency).
        """
        capture = self.captures[index]
        if isinstance(capture, Waveform):
            return capture
        return capture.antennas[0]

    def _keys_for(self, target_cfos_hz: list[float]) -> list[int]:
        """Target keys for the requested CFOs, registering new ones."""
        fresh = list(
            dict.fromkeys(
                cfo for cfo in target_cfos_hz if cfo not in self._target_keys
            )
        )
        if fresh:
            self._ensure_captures(1)
            first = self.readout_capture(0)
            if self._combiner is None:
                self._combiner = MultiTargetCombiner(
                    self.decoder,
                    first.n_samples,
                    combining=self.combining,
                    obs=self.obs,
                )
            refined = [self.decoder.refine_cfo(first, cfo) for cfo in fresh]
            for cfo, key in zip(fresh, self._combiner.add_targets(refined)):
                self._target_keys[cfo] = key
        return [self._target_keys[cfo] for cfo in target_cfos_hz]

    def decode_target(self, target_cfo_hz: float, max_queries: int = 64) -> DecodeResult:
        """Decode one tag, issuing further queries only as needed.

        The capture budget grows geometrically; captures already issued
        (e.g. for a previous target) are reused for free, and so is all
        combining already done for this target.
        """
        return self._run(self._keys_for([target_cfo_hz]), max_queries)[0]

    def decode_all(
        self, target_cfos_hz: list[float], max_queries: int = 64
    ) -> dict[float, DecodeResult]:
        """Decode every listed tag from the shared capture stream.

        All targets advance through each capture together, so the whole
        batch costs one pass over the stream regardless of how many tags
        are being identified.
        """
        keys = self._keys_for(list(target_cfos_hz))
        results = self._run(keys, max_queries)
        return dict(zip(target_cfos_hz, results))

    def seed_capture(self, capture) -> None:
        """Feed an already-received capture into the shared stream.

        Lets a caller that has queried for other reasons (e.g. a
        counting/AoA measurement round) donate that capture to the
        decode stream, so identification reuses its air time (§12.4).
        Accepts a full :class:`~repro.channel.collision.ReceivedCollision`
        (preferred — MRC can use every antenna) or a bare
        :class:`Waveform` treated as a one-antenna capture.
        """
        self.captures.append(capture)
        self._next_query_s += QUERY_PERIOD_S
        if self.obs is not None:
            self.obs.count("decode.capture", kind="seeded")

    def donate_capture(self, capture) -> None:
        """Offer an *overheard* capture as free evidence (no air time).

        A capture of another reader's trigger window (e.g. synthesized
        by the city corridor's response pool) may contain this session's
        targets — their responses are the same physical transmissions,
        just received over this pole's geometry. The donation is held
        and, on the next decode run, combined for every still-pending
        target whose spike it detectably contains (see
        :data:`OVERHEARD_PROBE_THRESHOLD`). Donated captures never join
        :attr:`captures` — air-time accounting
        (:attr:`total_air_time_s`, ``DecodeResult.n_queries``) stays
        own-queries-only; their use is visible in
        ``DecodeResult.n_overheard``.
        """
        self._donations.append(capture)
        if self.obs is not None:
            self.obs.count("decode.donation", outcome="held")

    #: Half-width (in FFT bins) of the probe's local floor window, and
    #: how many center bins are excluded as the spike's own energy.
    _PROBE_FLOOR_HALF_BINS = 64
    _PROBE_SPIKE_GUARD_BINS = 2
    #: Shoulder offsets (in bins) the probed bin must dominate: energy
    #: *leaking* from another tag's spike a few bins away is always
    #: larger at bins nearer its true peak, so a probe reading that
    #: loses to its own shoulders is leakage, not the target.
    _PROBE_SHOULDER_BINS = (2, 3, 4, 5, 6)

    def _probe_spectra(self, rows: np.ndarray) -> np.ndarray:
        """Per-antenna power spectra of a donated capture (one FFT each,
        shared across every target probed against the capture)."""
        return np.abs(np.fft.fft(rows, axis=1)) ** 2 / rows.shape[1] ** 2

    def _spike_present(
        self,
        capture,
        key: int,
        rows: np.ndarray | None = None,
        spectra: np.ndarray | None = None,
    ) -> bool:
        """Whether a target's spike is detectably in a donated capture.

        The same one-dot readout as Eq 5, turned into a CFAR-style
        detector with two conditions: the target's bin power (summed
        over the antennas the combining policy uses) must exceed
        :data:`OVERHEARD_PROBE_THRESHOLD` times a *local* floor — the
        median bin power in a window around the target bin, spike bins
        excluded — and it must dominate its spectral shoulders. The local median tracks
        whatever sits there (thermal noise *and* other tags' OOK data
        sidebands); the shoulder test rejects *leakage* from a stronger
        tag a few bins away, which can beat any floor while peaking at
        its own bin, not the target's. Tags landing within a bin of each
        other remain indistinguishable — the §5 merge case.
        """
        combiner = self._combiner
        if rows is None:
            rows = combiner._antenna_rows(capture)
        if spectra is None:
            spectra = self._probe_spectra(rows)
        n = combiner.n_samples
        q = rows @ combiner._phasors[key] / n
        spike = float(np.sum(np.abs(q) ** 2))
        bin_index = int(round(float(combiner.cfos_hz[key]) / self.decoder.sample_rate_hz * n))
        half = self._PROBE_FLOOR_HALF_BINS
        guard = self._PROBE_SPIKE_GUARD_BINS
        neighborhood = np.arange(bin_index - half, bin_index + half + 1) % n
        keep = np.ones(neighborhood.size, dtype=bool)
        keep[half - guard : half + guard + 1] = False
        floor = float(np.median(spectra[:, neighborhood[keep]], axis=1).sum())
        if spike <= OVERHEARD_PROBE_THRESHOLD * floor:
            return False
        shoulder_bins = np.array(
            [(bin_index + s) % n for s in self._PROBE_SHOULDER_BINS]
            + [(bin_index - s) % n for s in self._PROBE_SHOULDER_BINS]
        )
        shoulder = float(spectra[:, shoulder_bins].sum(axis=0).max())
        return spike >= shoulder

    def _flush_donations(self, keys: list[int]) -> None:
        """Combine held donations for the pending targets that pass the
        spike probe; donations are consumed (at most one use each)."""
        if not self._donations:
            return
        donations, self._donations = self._donations, []
        for capture in donations:
            pending = [k for k in dict.fromkeys(keys) if not self._combiner.decoded(k)]
            if not pending:
                return
            rows = self._combiner._antenna_rows(capture)
            spectra = self._probe_spectra(rows)
            accepted = [
                k
                for k in pending
                if self._spike_present(capture, k, rows=rows, spectra=spectra)
            ]
            if self.obs is not None:
                self.obs.count("decode.probe", n=len(accepted), outcome="accepted")
                self.obs.count(
                    "decode.probe", n=len(pending) - len(accepted), outcome="rejected"
                )
            if accepted:
                self._combiner.advance_extra(accepted, capture)

    def _run(self, keys: list[int], max_queries: int) -> list[DecodeResult]:
        if not keys:
            return []
        combiner = self._combiner
        # A decode attempt always consumes at least one query on the air;
        # budgets below that would misreport the air time actually spent.
        max_queries = max(1, int(max_queries))
        n = 1
        while True:
            self._ensure_captures(n)
            combiner.advance(keys, self.captures, n)
            self._flush_donations(keys)
            if all(combiner.decoded(k) for k in keys) or n >= max_queries:
                return [combiner.result(k, max_queries=max_queries) for k in keys]
            n = min(2 * n, max_queries)

    @property
    def total_air_time_s(self) -> float:
        """Air time consumed so far (queries issued x period)."""
        return len(self.captures) * QUERY_PERIOD_S
