"""Sparse FFT for frequency-sparse collision spectra (§10).

A collision of m tags is m narrow spikes in a large spectrum — exactly the
frequency-sparse regime where sub-linear Fourier algorithms apply. The
Caraoke hardware uses the sFFT of Hassanieh et al. to cut compute and
power; this module implements the *exactly-sparse* flavour built from:

1. **Aliasing bucketization**: subsampling the time signal by L folds the
   N-bin spectrum onto B = N/L buckets; each spike lands in bucket
   ``k mod B``.
2. **Phase-offset location**: the same bucketization computed from the
   signal shifted by one sample multiplies each spike by ``exp(j2 pi k/N)``;
   for a singleton bucket, the phase ratio of the two bucket values reveals
   the spike's (possibly fractional) frequency directly.
3. **Voting across random circular shifts** to reject buckets where two
   spikes collided and to stabilize the estimates.

The implementation is honest about its domain: it targets signals whose
energy is dominated by a handful of tones (our collisions) and trades the
heavy flat-window machinery of the full sFFT for a refinement pass using
exact single-frequency DFT probes. Complexity is
``O(shifts * B log B + k * N_probe)`` versus ``O(N log N)`` for the FFT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, SpectrumError
from ..utils import as_rng

__all__ = ["SparseTone", "sparse_fft_peaks"]

#: Independent random-offset bucketizations each call votes across.
_N_SHIFTS = 3

#: Buckets (and vote clusters) weaker than this fraction of the strongest
#: one are treated as empty.
_MAGNITUDE_FLOOR_RATIO = 0.05


@dataclass(frozen=True)
class SparseTone:
    """One recovered spectral component.

    Attributes:
        freq_bin: fractional bin index in [0, N).
        amplitude: complex amplitude (same normalization as ``fft/N``).
        votes: number of subsampling shifts that agreed on this tone.
    """

    freq_bin: float
    amplitude: complex
    votes: int

    def freq_hz(self, sample_rate_hz: float, n_samples: int) -> float:
        return self.freq_bin * sample_rate_hz / n_samples


def _bucketize(x: np.ndarray, stride: int, n_buckets: int, shift: int) -> np.ndarray:
    """FFT of ``n_buckets`` samples of the stride-decimated signal.

    Decimating by ``stride`` folds the spectrum modulo ``fs/stride``; the
    B-point FFT then bins the folded band. Two tones collide only when
    their *folded* frequencies fall in the same bucket, so passes with
    different strides see different collision patterns — the off-grid-safe
    stand-in for the full sFFT's random spectral permutations (index
    permutations shatter tones that are not exactly on the N-point grid).

    Raises:
        SpectrumError: if the capture cannot supply ``n_buckets`` samples
            at this stride/shift — a short FFT would silently misindex
            every bucket (bucket k would no longer mean folded bin k).
    """
    segment = x[shift::stride][:n_buckets]
    if segment.size != n_buckets:
        raise SpectrumError(
            f"bucketization needs {n_buckets} samples but only {segment.size} "
            f"fit (N={x.size}, stride={stride}, shift={shift})"
        )
    return np.fft.fft(segment) / n_buckets


def _probe_indices(n: int, rng, n_sub: int = 4096) -> np.ndarray:
    """A random arithmetic progression of sample indices (mod n).

    Probing a *known* frequency needs no contiguous window; a random odd
    stride turns other tones' leakage into low-level noise while keeping
    the probe O(n_sub) — this is what keeps verification sub-linear.
    """
    if n <= n_sub:
        return np.arange(n)
    step = int(rng.integers(1, n // 2)) * 2 + 1  # odd, so it cycles mod 2^a
    start = int(rng.integers(0, n))
    return (start + step * np.arange(n_sub)) % n


def _scalloping_factors(offset_buckets: np.ndarray, n_buckets: int) -> np.ndarray:
    """Complex Dirichlet response of tones ``offset_buckets`` off their
    bucket centers: magnitude loss *and* phase rotation, elementwise."""
    delta = np.asarray(offset_buckets, dtype=np.float64)
    magnitude = np.sin(np.pi * delta) / (n_buckets * np.sin(np.pi * delta / n_buckets))
    phase = -np.pi * delta * (n_buckets - 1) / n_buckets
    return np.where(
        np.abs(delta) < 1e-9, 1.0 + 0.0j, magnitude * np.exp(1j * phase)
    )


def sparse_fft_peaks(
    x: np.ndarray,
    max_tones: int,
    n_buckets: int | None = None,
    rng=None,
) -> list[SparseTone]:
    """Recover the dominant tones of a frequency-sparse signal.

    When fewer than ``max_tones`` tones survive, the call retries with
    doubled bucket counts (guaranteed recovery, up to a full FFT at
    B == N).

    Args:
        x: complex time signal of length N (N divisible by the bucket count).
        max_tones: recover at most this many tones.
        n_buckets: bucket count B; defaults to the smallest power of two
            >= 8 * max_tones (keeps the per-bucket collision probability low).
        rng: seedable randomness for the shift choices.

    Returns:
        Recovered tones sorted by descending magnitude.

    Raises:
        ConfigurationError: if N is not divisible by the bucket count.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    if n == 0:
        raise SpectrumError("empty input")
    if n_buckets is None:
        n_buckets = 8
        while n_buckets < 8 * max_tones:
            n_buckets *= 2
        n_buckets = min(n_buckets, n)
    if n % n_buckets:
        raise ConfigurationError(f"N={n} not divisible by B={n_buckets}")
    stride = n // n_buckets
    rng = as_rng(rng)

    # Each pass uses a random base offset and its own decimation stride;
    # folding happens modulo fs/stride, so tone pairs that collide at one
    # stride separate at another. Within a pass, the tone frequency is
    # recovered by MULTI-SCALE phase refinement: the bucket's phase
    # advances by 2*pi*k*tau/N under a tau-sample shift, so doubling tau
    # repeatedly halves the frequency uncertainty (a two-sample phase
    # ratio alone has error ~ N / (2 pi SNR) bins — useless at realistic
    # per-bucket SNR).
    strides = []
    candidate = min(stride, max(n // (2 * n_buckets), 2))
    while len(strides) < _N_SHIFTS and candidate >= 2:
        strides.append(candidate)
        candidate -= 1
    votes: list[tuple[float, complex]] = []
    for pass_stride in strides:
        span = (n_buckets - 1) * pass_stride
        headroom = n - span - 2
        if headroom < 2:
            continue
        tau_max = 1
        while tau_max * 2 <= headroom // 2:
            tau_max *= 2
        base = int(rng.integers(0, max(min(pass_stride, headroom - tau_max), 1)))
        z0 = _bucketize(x, pass_stride, n_buckets, base)
        mags = np.abs(z0)
        floor = _MAGNITUDE_FLOOR_RATIO * float(mags.max()) if mags.max() > 0 else 0.0
        occupied = np.flatnonzero(mags > floor)
        # Strongest buckets first; cap the work at a few times max_tones.
        occupied = occupied[np.argsort(-mags[occupied])][: 4 * max_tones]
        if occupied.size == 0:
            continue
        # Bucketize at every shift scale once; all candidate buckets share them.
        taus = []
        tau = 1
        while tau <= tau_max:
            taus.append(tau)
            tau *= 2
        z_shifted = {t: _bucketize(x, pass_stride, n_buckets, base + t) for t in taus}
        # The whole candidate chain — coarse phase-ratio estimate,
        # multi-scale refinement, aliasing consistency, scalloping
        # correction — runs vectorized over the occupied buckets; a
        # bucket failing any gate is masked out instead of `continue`d
        # (its k stops mattering once masked, so the masked updates are
        # equivalent to the per-bucket early exit).
        z0o = z0[occupied]
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = z_shifted[1][occupied] / z0o
            mag_ratio = np.abs(ratio)
            ok = (np.abs(z0o) != 0.0) & (0.5 < mag_ratio) & (mag_ratio < 2.0)
            # Scale 1 gives the coarse, ambiguity-free estimate.
            k = (np.angle(ratio) / (2.0 * np.pi) * n) % n
            # Successive refinement: each scale corrects k within its
            # unambiguous window N / (2 tau).
            for t in taus[1:]:
                measured = np.angle(z_shifted[t][occupied] / z0o)
                predicted = 2.0 * np.pi * k * t / n
                delta = (measured - predicted + np.pi) % (2.0 * np.pi) - np.pi
                correction = delta * n / (2.0 * np.pi * t)
                ok &= np.abs(correction) <= n / (2.0 * t)
                k = np.where(ok, (k + correction) % n, k)
            # Consistency: a tone at k must alias into bucket b under this
            # pass's folding (modulo fs/stride, binned to n_buckets).
            folded = ((k * pass_stride / n) % 1.0) * n_buckets
            signed_offset = (
                folded - occupied + n_buckets / 2.0
            ) % n_buckets - n_buckets / 2.0
            ok &= np.abs(signed_offset) <= 1.0
            factor = _scalloping_factors(signed_offset, n_buckets)
            ok &= np.abs(factor) >= 0.2
            amplitude = z0o * np.exp(-2j * np.pi * k * base / n) / factor
        for i in np.flatnonzero(ok):
            votes.append((float(k[i]), complex(amplitude[i])))

    # Cluster votes within one full-FFT bin of each other. Strongest
    # first; each vote merges into the first (oldest) cluster within
    # reach, with centers compared vectorized against the whole cluster
    # list at once.
    votes.sort(key=lambda item: -abs(item[1]))
    centers = np.empty(len(votes))
    amps = np.empty(len(votes), dtype=np.complex128)
    weights = np.zeros(len(votes), dtype=np.int64)
    n_clusters = 0
    for k, amplitude in votes:
        hit = -1
        if n_clusters:
            d = np.abs(centers[:n_clusters] - k)
            hits = np.flatnonzero(np.minimum(d, n - d) <= 1.5)
            if hits.size:
                hit = int(hits[0])
        if hit >= 0:
            w = weights[hit]
            centers[hit] = (centers[hit] * w + k) / (w + 1)
            amps[hit] = (amps[hit] * w + amplitude) / (w + 1)
            weights[hit] = w + 1
        else:
            centers[n_clusters] = k
            amps[n_clusters] = amplitude
            weights[n_clusters] = 1
            n_clusters += 1
    clusters: list[list[float | complex | int]] = [
        [float(centers[i]), complex(amps[i]), int(weights[i])]
        for i in range(n_clusters)
    ]

    # Verification + estimation: every surviving candidate's frequency is
    # touched up and its amplitude re-estimated with *subsampled* probes
    # (random arithmetic progressions, O(n_sub) each) — unbiased at a
    # known frequency, and near-zero at a ghost's frequency (ghosts come
    # from partially collided buckets whose phase-ratio estimate points
    # at empty spectrum). All candidates refine in lockstep: one
    # (3, C, n_sub) probe tensor per parabolic round instead of a
    # Python loop of single probes.
    indices = _probe_indices(n, rng)
    tones: list[SparseTone] = []
    cand = clusters[: 4 * max_tones]
    if cand:
        # Clusters below the magnitude floor are bucket-noise ghosts;
        # probing them would dominate the verification cost (and they
        # could not survive the relative-magnitude filter below anyway).
        top_coarse = max(abs(c[1]) for c in cand)
        cand = [c for c in cand if abs(c[1]) >= _MAGNITUDE_FLOOR_RATIO * top_coarse]
    if cand:
        ks = np.array([float(c[0]) % n for c in cand])
        coarse_amp = np.array([complex(c[1]) for c in cand])
        vote_counts = np.array([int(c[2]) for c in cand])
        xi = x[indices]
        span = 0.5
        for _ in range(2):
            kk = ks[None, :, None] + np.array([-span, 0.0, span])[:, None, None]
            probes = np.exp(-2j * np.pi * kk * indices[None, None, :] / n)
            mags = np.abs(np.mean(xi[None, None, :] * probes, axis=2))
            denom = mags[0] - 2.0 * mags[1] + mags[2]
            moved = denom != 0.0
            offset = np.zeros(ks.size)
            offset[moved] = 0.5 * (mags[0, moved] - mags[2, moved]) / denom[moved]
            ks = ks + np.clip(offset, -1.0, 1.0) * span
            span /= 2.0
        ks %= n
        probed = np.mean(
            xi[None, :] * np.exp(-2j * np.pi * ks[:, None] * indices[None, :] / n),
            axis=1,
        )
        # Ghosts: the spectrum is empty at the candidate's frequency.
        keep = np.abs(probed) >= 0.4 * np.abs(coarse_amp)
        for i in np.flatnonzero(keep):
            tones.append(
                SparseTone(float(ks[i]), complex(probed[i]), int(vote_counts[i]))
            )

    # Drop ghosts (validated amplitude collapses) and duplicates.
    if tones:
        strongest = max(abs(tone.amplitude) for tone in tones)
        tones = [t_ for t_ in tones if abs(t_.amplitude) >= 0.1 * strongest]
    deduped: list[SparseTone] = []
    kept_bins = np.empty(len(tones))
    for tone in sorted(tones, key=lambda t_: -abs(t_.amplitude)):
        if deduped:
            d = np.abs(kept_bins[: len(deduped)] - tone.freq_bin)
            if float(np.minimum(d, n - d).min()) <= 1.0:
                continue
        kept_bins[len(deduped)] = tone.freq_bin
        deduped.append(tone)

    # Fallback: if bucket collisions swallowed tones, retry with more
    # buckets (collision probability shrinks as 1/B; at B == N this is a
    # full FFT, so termination is guaranteed).
    if len(deduped) < max_tones and n_buckets < n:
        wider = sparse_fft_peaks(
            x, max_tones=max_tones, n_buckets=min(2 * n_buckets, n), rng=rng
        )
        for tone in wider:
            if all(
                min(abs(tone.freq_bin - d.freq_bin), n - abs(tone.freq_bin - d.freq_bin)) > 1.0
                for d in deduped
            ):
                deduped.append(tone)
        if deduped:
            strongest = max(abs(tone.amplitude) for tone in deduped)
            deduped = [t_ for t_ in deduped if abs(t_.amplitude) >= 0.1 * strongest]

    deduped.sort(key=lambda t_: -abs(t_.amplitude))
    return deduped[:max_tones]
