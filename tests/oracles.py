"""Independent oracles the test suite checks the implementation against.

Each oracle deliberately takes a different computational route from the code
under test: high-precision mpmath arithmetic and the incomplete-beta CDF
instead of float64 and the finite integer-df series,
O(n^2) counting ranks instead of sort-based ranking, exhaustive scans
instead of sort-and-slice selection.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

_DPS = 30  # ~1e-30 working precision, vastly inside the 1e-12 tolerance


@lru_cache(maxsize=None)
def t_quantile(p_float: float, df: int) -> mp.mpf:
    """Student-t quantile: Newton on the incomplete-beta CDF.

    Start is the classic normal-quantile expansion z + (z^3 + z)/(4 df);
    everything else is mpmath, so the root is pinned by mpmath's CDF alone.
    """
    with mp.workdps(_DPS):
        p = mp.mpf(p_float)
        half_df = mp.mpf(df) / 2
        half = mp.mpf(1) / 2

        def cdf(t: mp.mpf) -> mp.mpf:
            x = df / (df + t * t)
            return 1 - mp.betainc(half_df, half, 0, x, regularized=True) / 2

        log_norm = (
            mp.loggamma((df + 1) / mp.mpf(2))
            - mp.loggamma(half_df)
            - mp.log(df * mp.pi) / 2
        )

        def pdf(t: mp.mpf) -> mp.mpf:
            return mp.e ** (log_norm - (df + 1) / mp.mpf(2) * mp.log1p(t * t / df))

        z = mp.sqrt(2) * mp.erfinv(2 * p - 1)
        t = z + (z**3 + z) / (4 * df)
        for _ in range(60):
            step = (cdf(t) - p) / pdf(t)
            t -= step
            if abs(step) < mp.mpf(10) ** (-(_DPS - 4)) * max(1, abs(t)):
                break
        return t


def geomean_ci(values, confidence: float = 0.95):
    """(mean, ci_lo, ci_hi) of the offset geometric mean, at 50 digits."""
    with mp.workdps(_DPS):
        n = len(values)
        logs = [mp.log1p(mp.mpf(v)) for v in values]
        center = mp.fsum(logs) / n
        mean = mp.expm1(center)
        if n == 1:
            f = float(mean)
            return f, f, f
        variance = mp.fsum((y - center) ** 2 for y in logs) / (n - 1)
        se = mp.sqrt(variance / n)
        t = t_quantile(0.5 + confidence / 2.0, n - 1)
        return (
            float(mean),
            float(mp.expm1(center - t * se)),
            float(mp.expm1(center + t * se)),
        )


def counting_ranks(values) -> list[float]:
    """Average ranks by direct counting: (#less) + (#equal + 1) / 2."""
    return [
        sum(1 for w in values if w < v) + (sum(1 for w in values if w == v) + 1) / 2
        for v in values
    ]


def spearman(xs, ys) -> float | None:
    """Rank-then-Pearson with counting ranks and plain summation."""
    rx = counting_ranks(xs)
    ry = counting_ranks(ys)
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    sxx = sum((a - mx) ** 2 for a in rx)
    syy = sum((b - my) ** 2 for b in ry)
    if sxx == 0 or syy == 0:
        return None
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    return num / math.sqrt(sxx * syy)


def _beats(a: tuple, b: tuple) -> bool:
    """(share, total, doi) ranking: higher share, then higher total, then
    lexicographically smaller doi."""
    if a[0] != b[0]:
        return a[0] > b[0]
    if a[1] != b[1]:
        return a[1] > b[1]
    return a[2] < b[2]


def top_share(vectors: dict, min_total, k: int, sections) -> list[tuple]:
    """Exhaustive selection: repeated linear max-scans over all DOIs.

    vectors: doi -> {section: Fraction}. Returns (section, doi, share, total)
    tuples in section order then rank order.
    """
    min_total = Fraction(min_total)
    rows = []
    for section in sections:
        candidates = {}
        for doi, counts in vectors.items():
            total = sum(counts.values(), Fraction(0))
            if total >= min_total:
                candidates[doi] = (counts.get(section, Fraction(0)) / total, total)
        for _ in range(min(k, len(candidates))):
            best_doi = None
            best = None
            for doi, (share, total) in candidates.items():
                entry = (share, total, doi)
                if best is None or _beats(entry, best):
                    best = entry
                    best_doi = doi
            assert best is not None and best_doi is not None
            rows.append((section, best_doi, best[0], best[1]))
            del candidates[best_doi]
    return rows


def fold_merge(make_empty, merge_fn, parts):
    """Sequential left-fold merge, the reference for permutation invariance."""
    result = make_empty()
    for part in parts:
        result = merge_fn(result, part)
    return result
