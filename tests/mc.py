"""The Monte Carlo oracle's draw-then-multiply loop, one chunk at a time.

``mc_reference`` is the serial loop that ``mc_oracle`` runs with its
draws moved onto a background thread: each chunk is drawn from the
Philox stream, correlated by the Gram factor and multiplied through the
word before the next chunk is drawn.  It is the specification the
oracle's overlapped schedule is checked against, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from wte.oracles import McReport, _gram_factor

_CHUNK_BYTES = 8 << 20  # 8 MiB budget for the raw draw of one chunk


def mc_reference(
    spec: MomentSpec, samples: int, seed: int = 0, statistic: str = "moment"
) -> McReport:
    if float(spec.q) != 1.0:
        raise ValueError("Monte Carlo sampling requires q = 1")
    if not 0 <= seed < 2**128:
        raise ValueError(f"Monte Carlo seed must lie in [0, 2**128), got {seed}")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    shape = spec.shape
    r = shape.r
    if statistic not in ("moment", "cumulant"):
        raise ValueError(f"unknown statistic {statistic!r}")
    if statistic == "cumulant" and r > 2:
        raise ValueError("plug-in cumulants are available up to r = 2 only")

    families = tuple(dict.fromkeys(shape.labels))
    chol = _gram_factor(spec, families)
    n_dim, m_dim = spec.n_dim, spec.m_dim
    const = [mat.as_array() for mat in spec.matrices]
    eps = shape.epsilon
    ranges = shape.factor_ranges()
    fam_index = {f: i for i, f in enumerate(families)}

    rng = np.random.Generator(np.random.Philox(key=seed))
    factor_vals = [np.empty(samples) for _ in range(r)]
    chunk = max(1, _CHUNK_BYTES // (8 * len(families) * m_dim * n_dim))
    done = 0
    while done < samples:
        count = min(chunk, samples - done)
        raw = rng.standard_normal((count, len(families), m_dim, n_dim))
        correlated = np.einsum("gh,shmn->sgmn", chol, raw) / math.sqrt(n_dim)
        letter_mats = {}
        for fam, gi in fam_index.items():
            x = correlated[:, gi]
            if fam in spec.wigner:
                x = 0.5 * (x + np.swapaxes(x, -1, -2))
            letter_mats[fam] = x
        for fi, (a, b) in enumerate(ranges):
            prod = None
            for k in range(a, b + 1):
                x = letter_mats[shape.labels[k - 1]]
                if shape.labels[k - 1] not in spec.wigner and eps[k - 1] == -1:
                    x = np.swapaxes(x, -1, -2)
                prod = x if prod is None else prod @ x
                prod = prod @ const[k - 1]
            traces = np.einsum("sii->s", prod) / n_dim
            factor_vals[fi][done : done + count] = traces
        done += count

    if r == 0:
        values = np.ones(samples)
    else:
        values = factor_vals[0].copy()
        for fv in factor_vals[1:]:
            values *= fv
    factor_means = tuple(math.fsum(fv.tolist()) / samples for fv in factor_vals)

    if statistic == "moment" or r <= 1:
        vals = values.tolist()
        mean = math.fsum(vals) / samples
        var = math.fsum((v - mean) ** 2 for v in vals) / (samples - 1)
        return McReport(
            estimate=mean,
            stderr=math.sqrt(var / samples),
            samples=samples,
            seed=seed,
            factor_means=factor_means,
            statistic=statistic,
        )

    # Plug-in covariance of the two factors, stderr via its influence values.
    y1, y2 = factor_vals[0], factor_vals[1]
    m1, m2 = factor_means[0], factor_means[1]
    psi = ((y1 - m1) * (y2 - m2)).tolist()
    cov = math.fsum(psi) / (samples - 1)
    psi_mean = math.fsum(psi) / samples
    psi_var = math.fsum((x - psi_mean) ** 2 for x in psi) / (samples - 1)
    return McReport(
        estimate=cov,
        stderr=math.sqrt(psi_var / samples),
        samples=samples,
        seed=seed,
        factor_means=factor_means,
        statistic=statistic,
    )
