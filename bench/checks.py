"""Output checks: each one decides whether an operation's result is correct.

They run outside the timed phase.  A failed check counts the operation as
failed, exactly like an exception or a nonzero exit status.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

from lambid.dispersion import (ElasticConstants, assemble_system,
                               complex_block, realify, smallest_physical_cp)

LOGLIK_RTOL = 1e-9
ORACLE_RTOL = 1e-8
MAX_PICK_ERROR_BINS = 1.0


def reference_log_likelihood(points, material: ElasticConstants, sigma: float,
                             thickness: float, order: int) -> float:
    """Gaussian log likelihood from the eigenvalues of the complex block
    matrix at each unique k, independent of the realified solve path."""
    cps = {}
    for k in sorted({k for _, _, k in points}):
        lam = np.linalg.eigvals(complex_block(assemble_system(material, k * thickness, order)))
        real = lam.real[np.abs(lam.imag) <= 1e-9 * np.abs(lam).max()]
        neg = real[real < 0]
        if neg.size < 2:
            return -math.inf
        cps[k] = np.sort(np.sqrt(-neg[np.argsort(-neg)][:2]))  # [A0, S0]
    resid = np.array([om - cps[k][0 if mode == "A0" else 1] * k
                      for mode, om, k in points])
    n = resid.size
    return float(-n * math.log(sigma) - 0.5 * n * math.log(2 * math.pi)
                 - 0.5 * float(resid @ resid) / sigma**2)


def loglik_ok(got: float, ref: float) -> bool:
    return math.isfinite(got) and math.isfinite(ref) and \
        abs(got - ref) <= LOGLIK_RTOL * abs(ref)


def non_physical_samples(samples: np.ndarray, ks, thickness: float,
                         order: int) -> int:
    """Rows of [c11, c13, c33, c55, rho, ...] lacking two physical branches
    at some k (the rejection-rule audit)."""
    bad = 0
    for row in samples:
        material = ElasticConstants(*row[:5])
        for k in ks:
            a_hat = realify(assemble_system(material, k * thickness, order))
            if smallest_physical_cp(a_hat, 2, method="dense").size < 2:
                bad += 1
                break
    return bad


def _oracles():
    tests_dir = str(Path(__file__).resolve().parents[1] / "tests")
    if tests_dir not in sys.path:
        sys.path.insert(0, tests_dir)
    import oracles

    return oracles


def oracle_error(mode: str, k: np.ndarray, omega: np.ndarray, cl: float,
                 ct: float, thickness: float, n_check: int = 6) -> float:
    """Worst relative c_p error against the Rayleigh-Lamb root at n_check
    points spread over the curve's 0.1-4.0 MHz*mm part."""
    oracles = _oracles()
    fh = omega / (2 * np.pi) * thickness * 1e-3
    inside = np.nonzero((fh >= 0.1) & (fh <= 4.0))[0]
    if inside.size == 0:
        return math.inf
    picks = inside[np.unique(np.linspace(0, inside.size - 1, n_check).round().astype(int))]
    worst = 0.0
    for i in picks:
        ref = oracles.rayleigh_lamb_cp(mode, omega[i] / (2 * np.pi), cl, ct, thickness)
        worst = max(worst, abs(omega[i] / k[i] - ref) / ref)
    return worst


def summary_problem(path, draws: np.ndarray) -> str | None:
    """What is wrong with a summary.csv of these post-warmup draws: each
    parameter's mean and variance must match them to 1e-9 relative."""
    rows = [line.split(",") for line in Path(path).read_text().splitlines()
            if line and not line.startswith(("#", "parameter,"))]
    if len(rows) != draws.shape[1]:
        return f"{len(rows)} summary rows for {draws.shape[1]} parameters"
    for j, row in enumerate(rows):
        for got, want in ((float(row[1]), np.mean(draws[:, j])),
                          (float(row[3]), np.var(draws[:, j], ddof=1))):
            if not abs(got - want) <= 1e-9 * abs(want):
                return f"{row[0]}: summary {got!r} != {want!r} from the chain"
    return None


def read_ensemble(path) -> dict:
    """ensemble.csv as {mode: {sample_id: (k, omega)}}."""
    cols: dict = {"A0": {}, "S0": {}}
    for line in Path(path).read_text().splitlines()[1:]:
        sid, mode, k, omega = line.split(",")[:4]
        ks, oms = cols[mode].setdefault(int(sid), ([], []))
        ks.append(float(k))
        oms.append(float(omega))
    return {mode: {sid: (np.array(k), np.array(om)) for sid, (k, om) in members.items()}
            for mode, members in cols.items()}


def ensemble_problem(ensemble: dict, draws: np.ndarray, thickness: float,
                     order: int) -> str | None:
    """What is wrong with a curve ensemble of these post-warmup draws: it
    must have members, every omega finite and positive, and the first
    member's A0 must be the smallest physical branch of its draw at each k."""
    if not ensemble["A0"] or ensemble["A0"].keys() != ensemble["S0"].keys():
        return "empty, or A0 and S0 members differ"
    for members in ensemble.values():
        for k, om in members.values():
            if not curve_sane(k, om):
                return "an ensemble curve is not finite and positive"
    sid = min(ensemble["A0"])
    material = ElasticConstants(*draws[sid, :5])
    for k, om in zip(*ensemble["A0"][sid]):
        cp = smallest_physical_cp(realify(assemble_system(material, k * thickness, order)),
                                  2, method="dense")
        if not abs(cp[0] * k - om) <= 1e-8 * om:
            return f"member {sid} A0 omega {om!r} at k={k!r}, solve gives {cp[0] * k!r}"
    return None


def curve_sane(k: np.ndarray, c_p: np.ndarray) -> bool:
    return k.size > 0 and bool(np.all(np.isfinite(c_p)) and np.all(c_p > 0))


def a0_pick_error_bins(points, a0_omega: np.ndarray, a0_k: np.ndarray,
                       dk_bin: float) -> float:
    """Median |k_pick - k_true(omega)| of the A0 picks, in k bins."""
    picks = [(om, k) for mode, om, k in points if mode == "A0"]
    if not picks:
        return math.inf
    om, k = np.array(picks).T
    order = np.argsort(a0_omega)
    k_true = np.interp(om, a0_omega[order], a0_k[order], left=np.nan, right=np.nan)
    err = np.abs(k - k_true) / dk_bin
    return float(np.nanmedian(err)) if np.any(np.isfinite(err)) else math.inf
