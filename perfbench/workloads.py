"""The four workloads: seeded inputs, the jobs that call covmap, and the
oracle check of every job's output.

A workload is a fixed cycle of job specs.  The specs (job kind, d or
(m, d), cb branch, classify family, perturbation) never depend on the
seed; the seed only draws the values, so two seeds give the same job mix
with different numbers.  Job i draws its values from the generator keyed
by (seed, i).

Every job is built in two steps.  The workload function generates the
inputs (and, for the CLI, writes the input files), which is part of
set-up.  ``Job.prepare`` then computes the oracle from the generating
values with :mod:`oracle` and returns the check, which runs outside the
timed window of the job.  Each check has a ``corrupt`` twin that produces
a deliberately wrong answer of the same form, for the negative self-test.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracle
from oracle import Reference, covariance_defect, images, opnorm, twirl_bound
from spans import COVRES_MD, MULTICOPY_MD

# Sample counts are passed explicitly on every call, so a change to a
# library default cannot pass as a speed-up.
CB_SAMPLES = 500
TWIRL_SAMPLES = 24
DEVIATION_SAMPLES = 2
COVDEV_SAMPLES = 8
TWIRL_OPERATOR_SAMPLES = 200
COVRES_SAMPLES = 2

# Relative tolerance of exact results: the entrywise gap allowed between an
# output and its oracle is TOL * (1 + scale of the inputs).
TOL = 1e-9


@dataclass
class Check:
    check: Callable[[Any], str | None]
    corrupt: Callable[[Any], Any]
    quality: Callable[[Any], dict] | None = None


@dataclass
class Job:
    kind: str
    spec: str
    run: Callable[[Any], Any]
    inputs: tuple
    prepare: Callable[[], Check]
    checker: Check | None = None

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for value in self.inputs:
            h.update(np.ascontiguousarray(value).tobytes())
        return h.hexdigest()


def cplx(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def add_noise(rng, a: np.ndarray, sigma: float) -> np.ndarray:
    """a plus complex Gaussian noise of scale sigma, in place to keep memory low."""
    a.real += sigma * rng.standard_normal(a.shape)
    a.imag += sigma * rng.standard_normal(a.shape)
    return a


def gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def scale_of(*values) -> float:
    return 1.0 + max(float(np.max(np.abs(v))) for v in values)


def first_failure(*checks: tuple[bool, str]) -> str | None:
    for ok, reason in checks:
        if not ok:
            return reason
    return None


# --- two-copy weights -------------------------------------------------------

CLASSIFY_FAMILIES = ("generic", "self-adjoint", "cp", "broadcast", "swap-invariant")


def classify_weights(rng, d: int, family: str) -> np.ndarray:
    """Weights from a family whose verdicts differ; no draw sits near a threshold."""
    if family == "generic":
        return cplx(rng, 6)
    if family == "self-adjoint":
        c1, c2, c5, c6 = rng.standard_normal(4)
        c3 = complex(*rng.standard_normal(2))
        return np.array([c1, c2, c3, np.conj(c3), c5, c6], dtype=np.complex128)
    if family == "cp":
        c1, c2 = rng.uniform(0.5, 2.0, 2)
        c3 = rng.uniform(0.2, 0.8) * math.sqrt(c1 * c2) * np.exp(2j * np.pi * rng.uniform())
        return np.array([c1, c2, c3, np.conj(c3), 0, 0], dtype=np.complex128)
    if family == "broadcast":
        x, c3, c5 = rng.standard_normal(3)
        return np.array([x, x, c3, 1 - d * x - c3, c5, -d * c5 - x], dtype=np.complex128)
    x, y, c5, c6 = rng.standard_normal(4)
    return np.array([x, x, y, y, c5, c6], dtype=np.complex128)


def corner_to_weights(m1, m2, m3, m4) -> np.ndarray:
    return np.array(
        [
            (m1 + m2 + m3 + m4) / 4,
            (m1 - m2 - m3 + m4) / 4,
            (m1 + m2 - m3 - m4) / 4,
            (m1 - m2 + m3 - m4) / 4,
            0,
            0,
        ],
        dtype=np.complex128,
    )


def cb_weights(rng, kind: str) -> np.ndarray:
    """Trace-free weights that land on the named branch of the cb-norm cascade.

    ``corner`` and ``bracket`` sit on the determinantal variety through
    corner weights with m1*m4 = m2*m3; ``corner`` makes the identity corner
    dominate, ``bracket`` the off-diagonal one.
    """
    if kind == "swap":
        a, b = cplx(rng, 2)
        return np.array([a, a, b, b, 0, 0], dtype=np.complex128)
    if kind == "generic":
        return np.concatenate([cplx(rng, 4), np.zeros(2)])
    phase = np.exp(2j * np.pi * rng.uniform(size=3))
    if kind == "corner":
        m2, m3 = cplx(rng, 2)
        m1 = rng.uniform(1.5, 2.5) * max(abs(m2), abs(m3)) * phase[0]
    else:
        m1 = rng.uniform(0.5, 1.0) * phase[0]
        m2 = rng.uniform(1.5, 2.5) * abs(m1) * phase[1]
        m3 = rng.uniform(0.2, 0.5) * abs(m1) * phase[2]
    return corner_to_weights(m1, m2, m3, m2 * m3 / m1)


def expected_cb(c: np.ndarray, kind: str) -> dict:
    """Oracle for cb_norm: the closed form where one is known, else certified limits.

    Swap-symmetric and corner-exact weights have a closed form.  For the
    others the true cb norm lies between the image norm of the identity and
    a certified upper bound: max|m_k| on the determinantal variety, and the
    triangle bound |c1|+|c2|+|c3|+|c4| otherwise, since every generator has
    cb norm 1.
    """
    c1, c2, c3, c4 = c[:4]
    m = [
        abs(c1 + c2 + c3 + c4), abs(c1 - c2 + c3 - c4),
        abs(c1 - c2 - c3 + c4), abs(c1 + c2 - c3 - c4),
    ]
    identity = max(m[0], m[3])
    out = {"scale": scale_of(c)}
    if kind in ("swap", "corner"):
        out["value"] = identity
    else:
        out.update(low=identity, high=max(m) if kind == "bracket" else float(np.sum(np.abs(c[:4]))))
    return out


def check_cb(value_kind, value, samples, exp) -> str | None:
    """Check what a cb_norm result certifies, whichever branch produced it.

    ``value`` is a float or a (lower, upper) pair, as in CbNormResult.  Where
    a closed form is known the result must be exact and equal it.  Otherwise
    an exact value or a lower bound must lie within the oracle's limits, and
    a bracket must hold a lower bound within them and an upper bound no
    larger than the certified one.  A sampled result must report 500 samples.
    """
    thr = TOL * exp["scale"]
    if "value" in exp:
        return first_failure(
            (value_kind == "exact", f"{value_kind} result where the closed form is known"),
            (value_kind != "exact" or abs(value - exp["value"]) <= thr, f"value {value} != {exp['value']}"),
        )
    low, high = exp["low"] - thr, exp["high"] + thr
    if value_kind not in ("exact", "lower_bound", "bracket"):
        return f"unknown value kind {value_kind}"
    lower, upper = value if value_kind == "bracket" else (value, value if value_kind == "exact" else high)
    return first_failure(
        (samples in (None, CB_SAMPLES), f"samples {samples} != {CB_SAMPLES}"),
        (value_kind != "lower_bound" or samples is not None, "Monte-Carlo lower bound without a sample count"),
        (low <= lower <= high, f"lower bound {lower} outside [{exp['low']}, {exp['high']}]"),
        (lower <= upper <= high, f"upper bound {upper} outside [{lower}, {exp['high']}]"),
    )


def expected_verdicts(ref: Reference, c: np.ndarray, d: int) -> dict:
    """Structural verdicts from the realized map itself, not from the weights."""
    thr = TOL * scale_of(c)
    sup = ref.twocopy_superop(c, d)
    y = images(sup, d * d)
    col = lambda a, b: b * d + a  # noqa: E731
    herm = max(gap(y[col(a, b)].conj().T, y[col(b, a)]) for a in range(d) for b in range(d))
    y11 = y[0]
    positive = gap(y11, y11.conj().T) <= thr and np.linalg.eigvalsh(y11)[0] >= -thr
    choi = sum(np.kron(oracle.unit(a, b, d), y[col(a, b)]) for a in range(d) for b in range(d))
    cp = gap(choi, choi.conj().T) <= thr and np.linalg.eigvalsh(choi)[0] >= -thr
    y4 = y.reshape(d * d, d, d, d, d)
    inputs = np.stack([e for _, e in oracle.units(d)])
    broadcast = max(
        gap(np.einsum("kabad->kbd", y4), inputs), gap(np.einsum("kabcb->kac", y4), inputs)
    ) <= thr
    s = oracle.swap(d)
    swap_inv = gap(s @ y @ s, y) <= thr
    classical = max(
        gap(np.diag(y[col(i, i)]), np.eye(d * d)[i * d + i]) for i in range(d)
    ) <= thr
    vb = gap(sup, ref.twocopy_superop([0, 0, 0.5, 0.5, 0, 0], d)) <= thr
    trace_free = c[4] == 0 and c[5] == 0
    return {
        "self_adjoint": herm <= thr,
        "positive": bool(positive),
        "cp_holds": bool(cp),
        "completely_positive": ("yes" if cp else "no") if trace_free else "numerical-only",
        "broadcasting": broadcast,
        "permutation_invariant": swap_inv,
        "classically_consistent": classical,
        "virtual_broadcaster": vb,
    }


def check_verdicts(got: dict, exp: dict) -> str | None:
    wrong = [k for k in exp if got[k] != exp[k]]
    return f"verdicts differ from the oracle: {wrong}" if wrong else None


def report_verdicts(report) -> dict:
    return {
        "self_adjoint": report.self_adjoint,
        "positive": report.positive,
        "cp_holds": report.evidence["cp_holds"],
        "completely_positive": report.completely_positive,
        "broadcasting": report.broadcasting,
        "permutation_invariant": report.permutation_invariant,
        "classically_consistent": report.classically_consistent,
        "virtual_broadcaster": report.virtual_broadcaster,
    }


def bump(a: np.ndarray, by: float) -> np.ndarray:
    out = np.array(a, dtype=np.complex128, copy=True)
    out.reshape(-1)[0] += by
    return out


# --- workload: twocopy_batch -----------------------------------------------


def twocopy_batch(cm, ref: Reference, seed: int, tmp: str) -> list[Job]:
    """Realize, recover, classify and cb_norm over d = 2..6.

    55 jobs per cycle: 10 realize; 15 recover (per d: a covariant and a
    perturbed input read by extract, or by fit_coefficients at d = 2, and
    a perturbed input projected by fit_coefficients);
    15 classify (three families per d), 15 cb_norm (5 swap-symmetric,
    3 corner-exact, 2 bracket, 5 generic).  The 7 Monte-Carlo cb jobs are
    12.7% of the cycle, so they set job_p90_ms.
    """
    tol = cm.Tolerance()
    jobs: list[Job] = []

    def add(maker, *spec):
        rng = np.random.default_rng([seed, len(jobs)])
        jobs.append(maker(rng, *spec))

    def realize(rng, d):
        c = cplx(rng, 6)
        cc = cm.CovariantCoefficients(d, tuple(c))

        def prepare():
            want = ref.twocopy_superop(c, d)
            thr = TOL * scale_of(c)
            return Check(
                lambda out: first_failure(
                    (gap(out, want) <= thr, f"superoperator off by {gap(out, want):.3g}")
                ),
                lambda out: bump(out, 1e-6 * scale_of(c)),
            )

        return Job("realize", f"realize/d{d}", lambda api: api.realize_superoperator(cc), (c,), prepare)

    def recover(rng, d, perturbed, fn):
        c = cplx(rng, 6)
        sup = ref.twocopy_superop(c, d)
        if perturbed:
            add_noise(rng, sup, 0.05 * scale_of(c))
        spec = f"recover/d{d}/{'perturbed' if perturbed else 'covariant'}/{fn}"

        def run(api):
            if fn == "extract":
                return api.extract(sup, d, tol)
            return api.fit_coefficients(sup, d)

        def prepare():
            _, proj = ref.twocopy_projection(sup, d)
            thr = TOL * scale_of(c, sup)
            floor = float(np.linalg.norm(sup - proj)) / d  # ||.||_2 >= ||.||_F / sqrt(rank)

            def check(out):
                got, residual = out
                got = got.as_array()
                realized = ref.twocopy_superop(got, d)
                mine = opnorm(sup - realized)
                checks = [(abs(residual - mine) <= thr, f"residual {residual} != {mine}")]
                if not perturbed:
                    checks.append((gap(realized, sup) <= thr, "recovered map differs from the input"))
                    if d >= 3:
                        checks.append((gap(got, c) <= thr, "weights differ from the generating weights"))
                elif fn == "fit_coefficients":
                    checks.append((gap(realized, proj) <= 1e3 * thr, "fit is not the least-squares projection"))
                else:
                    checks.append(
                        (residual >= floor * (1 - 1e-9), f"residual {residual} below the certified floor {floor}")
                    )
                return first_failure(*checks)

            def corrupt(out):
                got, residual = out
                return cm.CovariantCoefficients(d, tuple(bump(got.as_array(), 1e-3 * scale_of(c)))), residual

            return Check(check, corrupt)

        return Job("recover", spec, run, (c, sup), prepare)

    def classify_job(rng, d, family):
        c = classify_weights(rng, d, family)
        cc = cm.CovariantCoefficients(d, tuple(c))

        def prepare():
            exp = expected_verdicts(ref, c, d)

            def check(report):
                return first_failure(
                    (
                        report.d == d and gap(report.coefficients.as_array(), c) == 0,
                        "report does not echo its input",
                    ),
                ) or check_verdicts(report_verdicts(report), exp)

            return Check(check, lambda report: dataclasses.replace(report, positive=not report.positive))

        return Job("classify", f"classify/d{d}/{family}", lambda api: api.classify(cc, tol), (c,), prepare)

    def cb_job(rng, d, kind):
        c = cb_weights(rng, kind)
        cc = cm.CovariantCoefficients(d, tuple(c))
        s = int(rng.integers(2**31))

        def prepare():
            exp = expected_cb(c, kind)

            def check(r):
                return check_cb(r.value_kind, r.value, r.detail.get("samples"), exp)

            def corrupt(r):
                if r.value_kind == "bracket":
                    return dataclasses.replace(r, value=(r.value[1] * 10 + 1, r.value[1]))
                return dataclasses.replace(r, value=r.value * 10 + 4 * exp["scale"])

            return Check(check, corrupt)

        return Job(
            "cb_norm", f"cb_norm/d{d}/{kind}",
            lambda api: api.cb_norm(cc, samples=CB_SAMPLES, seed=s, tol=tol), (c, s), prepare,
        )

    ds = (2, 3, 4, 5, 6)
    for _ in range(2):
        for d in ds:
            add(realize, d)
    for d in ds:
        read = "extract" if d >= 3 else "fit_coefficients"
        add(recover, d, False, read)
        add(recover, d, True, read)
        add(recover, d, True, "fit_coefficients")
    for v in range(3):
        for d in ds:
            add(classify_job, d, CLASSIFY_FAMILIES[(d + v) % 5])
    for d in ds:
        add(cb_job, d, "swap")
    for d in (2, 4, 6):
        add(cb_job, d, "corner")
    for d in (3, 5):
        add(cb_job, d, "bracket")
    for d in ds:
        add(cb_job, d, "generic")
    return jobs


# --- workload: twirl_project -------------------------------------------------


def noisy_superop(ref: Reference, rng, d: int) -> np.ndarray:
    """realize(c) plus Gaussian noise: a non-covariant map."""
    c = cplx(rng, 6)
    return add_noise(rng, ref.twocopy_superop(c, d), 0.3 * scale_of(c))


def twirl_checks(ref: Reference, sup: np.ndarray, d: int, seed: int, samples: int, dev_samples: int):
    """Oracle pieces shared by the library and CLI twirl jobs."""
    w, proj = ref.twocopy_projection(sup, d)
    bound = twirl_bound(float(np.linalg.norm(sup - proj)), samples)
    dev = covariance_defect(sup, d, 2, dev_samples, seed)
    return w, proj, bound, dev


def twirl_project(cm, ref: Reference, seed: int, tmp: str) -> list[Job]:
    """Twirl, covariance_deviation and twirl_operator at d = 3, 4, 5.

    35 jobs per cycle: 9 twirl (2 at d = 3, 2 at d = 4, 5 at d = 5), 9
    covariance_deviation (3 per d) and 17 twirl_operator at m = 3 (13 at
    d = 3, 4 at d = 4).  The five d = 5 twirls are the slowest jobs, so
    job_p90_ms falls inside them; the 13 twirl_operator jobs at d = 3 hold
    job_p50_ms even when the d = 4 jobs move across it.
    """
    tol = cm.Tolerance()
    jobs: list[Job] = []

    def add(maker, *spec):
        rng = np.random.default_rng([seed, len(jobs)])
        jobs.append(maker(rng, *spec))

    def twirl_job(rng, d):
        sup = noisy_superop(ref, rng, d)
        s = int(rng.integers(2**31))

        def run(api):
            return api.twirl(
                sup, d, samples=TWIRL_SAMPLES, seed=s, tol=tol, deviation_samples=DEVIATION_SAMPLES
            )

        def prepare():
            w, proj, bound, dev = twirl_checks(ref, sup, d, s, TWIRL_SAMPLES, DEVIATION_SAMPLES)
            thr = TOL * scale_of(sup)

            def check(r):
                dist = float(np.linalg.norm(r.averaged - proj))
                return first_failure(
                    (r.samples == TWIRL_SAMPLES and r.seed == s, "samples or seed not echoed"),
                    (dist <= bound, f"distance {dist:.4g} to the exact projection exceeds {bound:.4g}"),
                    (
                        gap(r.coefficients.as_array(), w) <= bound + thr,
                        "weights farther from the exact projection than the bound",
                    ),
                    (abs(r.deviation_before - dev) <= thr, f"deviation_before {r.deviation_before} != {dev}"),
                )

            def corrupt(r):
                return dataclasses.replace(r, averaged=bump(r.averaged, 10 * bound))

            def quality(r):
                return {f"twirl.dist_to_exact.d{d}": opnorm(r.averaged - proj)}

            return Check(check, corrupt, quality)

        return Job("twirl", f"twirl/d{d}", run, (sup, s), prepare)

    def covdev_job(rng, d):
        sup = noisy_superop(ref, rng, d)
        s = int(rng.integers(2**31))

        def prepare():
            want = covariance_defect(sup, d, 2, COVDEV_SAMPLES, s)
            thr = TOL * (1 + want)
            return Check(
                lambda v: first_failure((abs(v - want) <= thr, f"deviation {v} != {want}")),
                lambda v: v * 10,
            )

        return Job(
            "covdev", f"covdev/d{d}",
            lambda api: api.covariance_deviation(sup, d, COVDEV_SAMPLES, s), (sup, s), prepare,
        )

    def twirl_operator_job(rng, d):
        t = cplx(rng, d**3, d**3)
        s = int(rng.integers(2**31))

        def prepare():
            proj = ref.permutation_projection(t, 3, d)
            bound = twirl_bound(float(np.linalg.norm(t - proj)), TWIRL_OPERATOR_SAMPLES)
            return Check(
                lambda avg: first_failure(
                    (
                        float(np.linalg.norm(avg - proj)) <= bound,
                        "average too far from the permutation-span projection",
                    )
                ),
                lambda avg: bump(avg, 10 * bound),
            )

        return Job(
            "twirl_operator", f"twirl_operator/m3d{d}",
            lambda api: api.twirl_operator(t, 3, d, TWIRL_OPERATOR_SAMPLES, s), (t, s), prepare,
        )

    for d, count in ((3, 2), (4, 2), (5, 5)):
        for _ in range(count):
            add(twirl_job, d)
    for _ in range(3):
        for d in (3, 4, 5):
            add(covdev_job, d)
    for d, count in ((3, 13), (4, 4)):
        for _ in range(count):
            add(twirl_operator_job, d)
    return jobs


# --- workload: multicopy_tables ----------------------------------------------

def random_lam(rng, m: int) -> np.ndarray:
    return cplx(rng, math.factorial(m), m + 1)


def permutation_combination(ref: Reference, coeffs, m: int, d: int) -> np.ndarray:
    eye = np.eye(d**m, dtype=np.complex128)
    return sum(a * eye[r] for a, r in zip(coeffs, ref.perm_rows(m, d)))


def multicopy_tables(cm, ref: Reference, seed: int, tmp: str) -> list[Job]:
    """m-copy weight tables over the seven (m, d) of MULTICOPY_MD.

    33 jobs per cycle: realize, apply and schur_weyl_fit at every (m, d),
    extract_multi where d >= m + 1, covariance_residual_multi at the five
    (m, d) of COVRES_MD, and the m = 2 consistency job at d = 3 and 6.
    """
    tol = cm.Tolerance()
    jobs: list[Job] = []

    def add(maker, *spec):
        rng = np.random.default_rng([seed, len(jobs)])
        jobs.append(maker(rng, *spec))

    def realize(rng, m, d):
        lam = random_lam(rng, m)
        mc = cm.MultiCopyCoefficients(m, d, lam)

        def prepare():
            want = ref.multicopy_superop(lam, m, d)
            thr = TOL * scale_of(lam)
            return Check(
                lambda out: first_failure((gap(out, want) <= thr, "superoperator differs from the oracle")),
                lambda out: bump(out, 1e-6 * scale_of(lam)),
            )

        return Job(
            "realize", f"realize/m{m}d{d}",
            lambda api: api.realize_multi_superoperator(mc), (lam,), prepare,
        )

    def extract(rng, m, d):
        lam = random_lam(rng, m)
        sup = ref.multicopy_superop(lam, m, d)

        def prepare():
            thr = TOL * scale_of(lam)

            def check(out):
                mc, residual = out
                return first_failure(
                    (gap(mc.lam, lam) <= thr, "weights differ from the generating table"),
                    (residual <= 10 * thr, f"residual {residual} on a covariant input"),
                )

            def corrupt(out):
                mc, residual = out
                return cm.MultiCopyCoefficients(m, d, bump(mc.lam, 1e-3 * scale_of(lam))), residual

            return Check(check, corrupt)

        return Job(
            "extract", f"extract/m{m}d{d}", lambda api: api.extract_multi(sup, m, d, tol), (lam,), prepare
        )

    def apply(rng, m, d):
        lam = random_lam(rng, m)
        mc = cm.MultiCopyCoefficients(m, d, lam)
        x = cplx(rng, d, d)

        def prepare():
            want = ref.multicopy_image(lam, m, d, x)
            thr = TOL * scale_of(lam) * scale_of(x)
            return Check(
                lambda out: first_failure((gap(out, want) <= thr, "image differs from the oracle")),
                lambda out: bump(out, 1e-3 * scale_of(want)),
            )

        return Job("apply", f"apply/m{m}d{d}", lambda api: api.apply_multi(mc, x), (lam, x), prepare)

    def fit(rng, m, d):
        t = permutation_combination(ref, cplx(rng, math.factorial(m)), m, d)
        add_noise(rng, t, 0.3)

        def prepare():
            proj = ref.permutation_projection(t, m, d)
            want_residual = float(np.linalg.norm(t - proj))
            thr = 1e3 * TOL * scale_of(t)

            def check(f):
                got = permutation_combination(ref, f.coefficients, m, d)
                return first_failure(
                    (gap(got, proj) <= thr, "fit is not the permutation-span projection"),
                    (abs(f.residual - want_residual) <= thr, f"residual {f.residual} != {want_residual}"),
                    (f.degenerate == (d < m), f"degenerate flag {f.degenerate} at d={d}, m={m}"),
                )

            return Check(check, lambda f: dataclasses.replace(f, coefficients=bump(f.coefficients, 1e-3)))

        return Job("fit", f"fit/m{m}d{d}", lambda api: api.schur_weyl_fit(t, m, d), (t,), prepare)

    def covres(rng, m, d):
        lam = random_lam(rng, m)
        sup = add_noise(rng, ref.multicopy_superop(lam, m, d), 0.01 * scale_of(lam))
        s = int(rng.integers(2**31))

        def prepare():
            want = covariance_defect(sup, d, m, COVRES_SAMPLES, s)
            thr = TOL * (1 + want)
            return Check(
                lambda v: first_failure((abs(v - want) <= thr, f"residual {v} != {want}")),
                lambda v: v * 10,
            )

        return Job(
            "covres", f"covres/m{m}d{d}",
            lambda api: api.covariance_residual_multi(sup, m, d, COVRES_SAMPLES, s), (sup, s), prepare,
        )

    def consistency(rng, d):
        c = cplx(rng, 6)
        cc = cm.CovariantCoefficients(d, tuple(c))

        def run(api):
            return api.realize_multi_superoperator(api.from_two_copy(cc)), api.realize_superoperator(cc)

        def prepare():
            want = ref.twocopy_superop(c, d)
            thr = TOL * scale_of(c)
            return Check(
                lambda out: first_failure(
                    (gap(out[0], out[1]) <= thr, "m = 2 view differs from the two-copy realization"),
                    (gap(out[1], want) <= thr, "two-copy realization differs from the oracle"),
                ),
                lambda out: (bump(out[0], 1e-6 * scale_of(c)), out[1]),
            )

        return Job("consistency", f"consistency/m2d{d}", run, (c,), prepare)

    for m, d in MULTICOPY_MD:
        add(realize, m, d)
        if d >= m + 1:
            add(extract, m, d)
        add(apply, m, d)
        add(fit, m, d)
        if (m, d) in COVRES_MD:
            add(covres, m, d)
    for d in (3, 6):
        add(consistency, d)
    return jobs


# --- workload: cli_commands ---------------------------------------------------


def _pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values).reshape(-1)]


def _matrix_obj(a: np.ndarray) -> dict:
    return {"rows": a.shape[0], "cols": a.shape[1], "data": _pairs(a)}


def _weights_obj(c, d: int) -> dict:
    return {"d": d, "coeffs": _pairs(c)}


def _from_pairs(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)


def _render(obj) -> bytes:
    """Same rendering as the CLI, to rebuild a corrupted output."""
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def cli_commands(cm, ref: Reference, seed: int, tmp: str) -> list[Job]:
    """In-process ``covmap.cli.main`` over seeded JSON files.

    35 jobs per cycle covering the six subcommand forms: classify on
    weight files (4 at d = 3, 1 each at d = 4 and 5) and on superoperator
    files (d = 3, 4, 5); norm on weight files (12 on the exact branches, 1
    generic, 1 bracket) and on superoperator files (3); twirl (d = 3, 4);
    multicopy apply (2), extract (2) and fit (3).  The 21 light jobs
    (small weight files and tables) are over half the cycle, so
    job_p50_ms measures the front door's own overhead and no d = 4 job
    moves across it.  A job passes when it exits 0, its output parses and
    matches the oracle, and its bytes equal those of the first (warm-up)
    run of the same argv.
    """
    jobs: list[Job] = []

    def add(maker, *spec):
        i = len(jobs)
        rng = np.random.default_rng([seed, i])
        jobs.append(maker(rng, os.path.join(tmp, f"job{i:02d}"), *spec))

    def write(path: str, obj) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def cli_job(kind, spec, argv, out, inputs, oracle_fns):
        """``oracle_fns()`` returns (check of the parsed output, its corruption)."""
        argv = argv + ["--out", out]

        def run(api):
            code = api.cli_main(argv)
            with open(out, "rb") as fh:
                return code, fh.read()

        def prepare():
            check_obj, corrupt_obj = oracle_fns()
            reference = []

            def check(result):
                code, data = result
                if code != 0:
                    return f"exit code {code}"
                try:
                    obj = json.loads(data)
                except ValueError as exc:
                    return f"output does not parse: {exc}"
                reason = check_obj(obj)
                if reason:
                    return reason
                if not reference:
                    reference.append(data)
                return None if data == reference[0] else "output bytes differ from the warm-up run"

            def corrupt(result):
                obj = json.loads(result[1])
                corrupt_obj(obj)
                return result[0], _render(obj)

            return Check(check, corrupt)

        return Job(kind, spec, run, inputs, prepare)

    def classify_cmd(rng, base, d, family, as_matrix):
        c = classify_weights(rng, d, family)
        obj = _matrix_obj(ref.twocopy_superop(c, d)) if as_matrix else _weights_obj(c, d)
        path = write(base + ".in.json", obj)

        def oracle_fns():
            exp = expected_verdicts(ref, c, d)
            thr = TOL * scale_of(c)

            def check_obj(o):
                got = {k: o[k] for k in exp if k != "cp_holds"}
                got["cp_holds"] = o["evidence"]["cp_holds"]
                return first_failure(
                    (
                        gap(_from_pairs(o["coefficients"]["coeffs"]), c) <= thr,
                        "weights differ from the input",
                    ),
                    (
                        o.get("extraction_residual", 0.0) <= 10 * thr,
                        "extraction residual on a covariant input",
                    ),
                ) or check_verdicts(got, exp)

            def corrupt_obj(o):
                o["positive"] = not o["positive"]

            return check_obj, corrupt_obj

        form = "matrix" if as_matrix else "weights"
        return cli_job(
            "classify", f"classify/{form}/d{d}/{family}", ["classify", path],
            base + ".out.json", (c,), oracle_fns,
        )

    def norm_cmd(rng, base, d, kind, as_matrix):
        c = cb_weights(rng, kind)
        obj = _matrix_obj(ref.twocopy_superop(c, d)) if as_matrix else _weights_obj(c, d)
        path = write(base + ".in.json", obj)
        s = int(rng.integers(2**31))

        def oracle_fns():
            exp = expected_cb(c, kind)
            if as_matrix:
                exp["scale"] *= 10  # the weights pass through extraction first

            def check_obj(o):
                v = o["value"]
                value = (v["lower"], v["upper"]) if isinstance(v, dict) else v
                return check_cb(o["value_kind"], value, o["detail"].get("samples"), exp)

            def corrupt_obj(o):
                if isinstance(o["value"], dict):
                    o["value"]["lower"] = o["value"]["upper"] * 10 + 1
                else:
                    o["value"] = o["value"] * 10 + 4 * exp["scale"]

            return check_obj, corrupt_obj

        argv = ["norm", path, "--samples", str(CB_SAMPLES), "--seed", str(s)]
        form = "matrix" if as_matrix else "weights"
        return cli_job("norm", f"norm/{form}/d{d}/{kind}", argv, base + ".out.json", (c, s), oracle_fns)

    def twirl_cmd(rng, base, d):
        sup = noisy_superop(ref, rng, d)
        path = write(base + ".in.json", _matrix_obj(sup))
        s = int(rng.integers(2**31))

        def oracle_fns():
            # The CLI keeps the library's default of 20 deviation samples.
            w, _, bound, dev = twirl_checks(ref, sup, d, s, TWIRL_SAMPLES, 20)
            thr = TOL * scale_of(sup)

            def check_obj(o):
                got = _from_pairs(o["coefficients"]["coeffs"])
                return first_failure(
                    (o["samples"] == TWIRL_SAMPLES and o["seed"] == s, "samples or seed not echoed"),
                    (gap(got, w) <= bound + thr, "weights farther from the exact projection than the bound"),
                    (abs(o["deviation_before"] - dev) <= thr, "deviation_before differs from the oracle"),
                )

            def corrupt_obj(o):
                o["coefficients"]["coeffs"][0][0] += 10 * bound

            return check_obj, corrupt_obj

        argv = ["twirl", path, "--samples", str(TWIRL_SAMPLES), "--seed", str(s)]
        return cli_job("twirl", f"twirl/d{d}", argv, base + ".out.json", (sup, s), oracle_fns)

    def apply_cmd(rng, base, m, d):
        lam = random_lam(rng, m)
        x = cplx(rng, d, d)
        wpath = write(base + ".lam.json", {"m": m, "d": d, "lam": [_pairs(row) for row in lam]})
        xpath = write(base + ".x.json", _matrix_obj(x))

        def oracle_fns():
            want = ref.multicopy_image(lam, m, d, x)
            thr = TOL * scale_of(lam) * scale_of(x)

            def check_obj(o):
                got = _from_pairs(o["data"]).reshape(o["rows"], o["cols"])
                return first_failure(
                    (got.shape == want.shape and gap(got, want) <= thr, "image differs from the oracle")
                )

            def corrupt_obj(o):
                o["data"][0][0] += 1.0

            return check_obj, corrupt_obj

        argv = ["multicopy", "apply", wpath, xpath]
        return cli_job(
            "multicopy_apply", f"multicopy_apply/m{m}d{d}", argv, base + ".out.json", (lam, x), oracle_fns
        )

    def extract_cmd(rng, base, m, d):
        lam = random_lam(rng, m)
        path = write(base + ".in.json", _matrix_obj(ref.multicopy_superop(lam, m, d)))

        def oracle_fns():
            thr = TOL * scale_of(lam)

            def check_obj(o):
                got = np.array([_from_pairs(row) for row in o["coefficients"]["lam"]])
                return first_failure(
                    (
                        got.shape == lam.shape and gap(got, lam) <= thr,
                        "weights differ from the generating table",
                    ),
                    (o["residual"] <= 10 * thr, "residual on a covariant input"),
                )

            def corrupt_obj(o):
                o["coefficients"]["lam"][0][0][0] += 1.0

            return check_obj, corrupt_obj

        argv = ["multicopy", "extract", path, "--m", str(m), "--d", str(d)]
        return cli_job(
            "multicopy_extract", f"multicopy_extract/m{m}d{d}", argv, base + ".out.json", (lam,), oracle_fns
        )

    def fit_cmd(rng, base, m, d):
        t = permutation_combination(ref, cplx(rng, math.factorial(m)), m, d)
        add_noise(rng, t, 0.3)
        path = write(base + ".in.json", _matrix_obj(t))

        def oracle_fns():
            proj = ref.permutation_projection(t, m, d)
            want_residual = float(np.linalg.norm(t - proj))
            thr = 1e3 * TOL * scale_of(t)

            def check_obj(o):
                got = permutation_combination(ref, _from_pairs(o["coefficients"]), m, d)
                return first_failure(
                    (gap(got, proj) <= thr, "fit is not the permutation-span projection"),
                    (abs(o["residual"] - want_residual) <= thr, "residual differs from the oracle"),
                    (o["degenerate"] == (d < m), "wrong degenerate flag"),
                )

            def corrupt_obj(o):
                o["coefficients"][0][0] += 1.0

            return check_obj, corrupt_obj

        argv = ["multicopy", "fit", path, "--m", str(m), "--d", str(d)]
        return cli_job("multicopy_fit", f"multicopy_fit/m{m}d{d}", argv, base + ".out.json", (t,), oracle_fns)

    for d, count in ((3, 4), (4, 1), (5, 1)):
        for v in range(count):
            add(classify_cmd, d, CLASSIFY_FAMILIES[(d + v) % 5], False)
    for d in (3, 4, 5):
        add(classify_cmd, d, CLASSIFY_FAMILIES[d % 5], True)
    for kind in ("swap", "corner"):
        for _ in range(2):
            for d in (3, 4, 5):
                add(norm_cmd, d, kind, False)
    add(norm_cmd, 4, "generic", False)
    add(norm_cmd, 5, "bracket", False)
    for d, kind in ((3, "generic"), (4, "corner"), (5, "swap")):
        add(norm_cmd, d, kind, True)
    for d in (3, 4):
        add(twirl_cmd, d)
    for m, d in ((2, 4), (3, 4)):
        add(apply_cmd, m, d)
    for m, d in ((2, 3), (3, 4)):
        add(extract_cmd, m, d)
    for m, d in ((2, 3), (3, 3), (4, 2)):
        add(fit_cmd, m, d)
    return jobs


WORKLOADS = {
    "twocopy_batch": twocopy_batch,
    "twirl_project": twirl_project,
    "multicopy_tables": multicopy_tables,
    "cli_commands": cli_commands,
}
