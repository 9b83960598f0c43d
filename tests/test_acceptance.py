"""Acceptance suite: one test per acceptance criterion, at the stated
trial counts and tolerances. Each prints a single pass/fail line
(run with ``pytest -s`` to see them).
"""

import math

import numpy as np

from eprsim.cli import render_tsv
from eprsim.engine import FixedSettings, RunConfig, TwoChannelProtocol, run_experiment, run_malus
from eprsim.models import (
    deterministic_sign_model,
    lhv_correlation,
    lhv_joint_probabilities,
    malus_response_model,
)
from eprsim.polarization import (
    Handedness,
    QuarterWavePlate,
    apply,
    circular,
    linear,
    phase_insensitive_equals,
)
from eprsim.scenarios import build_model, chsh_scan, model_matrix, order_test, qwp_test
from eprsim.stats import binomial_stderr
from eprsim.twophoton import (
    circular_entangled,
    joint_probabilities,
    joint_probabilities_sequential,
    linear_entangled,
)
from eprsim.twophoton import Arm

MILLION = 1_000_000
CANONICAL_DEG = (0.0, 22.5, 45.0, 67.5)
S_QUANTUM = 2.0 * math.sqrt(2.0)


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"acceptance criterion {num:2d} ({label}): {status}{suffix}")
    assert ok, f"criterion {num} ({label}) failed {suffix}"


def test_criterion_01_malus_law():
    worst = 0.0
    ok = True
    for j, theta_deg in enumerate((0.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0)):
        theta = math.radians(theta_deg)
        run = run_malus(101, theta, MILLION, start_index=j * MILLION)
        p_emp = run.n_pass / run.n_total
        p_true = math.cos(theta) ** 2
        sigma = binomial_stderr(p_true, MILLION)
        if sigma == 0.0:
            ok = ok and p_emp == p_true
        else:
            dev = abs(p_emp - p_true) / sigma
            worst = max(worst, dev)
            ok = ok and dev <= 4.0
    _report(1, "Malus transmission curve", ok, f"worst deviation {worst:.2f} sigma")


def test_criterion_02_qm_joint_probabilities():
    model = build_model("qm")
    worst = 0.0
    ok = True
    for j, theta_deg in enumerate((0.0, 22.5, 45.0, 67.5, 90.0)):
        theta = math.radians(theta_deg)
        config = RunConfig(model=model, trials=MILLION, settings=FixedSettings(0.0, theta), seed=102)
        run = run_experiment(config, TwoChannelProtocol(), start_index=j * MILLION)
        counts = run.counts_for_pair(0)
        for got, want in (
            (counts.n_pp / MILLION, 0.5 * math.cos(theta) ** 2),
            (counts.n_pm / MILLION, 0.5 * math.sin(theta) ** 2),
        ):
            sigma = binomial_stderr(want, MILLION)
            if sigma == 0.0:
                ok = ok and got == want
            else:
                dev = abs(got - want) / sigma
                worst = max(worst, dev)
                ok = ok and dev <= 4.0
        # analytic oracle against the closed forms
        jp = joint_probabilities(linear_entangled(), 0.0, theta)
        ok = ok and abs(jp.p_pp - 0.5 * math.cos(theta) ** 2) <= 1e-12
        ok = ok and abs(jp.p_pm - 0.5 * math.sin(theta) ** 2) <= 1e-12
    _report(2, "entangled joint probabilities", ok, f"worst deviation {worst:.2f} sigma")


def test_criterion_03_chsh_quantum_value():
    doc = chsh_scan(model="qm", angles_deg=CANONICAL_DEG, trials=MILLION, seed=103)
    s = doc["summary"]["S"]
    ok = abs(s - S_QUANTUM) <= 0.01 and doc["summary"]["violates_classical"]
    _report(3, "CHSH quantum value", ok, f"S = {s:.4f} vs {S_QUANTUM:.4f}")


def test_criterion_04_chsh_classical_bound():
    ok = True
    details = []
    # empirical bound at the canonical quadruple
    for name in ("lhv-sign", "lhv-malus"):
        doc = chsh_scan(model=name, angles_deg=CANONICAL_DEG, trials=MILLION, seed=104)
        s, stderr = doc["summary"]["S"], doc["summary"]["S_stderr"]
        ok = ok and abs(s) <= 2.0 + 4.0 * stderr
        details.append(f"{name} S = {s:.4f}")
        if name == "lhv-sign":
            ok = ok and abs(s - 2.0) <= 0.01
    # oracle bound over a 9^4 quadruple grid of generic angles
    grid = np.radians(np.arange(9) * 20.0)
    for model in (deterministic_sign_model(), malus_response_model()):
        e = np.empty((9, 9))
        for i, a in enumerate(grid):
            for k, b in enumerate(grid):
                e[i, k] = lhv_correlation(model, float(a), float(b))
        s_all = (
            e[:, None, :, None] - e[:, None, None, :] + e[None, :, :, None] + e[None, :, None, :]
        )
        s_max = float(np.max(np.abs(s_all)))
        ok = ok and s_max <= 2.0 + 1e-6
        details.append(f"{model.name} oracle max |S| = {s_max:.9f}")
    _report(4, "CHSH classical bound", ok, "; ".join(details))


def test_criterion_05_lhv_oracle_equivalence():
    rng = np.random.default_rng(105)
    worst = 0.0
    ok = True
    offset = 0
    for name, model in (
        ("lhv-sign", deterministic_sign_model()),
        ("lhv-malus", malus_response_model()),
    ):
        hypothesis = build_model(name)
        for _ in range(10):
            a, b = (float(x) for x in rng.uniform(0.0, math.pi, size=2))
            config = RunConfig(
                model=hypothesis, trials=MILLION, settings=FixedSettings(a, b), seed=105
            )
            run = run_experiment(config, TwoChannelProtocol(), start_index=offset)
            offset += MILLION
            counts = run.counts_for_pair(0)
            oracle = lhv_joint_probabilities(model, a, b)
            for got_n, want in zip(counts.as_array(), oracle.as_tuple()):
                got = got_n / MILLION
                sigma = binomial_stderr(want, MILLION)
                if sigma == 0.0:
                    ok = ok and got == want
                else:
                    dev = abs(got - want) / sigma
                    worst = max(worst, dev)
                    ok = ok and dev <= 4.0
    _report(5, "factorized-model oracle equivalence", ok, f"worst deviation {worst:.2f} sigma")


def test_criterion_06_qwp_discriminating_experiment():
    p_dc = qwp_test(model="definite-circular", trials=MILLION, seed=106)["summary"]["p_b_given_a"]
    p_qm = qwp_test(model="qm", trials=MILLION, seed=106)["summary"]["p_b_given_a"]
    p_ndv = qwp_test(model="ndv-nonlocal", trials=MILLION, seed=106)["summary"]["p_b_given_a"]
    ok = p_dc == 1.0 and p_qm == 1.0 and abs(p_ndv - 0.5) <= 0.0015
    _report(
        6,
        "wave-plate chain discrimination",
        ok,
        f"P(B|A): definite-circular = {p_dc}, qm = {p_qm}, ndv-nonlocal = {p_ndv:.4f}",
    )


def test_criterion_07_order_invariance(random_states):
    doc = order_test(model="qm", theta_deg=30.0, trials=MILLION, seed=107)
    ok = doc["summary"]["order_invariant"] and doc["summary"]["p_value"] > 0.01
    # analytic identity on a random state ensemble
    rng = np.random.default_rng(107)
    worst = 0.0
    for state in random_states(100):
        a, b = (float(x) for x in rng.uniform(0.0, math.pi, size=2))
        first = joint_probabilities_sequential(state, a, b, Arm.ONE)
        second = joint_probabilities_sequential(state, a, b, Arm.TWO)
        worst = max(
            worst, max(abs(x - y) for x, y in zip(first.as_tuple(), second.as_tuple()))
        )
    ok = ok and worst <= 1e-12
    _report(
        7,
        "measurement-order invariance",
        ok,
        f"chi2 p = {doc['summary']['p_value']:.3f}; identity max |diff| = {worst:.2e}",
    )


def test_criterion_08_determinism_and_merge():
    kwargs = dict(model="qm", angles_deg=CANONICAL_DEG, trials=200_000, seed=108)
    tsv_one = render_tsv(chsh_scan(workers=1, **kwargs))
    tsv_many = render_tsv(chsh_scan(workers=4, **kwargs))
    ok = tsv_one == tsv_many
    _report(8, "byte-identical output across workers", ok, f"{len(tsv_one)} bytes compared")


def test_criterion_09_convention_locks():
    ok = True
    for phi in np.linspace(0.0, math.pi, 13)[:-1]:
        plate = QuarterWavePlate(float(phi))
        _, out_r = apply(plate, circular(Handedness.R))
        _, out_l = apply(plate, circular(Handedness.L))
        ok = ok and phase_insensitive_equals(out_r, linear(float(phi) + math.pi / 4))
        ok = ok and phase_insensitive_equals(out_l, linear(float(phi) - math.pi / 4))
    ok = ok and circular_entangled().phase_insensitive_equals(linear_entangled())
    _report(9, "wave-plate and source convention locks", ok)


def test_criterion_10_apparatus_limited_value_not_reproduced():
    doc = model_matrix(trials=200_000, seed=110)
    note = doc["summary"]["note"]
    qm_row = next(row for row in doc["rows"] if row["model"] == "qm")
    # the report documents the measured |S| ~ 2.697 as out of scope and the
    # ideal value stands in; nothing in the suite targets the measured figure
    ok = "2.697" in note and "imperfect" in note
    ok = ok and abs(qm_row["S"] - S_QUANTUM) <= 0.03
    ok = ok and doc["summary"]["ideal_quantum_S"] == S_QUANTUM
    _report(10, "apparatus-limited value documented, not reproduced", ok, f"ideal S stands in at {qm_row['S']:.4f}")
