"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) in addition to asserting, so a plain run doubles as a report.
"""

import json
import time

import jsonschema
import numpy as np

from gztower import cli
from gztower.action import a_act, a_act_stepwise, flow, random_params
from gztower.gz import gz_grad, gz_hamiltonian, gz_indices, power_table
from gztower.matcore import ad_operator, embed, null_space, spectra_disjoint
from gztower.oracles import central_gradient, charpoly_roots, dense_kernel, gz_observable
from gztower.regularity import sreg_report
from gztower.symplectic import lagrangian_check, match_residual, omega_inf
from gztower.tower import Tower, new_tower, random_entries

from conftest import jordan_tower, plain_tower, probe_operator, theta_tower
from test_cli import REPORT_SCHEMA


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_01_poisson_commutativity():
    # 50 random towers (seeds 0-49, depth <= 6): all observable pairs
    # bracket to |{f,g}| <= 1e-8 (1 + ||X||^(i+k)); total runtime <= 60 s.
    start = time.monotonic()
    worst = 0.0
    for seed in range(50):
        depth = 2 + seed % 5
        T = theta_tower(depth, seed, 1.0)
        idxs = gz_indices(depth)
        B = power_table(T).bracket_matrix()
        norms = {n: np.linalg.norm(T.level(n), 2) for n in range(1, depth + 1)}
        for a in range(len(idxs)):
            for b in range(a + 1, len(idxs)):
                i1, i2 = idxs[a], idxs[b]
                bound = 1.0 + norms[max(i1.i, i2.i)] ** (i1.i + i2.i)
                worst = max(worst, abs(B[a, b]) / bound)
    elapsed = time.monotonic() - start
    report(
        "01-poisson-commutativity",
        worst <= 1e-8 and elapsed <= 60.0,
        f"max ratio {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_02_gradient_correctness():
    # Analytic vs central-difference gradients, rel 1e-6, all indices with
    # i <= 6, on 20 random towers: gz_grad at level 6 and the power table's
    # generators at their own levels.
    worst = 0.0
    for seed in range(100, 120):
        T = plain_tower(6, seed)
        X = T.level(6)
        for idx, G in zip(gz_indices(6), power_table(T).generators()):
            numeric = central_gradient(gz_observable(idx.i, idx.j), X)
            for analytic in (gz_grad(T, idx, 6), embed(G, 6)):
                rel = np.linalg.norm(analytic - numeric) / (1.0 + np.linalg.norm(analytic))
                worst = max(worst, rel)
    report("02-gradient-correctness", worst <= 1e-6, f"max rel error {worst:.3e}")


def test_criterion_03_exact_flow_conservation():
    # Along every flow direction (i <= N-1 <= 5): all observables drift
    # <= 1e-8 relative over t in {+-2, +-1, +-0.5, 0}; the flowed corner is
    # fixed to <= 1e-12 * scale.
    grid = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
    worst_drift = 0.0
    worst_corner = 0.0
    for depth in range(2, 7):
        T = theta_tower(depth, 200 + depth, 0.4)
        base = power_table(T).traces()
        for idx in gz_indices(depth, max_i=depth - 1):
            corner_scale = 1.0 + float(np.abs(T.level(idx.i)).max())
            for t in grid:
                flowed = flow(T, idx, t)
                drift = np.abs(power_table(flowed).traces() - base) / (1.0 + np.abs(base))
                worst_drift = max(worst_drift, float(drift.max()))
                worst_corner = max(
                    worst_corner,
                    float(np.abs(flowed.level(idx.i) - T.level(idx.i)).max()) / corner_scale,
                )
    report(
        "03-exact-flow-conservation",
        worst_drift <= 1e-8 and worst_corner <= 1e-12,
        f"drift {worst_drift:.3e}, corner {worst_corner:.3e}",
    )


def _mixed_corpus():
    towers = []
    kinds = []
    for k in range(80):  # spectrum-disjoint random towers
        depth = 2 + k % 5
        towers.append(theta_tower(depth, 1000 + k, 0.4 if k % 2 else 1.0))
        kinds.append("theta")
    for k in range(40):  # unconstrained random towers
        towers.append(plain_tower(2 + k % 5, 2000 + k))
        kinds.append("plain")
    for k in range(30):  # distinct-diagonal towers: regular levels, not sreg
        depth = 2 + k % 4
        towers.append(Tower(np.diag(np.arange(1.0, depth + 1.0)).astype(complex)))
        kinds.append("diag")
    for k in range(20):  # scalar towers: nothing regular beyond level 1
        depth = 2 + k % 3
        towers.append(new_tower((1.0 + 0.5 * k) * np.eye(depth, dtype=complex)))
        kinds.append("scalar")
    for k in range(20):  # nilpotent shift towers: sreg without theta
        towers.append(jordan_tower(2 + k % 5))
        kinds.append("jordan")
    rng = np.random.default_rng(77)
    for k in range(10):  # abelian-acted shift towers
        depth = 3 + k % 3
        towers.append(a_act(random_params(rng, depth, 0.4), jordan_tower(depth)))
        kinds.append("jordan-acted")
    return towers, kinds


def test_criterion_04_sreg_criterion_equivalence():
    # On 200 mixed towers the three criteria agree, or the report is
    # indeterminate with margin < 10x tolerance; every spectrum-disjoint
    # tower is strongly regular.
    towers, kinds = _mixed_corpus()
    assert len(towers) == 200
    disagreements = 0
    for T, kind in zip(towers, kinds):
        rep = sreg_report(T)
        verdicts = [v for v in (rep.by_differentials, rep.by_centralizers, rep.by_tangents) if v is not None]
        if rep.verdict in ("true", "false"):
            agree = len(set(verdicts)) == 1
        else:
            margins = [m for m in rep.margins if m is not None]
            agree = min(margins) < 10.0
            disagreements += 1
        assert agree, f"{kind} tower of depth {T.depth} broke criterion agreement"
        if kind == "theta":
            assert rep.verdict == "true", f"theta tower of depth {T.depth} not sreg"
        if kind in ("jordan", "jordan-acted"):
            assert rep.verdict == "true" and rep.theta is False
    report(
        "04-sreg-criterion-equivalence",
        True,
        f"200 towers, {disagreements} near-threshold disagreements",
    )


def test_criterion_05_lagrangian_verification():
    # Spectrum-disjoint towers of depth 2..6: abelian rank exactly N(N-1)/2,
    # orbit rank exactly N^2-N, isotropy pairing <= 1e-8 * scale.
    for depth in range(2, 7):
        T = theta_tower(depth, 300 + depth)
        rep = lagrangian_check(T)
        ok = (
            rep.verdict == "true"
            and rep.rank_A == depth * (depth - 1) // 2
            and rep.rank_G == depth * depth - depth
            and rep.max_pairing <= 1e-8 * rep.pairing_scale
        )
        assert ok, f"depth {depth}: {rep}"
    report("05-lagrangian-verification", True, "depths 2-6, exact ranks, isotropic")


def test_criterion_06_gluing_consistency():
    # 1000 random (tower, Z1, Z2, n) draws: gluing defect <= 1e-12 * scale.
    rng = np.random.default_rng(9)
    worst = 0.0
    for block in range(10):
        T = plain_tower(6, 500 + block)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            Z1 = random_entries(rng, (n, n), 1.0)
            Z2 = random_entries(rng, (n, n), 1.0)
            scale = 1.0 + np.linalg.norm(T.level(n + 1), 2) * np.linalg.norm(
                Z1, 2
            ) * np.linalg.norm(Z2, 2)
            worst = max(worst, match_residual(T, Z1, Z2, n) / scale)
    report("06-gluing-consistency", worst <= 1e-12, f"1000 draws, max ratio {worst:.3e}")


def test_criterion_07_poisson_symplectic_consistency():
    # Bracket of observable pairs equals the glued form on their
    # Hamiltonian tangents, rel 1e-8, on strongly regular towers.
    worst = 0.0
    for depth in range(2, 7):
        T = theta_tower(depth, 600 + depth)
        assert sreg_report(T).verdict == "true"
        idxs = gz_indices(depth)
        B = power_table(T).bracket_matrix()
        for a in range(len(idxs)):
            for b in range(a, len(idxs)):
                i1, i2 = idxs[a], idxs[b]
                bound = 1.0 + np.linalg.norm(T.level(max(i1.i, i2.i)), 2) ** (i1.i + i2.i)
                br = B[a, b]
                om = omega_inf(T, gz_hamiltonian(T, i1), gz_hamiltonian(T, i2))
                worst = max(worst, abs(br - om) / bound)
    report("07-poisson-symplectic-consistency", worst <= 1e-8, f"max ratio {worst:.3e}")


def test_criterion_08_abelian_action():
    # Group law and order-permuted factor application agree to 1e-8 on
    # strongly regular towers of depth <= 6.
    rng = np.random.default_rng(10)
    worst_law = 0.0
    worst_order = 0.0
    for depth in range(3, 7):
        T = theta_tower(depth, 700 + depth, 0.4)
        assert sreg_report(T).verdict == "true"
        a = random_params(rng, depth, 0.4)
        b = random_params(rng, depth, 0.4)
        combined = a_act(a + b, T).top
        sequential = a_act(b, a_act(a, T)).top
        scale = 1.0 + np.abs(combined).max()
        worst_law = max(worst_law, np.abs(sequential - combined).max() / scale)

        reference = a_act(a, T).top
        order = gz_indices(depth - 1)
        perm = [order[int(k)] for k in rng.permutation(len(order))]
        stepped = a_act_stepwise(a, T, perm).top
        worst_order = max(
            worst_order, np.abs(stepped - reference).max() / (1.0 + np.abs(reference).max())
        )
    report(
        "08-abelian-action",
        worst_law <= 1e-8 and worst_order <= 1e-8,
        f"group law {worst_law:.3e}, factor order {worst_order:.3e}",
    )


def _triangular_with_diagonal(rng, diag):
    n = len(diag)
    M = np.zeros((n, n), dtype=np.complex128)
    for k in range(n):
        M[k, k] = diag[k]
        for l in range(k + 1, n):
            M[k, l] = complex(rng.standard_normal(), rng.standard_normal())
    return M


def _exact_similarity(rng, M):
    # Permutation and power-of-two scaling conjugations are exact in
    # floating point, so the spectrum is preserved bit for bit.
    n = M.shape[0]
    P = np.eye(n, dtype=np.complex128)[rng.permutation(n)]
    S = np.diag(2.0 ** rng.integers(-3, 4, size=n)).astype(np.complex128)
    Q = P @ S
    return Q @ M @ np.linalg.inv(Q)


def test_criterion_09_oracle_cross_checks():
    # (a) Sylvester-operator disjointness agrees with the root oracle on
    # 200 pairs of dimension <= 6; (b) production and elimination kernels
    # agree in dimension on 100 singular draws.
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(100):  # generic pairs: disjoint with a decisive gap
        na, nb = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        A = random_entries(rng, (na, na), 1.0)
        B = random_entries(rng, (nb, nb), 1.0)
        ra, rb = charpoly_roots(A), charpoly_roots(B)
        gap = min(abs(x - y) for x in ra for y in rb)
        scale = max(max(abs(z) for z in ra + rb), 1.0)
        assert spectra_disjoint(A, B) == (gap > 1e-6 * scale)
        checked += 1
    for _ in range(100):  # constructed pairs sharing one exact eigenvalue
        na, nb = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        shared = complex(rng.standard_normal(), rng.standard_normal())
        da = [shared] + [complex(*rng.standard_normal(2)) for _ in range(na - 1)]
        db = [shared] + [complex(*rng.standard_normal(2)) for _ in range(nb - 1)]
        A = _exact_similarity(rng, _triangular_with_diagonal(rng, da))
        B = _exact_similarity(rng, _triangular_with_diagonal(rng, db))
        ra, rb = charpoly_roots(A), charpoly_roots(B)
        gap = min(abs(x - y) for x in ra for y in rb)
        scale = max(max(abs(z) for z in ra + rb), 1.0)
        assert not spectra_disjoint(A, B)
        assert gap <= 1e-6 * scale
        checked += 1
    assert checked == 200

    kernel_checked = 0
    for _ in range(50):  # commutator maps: always singular
        n = int(rng.integers(2, 5))
        M = random_entries(rng, (n, n), 1.0)
        production = null_space(ad_operator(M))
        oracle = dense_kernel(probe_operator(lambda Z, M=M: Z @ M - M @ Z, n))
        assert len(production) == len(oracle)
        kernel_checked += 1
    for _ in range(50):  # explicit low-rank operators
        n = int(rng.integers(2, 4))
        r = int(rng.integers(1, n * n))
        W1 = random_entries(rng, (n * n, r), 1.0)
        W2 = random_entries(rng, (r, n * n), 1.0)
        O = W1 @ W2
        assert len(null_space(O)) == len(dense_kernel(O))
        kernel_checked += 1
    report(
        "09-oracle-cross-checks",
        kernel_checked == 100,
        "200 spectrum pairs, 100 kernel draws",
    )


def test_criterion_10_cli_contract(tmp_path):
    # Full check suite on a seeded depth-5 tower: exit 0, schema-valid
    # deterministic JSON, within 30 s.
    start = time.monotonic()
    tower_file = tmp_path / "t5.json"
    assert cli.main(["gen", "--depth", "5", "--seed", "17", "-o", str(tower_file)]) == 0
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli.main(["check", str(tower_file), "--seed", "17", "-o", str(r1)]) == 0
    assert cli.main(["check", str(tower_file), "--seed", "17", "-o", str(r2)]) == 0
    elapsed = time.monotonic() - start
    payload = json.loads(r1.read_text())
    jsonschema.validate(payload, REPORT_SCHEMA)
    ok = (
        r1.read_bytes() == r2.read_bytes()
        and all(c["passed"] == "true" for c in payload["checks"])
        and elapsed <= 30.0
    )
    report("10-cli-contract", ok, f"exit 0, schema valid, deterministic, {elapsed:.1f}s")
