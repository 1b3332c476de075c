import json
from pathlib import Path

import numpy as np

from relphase import (basis, commutator, conjugate, d_basis, d_hat, d_operator,
                      decompose, scalar_product, scalar_square, symplectic_bracket,
                      tri_product, tri_product_coords)
from relphase.verify import (SUITES, _draw, _rel, _rvec, _worst, run_all, suite_core,
                             suite_triproduct)

PINNED_SEED42 = Path(__file__).parent / "data" / "verify_seed42.json"


def test_every_suite_passes_on_seed_306_9():
    # This pass draws a vector whose null-tetrad round trip is off by
    # 1.34e-15 in absolute terms, above the 1e-15 tolerance of
    # rep.np_round_trip; the scale-relative residual stays below it.
    rng = np.random.default_rng([306, 9])
    failed = [c.id for _, fn in SUITES for c in fn(rng) if not c.passed()]
    assert failed == []


def test_batched_draw_matches_per_draw_calls():
    # One block of normals gives the same inputs, and leaves the generator in
    # the same state, as the per-draw scalar and _rvec calls it replaces.
    batched = np.random.default_rng(9)
    per_draw = np.random.default_rng(9)
    lam, a, b = _draw(batched, 7, 1, 4, 4)
    assert lam.shape == (7, 1) and a.shape == b.shape == (7, 4)
    for k in range(7):
        assert lam[k, 0] == complex(per_draw.standard_normal() + 1j * per_draw.standard_normal())
        np.testing.assert_array_equal(a[k], _rvec(per_draw))
        np.testing.assert_array_equal(b[k], _rvec(per_draw))
    assert batched.bit_generator.state == per_draw.bit_generator.state


def test_worst_is_the_max_of_per_draw_rel():
    rng = np.random.default_rng(4)
    for shape in [(30,), (30, 4), (30, 4, 4)]:
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
        b = a + 1e-3 * rng.standard_normal(shape)
        assert _worst(a, b) == max(_rel(x, y) for x, y in zip(a, b))
    assert _worst(np.zeros((0, 4)), np.zeros((0, 4))) == 0.0


def test_seed_42_residuals_stay_near_pinned_values():
    # The pinned file is the seed-42 `relphase verify` JSON report from before
    # the core and tri-product suites were batched.  A residual may move with
    # rounding, but more than 10x its pinned value is a loss of precision,
    # and an exactly zero residual must stay exactly zero.
    pinned = {c["id"]: c["residual"]
              for suite in json.loads(PINNED_SEED42.read_text()) for c in suite["checks"]}
    got = {c.id: c for _, checks in run_all(42) for c in checks}
    assert list(got) == list(pinned)
    for cid, check in got.items():
        assert check.passed(), cid
        if pinned[cid] == 0.0:
            assert check.residual == 0.0, cid
        else:
            assert check.residual <= 10.0 * pinned[cid], cid


def _scalar_draw(rng):
    return complex(rng.standard_normal() + 1j * rng.standard_normal())


def loop_core(rng, draws):
    """The per-draw loops of suite_core, kept as its reference."""
    bilinear = symmetry = decomposition = skew = 0.0
    for _ in range(draws):
        lam = _scalar_draw(rng)
        a, b, c = _rvec(rng), _rvec(rng), _rvec(rng)
        bilinear = max(bilinear,
                       _rel(scalar_product(lam * a + c, b),
                            lam * scalar_product(a, b) + scalar_product(c, b)),
                       _rel(scalar_product(b, lam * a + c),
                            lam * scalar_product(b, a) + scalar_product(b, c)))
    for _ in range(draws):
        a, b = _rvec(rng), _rvec(rng)
        symmetry = max(symmetry, abs(scalar_product(a, b) - scalar_product(b, a)))
    for _ in range(draws):
        a = _rvec(rng)
        p, x = decompose(a)
        s, sq = scalar_product(conjugate(a), a), scalar_square(a)
        decomposition = max(decomposition, _rel(scalar_square(p), 0.5 * (s + sq).real),
                            _rel(scalar_square(x), 0.5 * (s - sq).real))
    for _ in range(100):
        a, b = _rvec(rng), _rvec(rng)
        pr, pi, qr, qi = (rng.standard_normal(4) for _ in range(4))
        skew = max(skew, abs(symplectic_bracket(a, b) + symplectic_bracket(b, a)),
                   abs(symplectic_bracket(pr, qr)), abs(symplectic_bracket(1j * pi, 1j * qi)))
    return [bilinear, symmetry, decomposition, skew]


def loop_triproduct(rng, draws):
    """The per-draw loops of suite_triproduct, kept as its reference."""
    outer = trilinear = jordan = coords = basis_gap = 0.0
    for _ in range(draws):
        a, b, c = _rvec(rng), _rvec(rng), _rvec(rng)
        outer = max(outer, _rel(tri_product(a, b, c), tri_product(c, b, a)))
    for _ in range(100):
        lam = _scalar_draw(rng)
        a, a2, b, c = _rvec(rng), _rvec(rng), _rvec(rng), _rvec(rng)
        trilinear = max(trilinear,
                        _rel(tri_product(lam * a + a2, b, c),
                             lam * tri_product(a, b, c) + tri_product(a2, b, c)),
                        _rel(tri_product(b, lam * a + a2, c),
                             lam * tri_product(b, a, c) + tri_product(b, a2, c)),
                        _rel(tri_product(b, c, lam * a + a2),
                             lam * tri_product(b, c, a) + tri_product(b, c, a2)))
    for _ in range(draws):
        x, y, a, b = _rvec(rng), _rvec(rng), _rvec(rng), _rvec(rng)
        lhs = commutator(d_operator(x, y), d_operator(a, b))
        rhs = d_operator(d_operator(x, y) @ a, b) - d_operator(a, d_operator(y, x) @ b)
        jordan = max(jordan, _rel(lhs, rhs))
    for _ in range(draws):
        a, b, c = _rvec(rng), _rvec(rng), _rvec(rng)
        coords = max(coords, _rel(tri_product(a, b, c), tri_product_coords(a, b, c)))
    for alpha in range(4):
        for beta in range(4):
            basis_gap = max(basis_gap, float(np.abs(d_basis(alpha, beta)
                                                    - d_hat(basis(alpha), basis(beta))).max()))
    return [outer, trilinear, jordan, coords, basis_gap]


def test_batched_suites_reproduce_the_per_draw_loops():
    # Same inputs, same kernel bits: every residual is equal, except that
    # core.bilinearity scales by lam with numpy's complex multiply instead of
    # Python's, which may round differently by a few units in the last place.
    eps = np.finfo(np.float64).eps
    for seed in (3, 8):
        batched, per_draw = np.random.default_rng(seed), np.random.default_rng(seed)
        core = [c.residual for c in suite_core(batched, draws=60)]
        want = loop_core(per_draw, 60)
        assert abs(core[0] - want[0]) <= 8 * eps
        assert core[1:] == want[1:]
        assert [c.residual for c in suite_triproduct(batched, draws=60)] == \
            loop_triproduct(per_draw, 60)
        assert batched.bit_generator.state == per_draw.bit_generator.state
