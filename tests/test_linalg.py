"""Dense linear algebra helpers: frozen values plus seeded random checks."""

import numpy as np
import pytest

from unravel.errors import NotHermitian, NotPSD, ZeroVector
from unravel.linalg import (
    _EINSUM_PASS,
    _eigh_2x2,
    _eigh_lapack,
    _order_ties,
    complement_batch,
    eigh,
    eigh_batched,
    eigvalsh_min,
    haar_state,
    hermitize,
    normalize,
    normalize_rows,
    orthonormal_complement,
    phase_fix_columns,
    psd_sqrt,
    require_density,
    require_hermitian,
    trace_distance,
    unvec,
    vec,
    weighted_outer_sum,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_trace_distance_orthogonal_pure_states():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(p0, p1) == pytest.approx(1.0)
    assert trace_distance(p0, p0) == 0.0


def test_trace_distance_qubit_closed_form():
    # rho = (I + r.sigma)/2; distance is half the Bloch-vector gap
    rho1 = 0.5 * (np.eye(2) + 0.6 * SX)
    rho2 = 0.5 * (np.eye(2) - 0.2 * SX)
    assert trace_distance(rho1, rho2) == pytest.approx(0.4, abs=1e-12)


def test_trace_distance_rejects_nonhermitian_difference():
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NotHermitian):
        trace_distance(a, np.zeros((2, 2)))


@pytest.mark.parametrize("d", [2, 3])
def test_trace_distance_of_stacks_is_the_pairwise_distance(d):
    gen = np.random.default_rng(4)
    z = gen.standard_normal((2, 5, 7, d, d)) + 1j * gen.standard_normal((2, 5, 7, d, d))
    a, b = hermitize(z[0]), hermitize(z[1])
    got = trace_distance(a, b)
    assert got.shape == (5, 7)
    want = np.array([[trace_distance(a[i, k], b[i, k]) for k in range(7)] for i in range(5)])
    assert np.array_equal(got, want)
    broadcast = np.array([[trace_distance(a[i, k], b[0, k]) for k in range(7)] for i in range(5)])
    assert np.array_equal(trace_distance(a, b[0]), broadcast)
    one = trace_distance(a[2, 3], b[2, 3])
    assert type(one) is float and one == got[2, 3]
    a[4, 1, 0, d - 1] += 1e-3  # one difference in the stack stops being hermitian
    with pytest.raises(NotHermitian):
        trace_distance(a, b)


def test_psd_sqrt_diagonal():
    s = psd_sqrt(np.diag([4.0, 9.0]).astype(complex))
    assert np.allclose(s, np.diag([2.0, 3.0]))


def test_psd_sqrt_round_trip():
    gen = np.random.default_rng(11)
    a = gen.standard_normal((5, 5)) + 1j * gen.standard_normal((5, 5))
    m = a @ a.conj().T
    s = psd_sqrt(m)
    assert np.allclose(s @ s, m, atol=1e-10)
    assert np.allclose(s, s.conj().T)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, -1.0]).astype(complex))


def test_normalize_returns_unit_vector_and_norm():
    v, n = normalize(np.array([3.0, 4.0], dtype=complex))
    assert n == pytest.approx(5.0)
    assert np.allclose(v, [0.6, 0.8])
    with pytest.raises(ZeroVector):
        normalize(np.zeros(3, dtype=complex))


def test_eigh_batched_orders_and_reconstructs():
    gen = np.random.default_rng(5)
    ms = gen.standard_normal((7, 4, 4)) + 1j * gen.standard_normal((7, 4, 4))
    ms = ms + np.conj(np.swapaxes(ms, 1, 2))
    vals, vecs = eigh_batched(ms)
    assert np.all(np.diff(vals, axis=1) <= 1e-12)  # largest eigenvalue first
    rebuilt = np.einsum("nik,nk,njk->nij", vecs, vals, np.conj(vecs))
    assert np.allclose(rebuilt, ms, atol=1e-10)


def test_eigh_phase_convention_is_deterministic():
    gen = np.random.default_rng(6)
    m = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
    m = m + m.conj().T
    _, v1 = eigh(m)
    # same matrix through the batched path, shuffled in with others
    batch = np.stack([np.eye(3, dtype=complex), m, 2.0 * np.eye(3, dtype=complex)])
    _, v2 = eigh_batched(batch)
    assert np.allclose(v1, v2[1], atol=1e-12)


def test_eigh_degenerate_spectrum_still_orthonormal():
    _, vecs = eigh(np.eye(4, dtype=complex))
    assert np.allclose(vecs.conj().T @ vecs, np.eye(4), atol=1e-12)


def test_eigvalsh_min_on_stack():
    ms = np.stack([np.diag([2.0, -3.0]), np.diag([0.5, 1.5])]).astype(complex)
    assert np.allclose(eigvalsh_min(ms), [-3.0, 0.5])


def _with_negative_zeros(gen, shape):
    """Random complex entries of many magnitudes, about a third of the real
    and imaginary parts set to -0.0."""
    z = (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) * 10.0 ** gen.integers(-5, 5, shape)
    z.real[gen.random(shape) < 0.3] = -0.0
    z.imag[gen.random(shape) < 0.3] = -0.0
    return z


def test_normalize_has_the_bits_of_numpy_norm():
    gen = np.random.default_rng(12)
    for _ in range(3000):
        v = _with_negative_zeros(gen, int(gen.integers(1, 7)))
        want = float(np.linalg.norm(v))
        if want <= 1e-14:
            continue
        u, n = normalize(v)
        assert n == want
        assert (v / want).tobytes() == u.tobytes()


def test_normalize_rows_has_the_bits_of_normalize_row_by_row():
    """Each unit row has ``normalize``'s bits at d = 1 to 6, and the first
    row it rejects is reported with ``normalize``'s error."""
    gen = np.random.default_rng(13)
    for case in range(600):
        d, n = int(gen.integers(1, 7)), int(gen.integers(1, 9))
        rows = _with_negative_zeros(gen, (n, d))
        rows[gen.random(n) < 0.1] *= 1e-16
        units, bad = normalize_rows(rows)
        first = None
        for q, row in enumerate(rows):
            try:
                want = normalize(row)[0]
            except ZeroVector as err:
                first = (q, str(err)) if first is None else first
                continue
            assert units[q].tobytes() == want.tobytes(), (case, q)
        assert (bad if bad is None else (bad[0], str(bad[1]))) == first, case
        if bad is not None:
            assert isinstance(bad[1], ZeroVector)


def test_normalize_falls_back_to_numpy_norm(monkeypatch):
    """Only a contiguous 1-D complex vector skips ``np.linalg.norm``."""
    calls = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda v: (calls.append(np.shape(v)), norm(v))[1])
    z = np.array([[3.0, 4.0j], [1.0, 0.0]])
    normalize(z[0])
    assert calls == []
    for v in (np.array([3.0, 4.0]), z, z[:, 0], np.array([3.0, 4.0], dtype=np.complex64)):
        _u, n = normalize(v)
        assert n == norm(v)
    assert calls == [(2,), (2, 2), (2,), (2,)]


def test_haar_state_normalized_and_seeded():
    gen = np.random.default_rng(123)
    psi = haar_state(5, gen)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    again = haar_state(5, np.random.default_rng(123))
    assert np.allclose(psi, again)


def test_haar_first_component_moment():
    gen = np.random.default_rng(42)
    d = 4
    m = np.mean([abs(haar_state(d, gen)[0]) ** 2 for _ in range(4000)])
    assert m == pytest.approx(1.0 / d, abs=0.02)


def test_orthonormal_complement_spans_perp():
    gen = np.random.default_rng(3)
    for d in (2, 3, 6):
        psi = haar_state(d, gen)
        q = orthonormal_complement(psi)
        assert q.shape == (d, d - 1)
        assert np.allclose(q.conj().T @ q, np.eye(d - 1), atol=1e-12)
        assert np.max(np.abs(q.conj().T @ psi)) < 1e-12


def test_complement_batch_matches_single():
    gen = np.random.default_rng(9)
    states = np.stack([haar_state(3, gen) for _ in range(6)], axis=1)  # columns
    qs = complement_batch(states)
    assert qs.shape == (2, 3, 6)
    for k in range(6):
        assert np.allclose(qs[:, :, k].T, orthonormal_complement(states[:, k]), atol=1e-12)


def _lapack_reference(ms):
    """``eigh_batched`` through the general (LAPACK) path, whatever d is."""
    vals, vecs = _eigh_lapack(np.asarray(ms, dtype=complex))
    _order_ties(vals, vecs)
    return vals, vecs


def _random_hermitian(gen, shape):
    ms = gen.standard_normal(shape + (2, 2)) + 1j * gen.standard_normal(shape + (2, 2))
    return 0.5 * (ms + np.conj(np.swapaxes(ms, -1, -2)))


def test_complement_batch_closed_form_at_d2():
    gen = np.random.default_rng(21)
    r = 1.0 / np.sqrt(2.0)
    states = np.concatenate([
        np.stack([haar_state(2, gen) for _ in range(200)]),
        [[0.0, 1.0], [0.0, -1j], [1.0, 0.0], [np.exp(2j), 0.0]],  # a = 0, b = 0
        [[r, r], [r, 1j * r], [-r, 1j * r], [1j * r, -r]],  # |a| = |b|
    ]).astype(complex)
    qs = complement_batch(states.T)
    assert qs.shape == (1, 2, len(states))
    q = qs[0].T
    assert np.allclose(np.abs(q[:, 0]) ** 2 + np.abs(q[:, 1]) ** 2, 1.0, atol=1e-15)
    assert np.max(np.abs(np.einsum("ni,ni->n", np.conj(q), states))) < 1e-15
    # the phase rule: the largest entry, the first on a tie, is real and >= 0
    lead = np.where(np.abs(q[:, 1]) > np.abs(q[:, 0]), q[:, 1], q[:, 0])
    assert np.all(lead.imag == 0.0) and np.all(lead.real > 0.0)
    assert np.all(q[-4:, 0].imag == 0.0)  # ties take the first entry
    assert np.allclose(q[:, :, None], phase_fix_columns(np.stack([-np.conj(states[:, 1]), np.conj(states[:, 0])],
                                                                 axis=1)[:, :, None]), atol=1e-15)
    assert np.array_equal(orthonormal_complement(states[3]), q[3][:, None])


def test_eigh_2x2_closed_form_matches_lapack():
    gen = np.random.default_rng(22)
    ms = _random_hermitian(gen, (2000,)) * 10.0 ** gen.integers(-3, 3, (2000, 1, 1))
    vals, vecs = eigh_batched(ms)
    ref_vals, ref_vecs = _lapack_reference(ms)
    scale = np.abs(ref_vals).max(axis=1, keepdims=True)
    assert np.all(np.abs(vals - ref_vals) <= 2e-15 * scale)
    assert np.all(vals[:, 0] >= vals[:, 1])
    assert np.max(np.abs(vecs - ref_vecs)) < 2e-15
    # leading axes are kept
    vals3, vecs3 = eigh_batched(ms[:24].reshape(2, 3, 4, 2, 2))
    assert np.array_equal(vals3.reshape(24, 2), vals[:24])
    assert np.array_equal(vecs3.reshape(24, 2, 2), vecs[:24])


def test_eigh_2x2_special_inputs_match_lapack():
    ms = np.array([
        np.eye(2), 0.0 * np.eye(2), -2.5 * np.eye(2), 1e-3 * np.eye(2),  # exact ties
        np.diag([1.0, 3.0]), np.diag([-0.5, 0.25]),  # a < d
        np.diag([3.0, 1.0]), np.diag([0.0, -0.0]),  # a > d, and +0 against -0
        [[2.0, 1e-14j], [-1e-14j, 1.0]], [[1.0, 1e-300], [1e-300, 2.0]],  # tiny off-diagonals
        [[0.0, 1.0], [1.0, 0.0]], [[1.0, 2j], [-2j, 1.0]],  # a = d
    ], dtype=complex)
    vals, vecs = eigh_batched(ms)
    ref_vals, ref_vecs = _lapack_reference(ms)
    assert np.array_equal(vals[:4], ref_vals[:4]) and np.array_equal(vecs[:4], ref_vecs[:4])
    assert np.allclose(vals, ref_vals, rtol=1e-15, atol=0.0)
    assert np.allclose(vecs[:10], ref_vecs[:10], atol=1e-15, rtol=0.0)
    # a = d puts |cos| and |sin| within an ulp, where either entry may lead:
    # the columns agree up to a phase
    overlap = np.abs(np.einsum("nij,nij->nj", np.conj(vecs[10:]), ref_vecs[10:]))
    assert np.allclose(overlap, 1.0, atol=1e-15)
    rebuilt = np.einsum("nik,nk,njk->nij", vecs, vals, np.conj(vecs))
    assert np.allclose(rebuilt, ms, atol=1e-15, rtol=0.0)
    # h^2 + |b|^2 underflows to 0 at 1e-170 and overflows at 1e170
    gen = np.random.default_rng(23)
    base = np.concatenate([np.ones((1, 2, 2)), _random_hermitian(gen, (200,))]).astype(complex)
    for scale in (1e-170, 1e170):
        ms = scale * base
        vals, vecs = eigh_batched(ms)
        ref_vals, ref_vecs = _lapack_reference(ms)
        assert np.all(np.abs(vals - ref_vals) <= 2e-15 * np.abs(ref_vals).max(axis=1, keepdims=True))
        assert np.max(np.abs(vecs[1:] - ref_vecs[1:])) < 2e-15
        # the all-ones matrix has a = d, where the columns agree up to a phase
        assert vals[0, 0] == 2.0 * scale and abs(vals[0, 1]) <= 1e-15 * scale
        assert np.allclose(np.abs(np.sum(np.conj(vecs[0]) * ref_vecs[0], axis=0)), 1.0, atol=1e-15)


def _sorted_ties(vals, vecs):
    """The tie rule as stated, matrix by matrix: the columns of each run of
    exactly equal values in Python's ``sorted`` order of their keys, the
    entries' interleaved (re, im) parts."""
    d = vals.shape[-1]
    out = vecs.copy()
    for v, w in zip(vals.reshape(-1, d), out.reshape(-1, d, d)):
        i = 0
        while i < d:
            j = i + 1
            while j < d and v[j] == v[i]:
                j += 1
            w[:, i:j] = w[:, sorted(range(i, j), key=lambda k: [x for c in w[:, k] for x in (c.real, c.imag)])]
            i = j
    return out


def _tie_stack(gen, d, shape):
    """Hermitian stack (*shape, d, d) of scalar identities (zero and -0.0
    among them), permuted diagonals with repeats and signed zeros under
    random phases, a 2 x 2 block repeated down the diagonal, zero matrices
    with a -0.0 entry, and random matrices without ties."""
    ms = np.zeros((int(np.prod(shape)), d, d), dtype=complex)
    for i, m in enumerate(ms):
        kind = i % 5
        if kind == 0:
            m[:] = gen.choice([1.0, 0.0, -0.0, -2.5, 1e-3]) * np.eye(d)
        elif kind == 1:
            p = np.eye(d)[gen.permutation(d)] * np.exp(2j * np.pi * gen.random(d))
            m[:] = p @ np.diag(gen.choice([0.0, -0.0, 1.0, 2.0], d)) @ np.conj(p.T)
        elif kind == 2:
            h = _random_hermitian(gen, ())
            m[: d // 2 * 2, : d // 2 * 2] = np.kron(np.eye(d // 2), h)
        elif kind == 3:
            m[gen.integers(d), gen.integers(d)] = -0.0
        else:
            z = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
            m[:] = z + np.conj(z.T)
    return ms.reshape(shape + (d, d))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_exact_ties_take_the_sorted_order_of_their_keys(d):
    """``eigh_batched`` orders each run of exactly tied columns as Python's
    ``sorted`` orders their (re, im) keys, bit for bit, over leading axes,
    whatever order the run comes in; ``_order_ties`` keeps the order of
    equal keys, as ``sorted`` does."""
    gen = np.random.default_rng(30 + d)
    ms = _tie_stack(gen, d, (3, 4, 5))
    vals, vecs = (_eigh_2x2 if d == 2 else _eigh_lapack)(ms)
    want = _sorted_ties(vals, vecs)
    got_vals, got = eigh_batched(ms)
    assert np.array_equal(got_vals, vals)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # signed zeros too
    # orthonormal columns never share a key: shuffled within their runs,
    # they sort to the same columns
    runs = np.cumsum(np.diff(vals, axis=-1, prepend=vals[..., :1]) != 0.0, axis=-1)
    mixed = np.take_along_axis(vecs, np.lexsort((gen.random(vals.shape), runs), axis=-1)[..., None, :], axis=-1)
    assert np.count_nonzero(np.any(mixed != want, axis=(-2, -1))) >= 10
    _order_ties(vals, mixed)
    assert np.array_equal(mixed.view(np.uint64), want.view(np.uint64))
    # parts 1, 0 and -0.0, so that keys tie as well as values and columns
    # with equal keys differ in their bits
    vals = np.sort(gen.integers(0, 3, (200, d)), axis=-1)[:, ::-1].astype(float)
    vecs = np.empty((200, d, d), dtype=complex)
    for part in (vecs.real, vecs.imag):
        part[:] = gen.choice([1.0, 0.0, -0.0], part.shape)
    want = _sorted_ties(vals, vecs)
    _order_ties(vals, vecs)
    assert np.array_equal(vecs.view(np.uint64), want.view(np.uint64))


def test_eigh_2x2_checks_and_hermitizes():
    with pytest.raises(NotHermitian):
        eigh_batched(np.array([[[1.0, 1.0], [0.0, 1.0]]], dtype=complex))
    skew = np.array([[1.0, 1.0 + 1e-11], [1.0, 2.0 + 1e-12j]], dtype=complex)
    vals, vecs = eigh(skew)
    ref_vals, ref_vecs = eigh(hermitize(skew))
    assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)


def test_vec_is_column_stacking():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(vec(m), [1.0, 3.0, 2.0, 4.0])
    assert np.allclose(unvec(vec(m), 2), m)


def test_weighted_outer_sum():
    states = np.eye(2, dtype=complex)  # columns |0>, |1>
    assert np.allclose(weighted_outer_sum(states, np.array([2.0, 3.0])), np.diag([2.0, 3.0]))
    assert np.allclose(weighted_outer_sum(states), np.eye(2))


def signed_zero_rows(gen, shape):
    """Random complex rows in which some entries and whole rows are -0.0."""
    rows = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    rows.real[gen.random(shape) < 0.2] = -0.0
    rows.imag[gen.random(shape) < 0.2] = -0.0
    rows[gen.random(shape[:-1]) < 0.1] = -0.0
    return rows


def column_stack(rows):
    """The rows (B, n, w) of B batches as a tile holds them: the columns of
    one (w, B n) array, viewed (B, w, n) without a copy."""
    batches, n, width = rows.shape
    tile = np.ascontiguousarray(rows.reshape(batches * n, width).T)
    return np.swapaxes(tile.reshape(width, batches, n), 0, 1)


@pytest.mark.parametrize("width", [2, 6])
@pytest.mark.parametrize("weighted", [False, True])
def test_stacked_weighted_outer_sum_keeps_each_slice_bits(width, weighted):
    """One call on a column stack of batches (a tile's view, the trajectory
    axis contiguous) gives each batch the bytes of the row-major 2-D einsum
    over that batch alone, signed zeros included, also for stacks longer
    than one einsum pass (3 x 5000 columns) and batches longer than one
    pass (9000 columns, more than ``_EINSUM_PASS``); so do one batch's
    columns, as a view and as a contiguous copy."""
    gen = np.random.default_rng(12)
    for batches, n in ((3, 51), (17, 50), (1, 1), (3, 5000), (2, _EINSUM_PASS + 808)):
        rows = signed_zero_rows(gen, (batches, n, width))
        ws = None
        if weighted:
            ws = gen.standard_normal((batches, n))
            ws[gen.random(ws.shape) < 0.1] = -0.0
        ref = np.array([
            np.einsum("ni,nj->ij", r, np.conj(r)) if ws is None else np.einsum("n,ni,nj->ij", ws[b], r, np.conj(r))
            for b, r in enumerate(rows)
        ])
        cols = column_stack(rows)
        assert weighted_outer_sum(cols, ws).tobytes() == ref.tobytes()
        for b, c in enumerate(cols):
            w = None if ws is None else ws[b]
            assert weighted_outer_sum(c, w).tobytes() == ref[b].tobytes()
            assert weighted_outer_sum(np.ascontiguousarray(c), w).tobytes() == ref[b].tobytes()


def test_require_density_accepts_and_rejects():
    good = np.diag([0.25, 0.75]).astype(complex)
    assert require_density(good) is not None
    with pytest.raises(NotHermitian):
        require_density(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
    with pytest.raises(NotPSD):
        require_density(np.diag([0.5, 0.9]).astype(complex))  # trace 1.4
    with pytest.raises(NotPSD):
        require_density(np.diag([1.5, -0.5]).astype(complex))


def test_hermitize_and_require_hermitian():
    m = np.array([[1.0, 1.0 + 1.0j], [0.0, 2.0]], dtype=complex)
    h = hermitize(m)
    assert np.allclose(h, h.conj().T)
    with pytest.raises(NotHermitian):
        require_hermitian(m)
    assert require_hermitian(h) is not None

