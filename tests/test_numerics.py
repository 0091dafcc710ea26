import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from helpers import OracleRng
from mrnn.numerics import RNG_BLOCK, Rng, init_matrix, matvec, relu, scaled_tanh, softmax

SEEDS = (0, 2**63 + 5, 2**64 - 1)


class TestMatvec:
    def test_identity(self):
        assert_array_equal(matvec(np.eye(3), np.array([1.0, 2, 3])), [1, 2, 3])

    def test_zero_matrix_annihilates(self):
        assert_array_equal(matvec(np.zeros((2, 3)), np.array([5.0, 5, 5])), [0, 0])

    def test_hand_evaluated_sum(self):
        out = matvec(np.array([[1.0, 2], [3, 4]]), np.array([1.0, 1]))
        assert_array_equal(out, [3, 7])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matvec(np.zeros((2, 3)), np.zeros(4))

    def test_linearity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.normal(size=(5, 7))
            u, v = rng.normal(size=7), rng.normal(size=7)
            a, b = rng.normal(), rng.normal()
            lhs = matvec(m, a * u + b * v)
            rhs = a * matvec(m, u) + b * matvec(m, v)
            assert_allclose(lhs, rhs, atol=1e-9)


class TestActivations:
    def test_relu_values(self):
        assert_array_equal(relu(np.array([0.0, 0.0])), [0, 0])
        assert_array_equal(relu(np.array([-1.0, 2.0])), [0, 2])
        assert_array_equal(relu(np.array([-0.5, 0.5, -3.0])), [0, 0.5, 0])

    def test_relu_idempotent(self):
        v = np.random.default_rng(1).normal(size=100)
        assert_array_equal(relu(relu(v)), relu(v))

    def test_scaled_tanh_zero_and_saturation(self):
        assert_array_equal(scaled_tanh(np.array([0.0])), [0.0])
        big = scaled_tanh(np.array([500.0]))[0]
        assert big == pytest.approx(1.7159, abs=1e-12)
        assert np.all(np.abs(scaled_tanh(np.linspace(-40, 40, 101))) <= 1.7159)

    def test_scaled_tanh_oracle_value(self):
        # 1.7159 * tanh(1.0), evaluated with mpmath at 50 digits
        assert scaled_tanh(np.array([1.5]))[0] == pytest.approx(
            1.3068194122044969715, abs=1e-12)

    def test_scaled_tanh_odd(self):
        v = np.random.default_rng(2).uniform(-5, 5, size=200)
        assert_allclose(scaled_tanh(-v), -scaled_tanh(v), atol=1e-12)


class TestSoftmax:
    def test_uniform_on_constant_logits(self):
        for c in (0.0, -3.5, 17.0):
            assert_allclose(softmax(np.full(4, c)), np.full(4, 0.25), atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-50, 50, size=9)
            c = rng.uniform(-100, 100)
            assert np.max(np.abs(softmax(x) - softmax(x + c))) < 1e-9

    def test_closed_form(self):
        out = softmax(np.log(np.array([1.0, 2.0, 3.0])))
        assert_allclose(out, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            y = softmax(rng.uniform(-50, 50, size=31))
            assert np.all(y >= 0)
            assert abs(y.sum() - 1.0) < 1e-6

    def test_overflow_safe(self):
        y = softmax(np.array([1000.0, 0.0, -1000.0]))
        assert np.all(np.isfinite(y))
        assert y[0] == pytest.approx(1.0)


    def test_axis_normalizes_each_row(self):
        x = np.random.default_rng(5).normal(scale=20.0, size=(4, 7))
        x[2] += 500.0  # rows on very different scales
        expected = np.array([softmax(row) for row in x])
        assert_allclose(softmax(x), expected, rtol=0, atol=1e-15)
        assert_allclose(softmax(x, axis=0), np.array([softmax(col) for col in x.T]).T,
                        rtol=0, atol=1e-15)


class TestInitMatrix:
    def test_same_seed_bit_identical(self):
        a = init_matrix(6, 5, Rng(99))
        b = init_matrix(6, 5, Rng(99))
        assert_array_equal(a, b)

    def test_bounds(self):
        a = np.sqrt(6.0 / (50 + 40))
        m = init_matrix(50, 40, Rng(5))
        assert np.all(np.abs(m) <= a) and np.abs(m).max() > 0.95 * a

    def test_uniform_mean_within_three_sigma(self):
        # mean of n uniforms on [-a, a] has sigma = a / sqrt(3 n)
        a, n = np.sqrt(6.0 / (1000 + 1000)), 1_000_000
        m = init_matrix(1000, 1000, Rng(12345))
        three_sigma = 3 * a / np.sqrt(3 * n)
        assert abs(m.mean()) < three_sigma


class TestRng:
    def test_same_seed_same_stream(self):
        xs = Rng(42)
        ys = Rng(42)
        assert [xs.next_u64() for _ in range(100)] == [ys.next_u64() for _ in range(100)]

    def test_scalar_and_bulk_paths_agree(self):
        bulk = Rng(7).random_array(64)
        one_at_a_time = Rng(7)
        scalar = np.array([one_at_a_time.random() for _ in range(64)])
        assert_array_equal(bulk, scalar)

    def test_published_splitmix64_vectors(self):
        # the reference generator's first outputs for seed 1234567, and for seed 0
        expected = [6457827717110365317, 3203168211198807973, 9817491932198370423,
                    4593380528125082431, 16408922859458223821]
        scalar = Rng(1234567)
        assert [scalar.next_u64() for _ in range(5)] == expected
        assert Rng(1234567).next_u64_array(5).tolist() == expected
        mixed = Rng(1234567)
        assert [mixed.next_u64(), *mixed.next_u64_array(3).tolist(), mixed.next_u64()] == expected
        assert Rng(0).next_u64() == 0xE220A8397B1DCDAF == Rng(0).next_u64_array(1)[0]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [0, 1, RNG_BLOCK - 1, RNG_BLOCK, RNG_BLOCK + 1,
                                   3 * RNG_BLOCK + 7])
    def test_draws_match_the_whole_array_oracle(self, seed, n):
        # scalar draws between the bulk ones: both counters must stay in step
        rng, oracle = Rng(seed), OracleRng(seed)
        for draw in (lambda r: r.next_u64_array(n), lambda r: r.next_u64(),
                     lambda r: r.random_array(n), lambda r: r.random(),
                     lambda r: r.uniform(-0.3, 0.7, n), lambda r: r.uniform(-2.0, 3.0),
                     lambda r: r.randint(7)):
            got, want = draw(rng), draw(oracle)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            else:
                assert type(got) is type(want) and got == want
        for dtype in (np.float64, np.float32):
            if n:
                got, want = init_matrix(n, 1, rng, dtype=dtype), oracle.init_matrix(n, 1, dtype)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert rng.next_u64() == oracle.next_u64()

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 320])
    def test_shuffle_matches_per_step_fisher_yates(self, n):
        for seed in SEEDS:
            rng, oracle = Rng(seed), OracleRng(seed)
            got, want = list(range(n)), list(range(n))
            rng.shuffle(got)
            oracle.shuffle(want)
            assert got == want
            assert rng.next_u64() == oracle.next_u64()

    def test_different_seeds_differ(self):
        assert Rng(1).next_u64() != Rng(2).next_u64()

    def test_random_in_unit_interval(self):
        r = Rng(3)
        vals = r.random_array(10_000)
        assert np.all((vals >= 0.0) & (vals < 1.0))

    def test_randint_bounds_and_error(self):
        r = Rng(11)
        assert all(0 <= r.randint(7) < 7 for _ in range(200))
        with pytest.raises(ValueError):
            r.randint(0)

    def test_shuffle_deterministic_permutation(self):
        items = list(range(20))
        a, b = list(items), list(items)
        Rng(5).shuffle(a)
        Rng(5).shuffle(b)
        assert a == b
        assert sorted(a) == items

    def test_choice(self):
        picked = Rng(8).choice(list("abcdefgh"), 3)
        assert len(picked) == 3 and len(set(picked)) == 3
        with pytest.raises(ValueError):
            Rng(8).choice([1, 2], 3)
