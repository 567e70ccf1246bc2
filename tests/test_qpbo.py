import hashlib
import math
import random

import pytest

from mgmatch.qpbo import (
    EXACT_ENUMERATION_LIMIT,
    BinaryEnergy,
    _quadratic_form,
    _solve_submodular,
    evaluate,
    minimize,
)

from oracles import (
    brute_force_energy,
    brute_force_energy_min,
    chain_energy_min,
    energy_value,
)


def swap_pair_energy(deltas):
    """Energy of joint swaps: x_p (1-x_q) carries deltas[p][q]."""
    n = len(deltas)
    pairwise = {}
    for p in range(n):
        for q in range(p + 1, n):
            pairwise[(p, q)] = (0.0, deltas[q][p], deltas[p][q], 0.0)
    return BinaryEnergy(n, pairwise=pairwise)


def random_energy(rng, n, density=0.5, submodular=False, integer=False):
    def draw(lo, hi):
        return rng.randint(lo, hi) if integer else round(rng.uniform(lo, hi), 3)

    unary = [(draw(-3, 3), draw(-3, 3)) for _ in range(n)]
    pairwise = {}
    for p in range(n):
        for q in range(p + 1, n):
            if rng.random() < density:
                t = [draw(-3, 3) for _ in range(4)]
                if submodular:
                    # force t00 + t11 <= t01 + t10
                    gap = t[0] + t[3] - t[1] - t[2]
                    if gap > 0:
                        t[0] -= gap + draw(0, 1)
                pairwise[(p, q)] = tuple(t)
    return BinaryEnergy(n, unary, pairwise)


class TestEvaluate:
    def test_two_swap_deltas(self):
        e = swap_pair_energy([[0.0, -1.0], [5.0, 0.0]])
        assert evaluate(e, (1, 0)) == -1.0
        assert evaluate(e, (0, 1)) == 5.0
        assert evaluate(e, (1, 1)) == 0.0

    def test_all_zero_labeling_is_free_for_swap_energies(self):
        rng = random.Random(3)
        deltas = [[round(rng.uniform(-2, 2), 3) for _ in range(5)] for _ in range(5)]
        e = swap_pair_energy(deltas)
        assert evaluate(e, (0,) * 5) == 0.0

    def test_single_unary(self):
        e = BinaryEnergy(1, [(0.0, 3.0)])
        assert evaluate(e, (1,)) == 3.0

    def test_length_mismatch(self):
        e = BinaryEnergy(2)
        with pytest.raises(ValueError):
            evaluate(e, (0,))

    @pytest.mark.parametrize("labels", [(0, 2), (2, 0), (-1, 0)])
    def test_labels_other_than_0_and_1_rejected(self, labels):
        # (0, 2) would read t10 of the table, (2, 0) an index past it.
        e = BinaryEnergy(2, [(0, 1), (0, 0)], {(0, 1): (0, 5, 7, 0)})
        with pytest.raises(ValueError, match="labels other than 0 and 1"):
            evaluate(e, labels)
        with pytest.raises(ValueError, match="labels other than 0 and 1"):
            minimize(e, labels)

    @pytest.mark.parametrize(
        "n, unary, pairwise, message",
        [
            (-1, None, None, "variable count must be non-negative"),
            (2, [(0.0, 1.0)], None, "unary table length does not match variable count"),
            (0, [(0.0, 1.0)], None, "unary table length does not match variable count"),
            (2, None, {(1, 0): (0, 1, 1, 0)}, "pairwise key (1,0) is not an ordered variable pair"),
            (2, None, {(0, 2): (0, 1, 1, 0)}, "pairwise key (0,2) is not an ordered variable pair"),
            (2, None, {(0, 1): (0, 1, 1)}, "pairwise tables need exactly 4 entries"),
            (2, None, {(0, 1): (0, 1, 1, 0, 0)}, "pairwise tables need exactly 4 entries"),
        ],
    )
    def test_malformed_user_energy_raises(self, n, unary, pairwise, message):
        with pytest.raises(ValueError) as err:
            BinaryEnergy(n, unary, pairwise)
        assert str(err.value) == message

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_user_energy_raises(self, value):
        with pytest.raises(ValueError, match="unary costs must be finite"):
            BinaryEnergy(2, [(0.0, 1.0), (value, 0.0)])
        with pytest.raises(ValueError, match="pairwise costs must be finite"):
            BinaryEnergy(2, pairwise={(0, 1): (0.0, value, 1.0, 0.0)})

    def test_trusted_energy_equals_the_checked_one(self):
        rng = random.Random(8)
        for _ in range(20):
            n = rng.randint(1, 6)
            checked = random_energy(rng, n)
            trusted = BinaryEnergy._trusted(n, list(checked.unary), dict(checked.pairwise))
            assert (trusted.n, trusted.unary, trusted.pairwise) == (
                checked.n, checked.unary, checked.pairwise
            )
            assert minimize(trusted, (0,) * n) == minimize(checked, (0,) * n)
        assert BinaryEnergy._trusted(3).unary == BinaryEnergy(3).unary

    def test_matches_oracle(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 6)
            e = random_energy(rng, n)
            bits = tuple(rng.randint(0, 1) for _ in range(n))
            assert evaluate(e, bits) == pytest.approx(energy_value(e, bits), abs=1e-12)


class TestMinimize:
    def test_two_variable_swap(self):
        e = swap_pair_energy([[0.0, -1.0], [5.0, 0.0]])
        x = minimize(e, (0, 0), seed=1)
        assert x == (1, 0)
        assert evaluate(e, x) == -1.0

    def test_submodular_small_exact(self):
        rng = random.Random(9)
        e = random_energy(rng, 3, density=1.0, submodular=True)
        best, _ = brute_force_energy(e)
        x = minimize(e, (0, 0, 0), seed=0)
        assert evaluate(e, x) == pytest.approx(best, abs=1e-9)

    def test_optimal_init_returned_unchanged(self):
        e = swap_pair_energy([[0.0, -1.0], [5.0, 0.0]])
        x = minimize(e, (1, 0), seed=4)
        assert x == (1, 0)

    def test_never_worsens(self):
        rng = random.Random(11)
        for _ in range(150):
            n = rng.randint(1, EXACT_ENUMERATION_LIMIT + 4)
            e = random_energy(rng, n)
            init = tuple(rng.randint(0, 1) for _ in range(n))
            x = minimize(e, init, seed=rng.randrange(1000))
            assert evaluate(e, x) <= evaluate(e, init) + 1e-12

    def test_exact_below_enumeration_limit(self):
        # Enumeration runs in blocks of 2^12 labelings: n > 12 spans blocks.
        rng = random.Random(13)
        for n in range(1, EXACT_ENUMERATION_LIMIT + 1):
            for density in (0.3, 1.0):
                e = random_energy(rng, n, density=density)
                init = tuple(rng.randint(0, 1) for _ in range(n))
                x = minimize(e, init, seed=0)
                assert evaluate(e, x) == pytest.approx(brute_force_energy_min(e), abs=1e-9)

    @pytest.mark.parametrize("n", range(1, EXACT_ENUMERATION_LIMIT + 1))
    def test_ties_keep_init(self, n):
        """Integer costs make many labelings tie; the result is exact, and
        init comes back whenever no labeling is strictly lower."""
        rng = random.Random(37 + n)
        unary = [(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(n)]
        pairwise = {
            (p, q): tuple(rng.randint(-1, 1) for _ in range(4))
            for p in range(n)
            for q in range(p + 1, n)
            if rng.random() < 0.5
        }
        e = BinaryEnergy(n, unary, pairwise)
        best = brute_force_energy_min(e)
        init = tuple(rng.randint(0, 1) for _ in range(n))
        x = minimize(e, init, seed=0)
        assert evaluate(e, x) == best
        assert minimize(e, x, seed=0) == x  # nothing is strictly below x
        # Agreement-only couplings: all-ones ties with all-zeros, the
        # first labeling enumerated, and must be kept.
        agree = BinaryEnergy(n, pairwise={(p, p + 1): (0, 1, 1, 0) for p in range(n - 1)})
        assert minimize(agree, (1,) * n, seed=0) == (1,) * n

    def test_submodular_exact_above_limit(self):
        """The cut is exact from the enumeration limit up to n = 20, with
        float costs and integer costs (many ties)."""
        rng = random.Random(17)
        for n in range(EXACT_ENUMERATION_LIMIT + 1, 21):
            for k in range(3):
                e = random_energy(rng, n, density=0.4, submodular=True, integer=k == 1)
                init = tuple(rng.randint(0, 1) for _ in range(n))
                x = minimize(e, init, seed=0)
                assert evaluate(e, x) == pytest.approx(brute_force_energy_min(e), abs=1e-9)

    def test_deterministic(self):
        rng = random.Random(19)
        n = EXACT_ENUMERATION_LIMIT + 3  # the seeded improve-sweep path
        e = random_energy(rng, n)
        init = tuple(rng.randint(0, 1) for _ in range(n))
        assert minimize(e, init, seed=7) == minimize(e, init, seed=7)


class TestSubmodularCut:
    def test_labels_pinned(self):
        """The cut labels of 600 seeded submodular energies (n 17-60,
        pairwise density 0.05-0.5, integer costs on even draws) hash to the
        digest recorded from the earlier implementation, a max-flow class
        and a separate reachability search. Integer costs tie minimum cuts;
        the labels are those of the minimal one, and labels read off the
        maximal one fail this test."""
        rng = random.Random(43)
        digest = hashlib.sha256()
        split = 0
        for k in range(600):
            n = rng.randint(17, 60)
            e = random_energy(rng, n, rng.uniform(0.05, 0.5), submodular=True, integer=k % 2 == 0)
            labels = _solve_submodular(*_quadratic_form(e))
            split += 0 < sum(labels) < n
            digest.update(bytes(labels))
        assert split == 293
        assert digest.hexdigest() == (
            "8b0dde5a44722b580ddf5bf6a9850b7ba4d50dac3399c46c73c028b426a6045f"
        )


class TestImproveSweeps:
    def test_labels_pinned(self):
        """minimize's labels for 600 seeded non-submodular energies above the
        enumeration limit (n 17-60, pairwise density 0.05-0.5, integer costs
        on even draws, random init and seed) hash to the digest recorded from
        the sweeps that priced each flip from the energy's tables. Integer
        costs make flips tie, which the sweeps resolve toward label 0."""
        rng = random.Random(47)
        digest = hashlib.sha256()
        for k in range(600):
            n = rng.randint(17, 60)
            e = random_energy(rng, n, rng.uniform(0.05, 0.5), integer=k % 2 == 0)
            assert not e.is_submodular()
            init = tuple(rng.randint(0, 1) for _ in range(n))
            labels = minimize(e, init, seed=rng.randrange(1000))
            assert labels != init
            digest.update(bytes(labels))
        assert digest.hexdigest() == (
            "abaf6c88d213b6a687067b2e2d86f60d786df242e06a03ed21222ca8b35dbd65"
        )


class TestLongChains:
    """Augmenting paths run the whole chain, so max-flow depth grows with n."""

    N = 3000

    def chain(self, couplings):
        # The ends prefer opposite labels; the couplings decide where to break.
        unary = [(0.0, 0.0)] * self.N
        unary[0] = (5.0, 0.0)
        unary[-1] = (0.0, 5.0)
        pairwise = {(p, p + 1): couplings(p) for p in range(self.N - 1)}
        return BinaryEnergy(self.N, unary, pairwise)

    def test_submodular_chain_exact(self):
        e = self.chain(lambda p: (0.0, 1.0, 1.0, 0.0))
        assert e.is_submodular()
        x = minimize(e, (0,) * self.N, seed=0)
        assert evaluate(e, x) == chain_energy_min(e) == 1.0

    def test_non_submodular_chain_never_worsens(self):
        # One repulsive coupling makes the energy non-submodular (sweep path).
        e = self.chain(
            lambda p: (1.0, 0.0, 0.0, 1.0) if p == self.N // 2 else (0.0, 1.0, 1.0, 0.0)
        )
        assert not e.is_submodular()
        init = (0,) * self.N
        x = minimize(e, init, seed=0)
        assert chain_energy_min(e) <= evaluate(e, x) <= evaluate(e, init)
