import csv
import dataclasses
import math
import re
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from crossimpact import formats, hawkes
from crossimpact.hawkes import (BUY, SELL, EventStream, HawkesError,
                                HawkesSpec, analytic_kernel, imbalance_l1,
                                simulate, validate_spec)
from synthetic import (analytic_flow_spectrum, reference_simulate,
                       stationary_intensity)


def poisson_spec(mu=(1.0, 1.0), sizes=(1.0, 1.0)):
    return HawkesSpec.from_matrices(mu=list(mu), sizes=list(sizes), beta=1.0)


def scalar_hawkes(alpha=0.5, beta=1.0, mu=1.0, size=1.0):
    return HawkesSpec.from_matrices(mu=[mu], sizes=[size], beta=beta,
                                    aa=[[alpha * beta]], bb=[[alpha * beta]])


DEMO_A = [[0.06, 0.02], [0.035, 0.08]]
TAPE_A = 0.15 * np.eye(4) + 0.03 * (1.0 - np.eye(4))


FAST, SLOW = 2.0, 0.05
CROSS_SAME = [[[(0.3, FAST), (0.01, SLOW)], [(0.1, FAST)]],
              [[(0.02, SLOW)], [(0.4, FAST)]]]
CROSS_AB = [[[(0.4, FAST)], []], [[], []]]


def cross_spec():
    """Two assets, decay rates 2 and 0.05, and nonzero ab/ba blocks."""
    return HawkesSpec.from_blocks(
        mu=[0.5, 0.3], sizes=[1.0, 3.0],
        blocks={"aa": CROSS_SAME, "bb": CROSS_SAME,
                "ab": CROSS_AB, "ba": CROSS_AB})


MARKETS = {
    "demo": lambda: HawkesSpec.from_matrices(
        mu=[0.6, 0.45], sizes=[1.0, 2.0], beta=0.25, aa=DEMO_A, bb=DEMO_A),
    "tape": lambda: HawkesSpec.from_matrices(
        mu=[0.4] * 4, sizes=[1.0] * 4, beta=0.5, aa=TAPE_A, bb=TAPE_A),
    "cross": cross_spec,
    # about 8000 events over 2e7 s, more than half of them past 2**23 s,
    # where doubles lie further apart than 1 ns
    "sparse": lambda: scalar_hawkes(alpha=0.5, mu=1e-4),
}


def components(stream):
    return np.where(stream.sides > 0, 0, stream.d) + stream.assets


def rescaled_gaps(spec, stream):
    """Compensator increments between consecutive events of each component
    (from 0 to the first); under the true law they are iid Exp(1)."""
    alphas, betas, src, tgt = spec.alpha, spec.beta, spec.source, \
        spec.target
    mu = np.concatenate([spec.mu, spec.mu])
    state = np.zeros(len(alphas))      # sum alpha exp(-beta (t - t_m))
    comp_int = np.zeros(2 * spec.d)    # compensator of each component
    last = np.zeros(2 * spec.d)
    gaps, prev = [], 0.0
    for t, c in zip(stream.times, components(stream)):
        decay = np.exp(-betas * (t - prev))
        comp_int += mu * (t - prev)
        np.add.at(comp_int, tgt, state * (1.0 - decay) / betas)
        state *= decay
        gaps.append(comp_int[c] - last[c])
        last[c] = comp_int[c]
        state[src == c] += alphas[src == c]
        prev = t
    return np.asarray(gaps)


def thinning_simulate(spec, horizon, seed):
    """Components of the events drawn by Ogata thinning, in time order.

    One Python step per candidate; the exponential states make the
    dominating intensity exact between candidates, so this reference is
    exact in law too, by a different construction.
    """
    rng = np.random.default_rng(seed)
    d = spec.d
    alphas, betas, src, tgt = spec.alpha, spec.beta, spec.source, \
        spec.target
    mu = np.concatenate([spec.mu, spec.mu])
    state = np.zeros(len(alphas))
    t, comps = 0.0, []
    while True:
        bound = mu.sum() + state.sum()
        w = rng.exponential(1.0 / bound)
        if t + w > horizon:
            break
        t += w
        state *= np.exp(-betas * w)
        lam = mu.copy()
        np.add.at(lam, tgt, state)
        if rng.uniform() * bound <= lam.sum():
            c = min(int(np.searchsorted(np.cumsum(lam),
                                        rng.uniform() * lam.sum())),
                    2 * d - 1)
            comps.append(c)
            state[src == c] += alphas[src == c]
    return np.asarray(comps, dtype=int)


class TestValidate:
    def test_no_excitation_passes(self):
        rep = validate_spec(poisson_spec())
        assert rep.ok
        assert rep.spectral_radius == 0.0

    def test_unstable_branching(self):
        spec = HawkesSpec.from_matrices(mu=[1.0], sizes=[1.0], beta=1.0,
                                        aa=[[1.2]])
        rep = validate_spec(spec)
        assert not rep.stable

    def test_symmetric_self_excitation_radius(self):
        # brute force: eigenvalues of the 2x2 matrix of integrated kernels
        spec = scalar_hawkes(alpha=0.5)
        rep = validate_spec(spec)
        assert rep.ok
        full = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert rep.spectral_radius == pytest.approx(
            np.abs(np.linalg.eigvals(full)).max(), abs=1e-12)
        assert rep.spectral_radius == pytest.approx(0.5, abs=1e-12)

    def test_unbalanced_blocks_flagged(self):
        spec = HawkesSpec.from_matrices(mu=[1.0], sizes=[1.0], beta=1.0,
                                        aa=[[0.3]], bb=[[0.2]])
        rep = validate_spec(spec)
        assert not rep.balanced
        assert not rep.martingale_compatible

    def test_compatible_cross_terms(self):
        # aa - ba == bb - ab term by term
        spec = HawkesSpec.from_matrices(mu=[1.0], sizes=[1.0], beta=2.0,
                                        aa=[[0.6]], ba=[[0.2]],
                                        bb=[[0.7]], ab=[[0.3]])
        rep = validate_spec(spec)
        assert rep.martingale_compatible
        assert rep.balanced

    def test_bad_parameters_rejected(self):
        with pytest.raises(HawkesError):
            HawkesSpec(mu=np.array([-1.0]), sizes=np.array([1.0]))
        with pytest.raises(HawkesError):
            HawkesSpec.from_blocks(mu=[1.0], sizes=[1.0],
                                   blocks={"aa": [[[(0.1, -1.0)]]]})

    @pytest.mark.parametrize("mu, term, message", [
        pytest.param([1.0], (math.nan, 1.0), "alpha must be finite",
                     id="alpha-nan"),
        pytest.param([1.0], (math.inf, 1.0), "alpha must be finite",
                     id="alpha-inf"),
        pytest.param([1.0], (0.1, math.inf), "beta must be finite",
                     id="beta-inf"),
        pytest.param([math.nan], (0.1, 1.0), "mu must be finite",
                     id="mu-nan"),
        pytest.param([math.inf], (0.1, 1.0), "mu must be finite",
                     id="mu-inf"),
        # the cases the sign checks already cover keep their messages
        pytest.param([-math.inf], (0.1, 1.0), "must be nonnegative",
                     id="mu-neg-inf"),
        pytest.param([1.0], (-math.inf, 1.0), "need alpha >= 0, beta > 0",
                     id="alpha-neg-inf"),
        pytest.param([1.0], (0.1, math.nan), "need alpha >= 0, beta > 0",
                     id="beta-nan"),
    ])
    def test_non_finite_parameter_named(self, mu, term, message):
        with pytest.raises(HawkesError, match=re.escape(message)):
            HawkesSpec.from_blocks(mu=mu, sizes=[1.0],
                                   blocks={"aa": [[[term]]]})

    def test_compatibility_compares_each_rate(self):
        # equal integrals and equal alpha sums, at different decay rates:
        # balanced, but bb - ab and aa - ba differ as functions of time
        spec = HawkesSpec.from_blocks(mu=[1.0], sizes=[1.0], blocks={
            "aa": [[[(0.2, 1.0), (0.4, 4.0)]]], "bb": [[[(0.6, 2.0)]]]})
        rep = validate_spec(spec)
        assert rep.balanced
        assert not rep.martingale_compatible


class TestFromBlocks:
    def test_cross_spec_table(self):
        # (alpha, beta, target, source), components side * d + asset with
        # buys first: by block aa, ab, ba, bb, then row-major, then listed
        table = [(0.3, FAST, 0, 0), (0.01, SLOW, 0, 0), (0.1, FAST, 0, 1),
                 (0.02, SLOW, 1, 0), (0.4, FAST, 1, 1),
                 (0.4, FAST, 0, 2),
                 (0.4, FAST, 2, 0),
                 (0.3, FAST, 2, 2), (0.01, SLOW, 2, 2), (0.1, FAST, 2, 3),
                 (0.02, SLOW, 3, 2), (0.4, FAST, 3, 3)]
        spec = cross_spec()
        got = list(zip(spec.alpha.tolist(), spec.beta.tolist(),
                       spec.target.tolist(), spec.source.tolist()))
        assert got == table

    def test_cross_spec_imbalance_rows(self):
        # bb - ab per (i, j, beta): the ab term merges into bb's (0, 0, FAST)
        rows = [(0, 0, FAST, 0.3 - 0.4), (0, 0, SLOW, 0.01),
                (0, 1, FAST, 0.1), (1, 0, SLOW, 0.02), (1, 1, FAST, 0.4)]
        assert cross_spec().imbalance_terms().tolist() == \
            [list(map(float, r)) for r in rows]

    def test_from_matrices_table(self):
        # zero entries carry no term; the rest are tabled as by from_blocks
        aa = [[0.06, 0.0], [0.035, 0.08]]
        ab = [[0.0, 0.01], [0.0, 0.0]]
        spec = HawkesSpec.from_matrices(mu=[1.0, 1.0], sizes=[1.0, 2.0],
                                        beta=0.5, aa=aa, ab=ab, ba=ab, bb=aa)
        table = [(0.06, 0, 0), (0.035, 1, 0), (0.08, 1, 1), (0.01, 0, 3),
                 (0.01, 2, 1), (0.06, 2, 2), (0.035, 3, 2), (0.08, 3, 3)]
        got = list(zip(spec.alpha.tolist(), spec.target.tolist(),
                       spec.source.tolist()))
        assert got == table
        assert spec.beta.tolist() == [0.5] * len(table)

    @pytest.mark.parametrize("blocks", [
        {"aa": [[[(0.1, 1.0)]]]},                        # 1 x 1 of 2 x 2
        {"ab": [[[], []], [[]]]},                        # short row
        {"bb": [[[(0.1, 0.0)], []], [[], []]]},          # beta = 0
        {"ba": [[[(-0.1, 1.0)], []], [[], []]]},         # alpha < 0
        {"AB": [[[], []], [[], []]]},                    # unknown key
    ])
    def test_malformed_blocks_rejected(self, blocks):
        with pytest.raises(HawkesError):
            HawkesSpec.from_blocks(mu=[1.0, 1.0], sizes=[1.0, 1.0],
                                   blocks=blocks)

    @pytest.mark.parametrize("term", [(0.1, 0.25, 1.0), 0.1, ("x", 0.25),
                                      None])
    def test_term_not_a_pair_names_its_entry(self, term):
        blocks = {"ab": [[[], [(0.1, 1.0), term]], [[], []]]}
        with pytest.raises(HawkesError, match=re.escape(
                f"block ab[0][1]: term {term!r} is not an (alpha, beta) "
                "pair")):
            HawkesSpec.from_blocks(mu=[1.0, 1.0], sizes=[1.0, 1.0],
                                   blocks=blocks)

    def test_unequal_term_columns_rejected(self):
        with pytest.raises(HawkesError, match="equal length"):
            HawkesSpec(mu=[1.0], sizes=[1.0], alpha=[0.1, 0.2], beta=[1.0],
                       target=[0, 1], source=[0, 1])


SPEC_FIELDS = ("mu", "sizes", "alpha", "beta", "target", "source")


class TestReadOnlySpec:
    def given_arrays(self):
        return dict(mu=np.array([0.5, 0.3]), sizes=np.array([1.0, 2.0]),
                    alpha=np.array([0.1, 0.05, 0.1, 0.05]),
                    beta=np.array([1.0, 0.5, 1.0, 0.5]),
                    target=np.array([0, 1, 2, 3]),
                    source=np.array([0, 1, 2, 3]))

    def test_fields_and_arrays_refuse_writes(self):
        spec = HawkesSpec(**self.given_arrays())
        for name in SPEC_FIELDS + ("validation",):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, name, getattr(spec, name))
        for name in SPEC_FIELDS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(spec, name)[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            spec.imbalance_terms()[0, 3] = 1.0
        assert spec.imbalance_terms() is spec.imbalance_terms()
        assert spec.validation is spec.validation

    def test_caller_arrays_not_aliased_or_frozen(self):
        given = self.given_arrays()
        spec = HawkesSpec(**given)
        for name in SPEC_FIELDS:
            assert given[name].flags.writeable, name
            assert not np.shares_memory(given[name], getattr(spec, name))
        given["alpha"][0] = 0.9
        assert spec.alpha[0] == 0.1
        assert spec.validation.stable

    def test_derived_once(self):
        # one validation for a spec simulated three times, given an
        # analytic kernel and read again
        spec = cross_spec()
        with mock.patch.object(hawkes, "validate_spec",
                               wraps=validate_spec) as counted:
            for seed in range(3):
                simulate(spec, 50.0, seed)
            analytic_kernel(spec, np.eye(2), 1.0, 4)
            assert spec.validation.ok
        assert counted.call_count == 1


class TestStationaryIntensity:
    def test_poisson(self):
        theta = stationary_intensity(poisson_spec(mu=(1.5, 0.7)))
        assert np.allclose(theta, [1.5, 0.7])

    def test_scalar_fixed_point(self):
        theta = stationary_intensity(scalar_hawkes(alpha=0.5, mu=1.0))
        assert theta[0] == pytest.approx(2.0, rel=1e-12)

    def test_unstable_rejected(self):
        spec = HawkesSpec.from_matrices(mu=[1.0], sizes=[1.0], beta=1.0,
                                        aa=[[1.2]])
        with pytest.raises(HawkesError):
            stationary_intensity(spec)

    def test_matches_simulated_rate(self):
        spec = scalar_hawkes(alpha=0.4, mu=0.8)
        theta = stationary_intensity(spec)[0]
        horizon = 20000.0
        stream = simulate(spec, horizon, seed=5)
        buys = (stream.sides > 0).sum()
        # Hawkes counts are overdispersed; allow 6 Poisson sigmas
        assert abs(buys / horizon - theta) < 6 * np.sqrt(theta / horizon)


THREE_A = [[0.08, 0.02, 0.0], [0.03, 0.07, 0.01], [0.0, 0.02, 0.06]]


def interleaved_spec():
    """Two assets whose terms are tabled out of source order: buys of
    asset 0 (component 0) and of asset 1 each source three terms, sells
    of asset 0 two, and sells of asset 1 only a zero term."""
    return HawkesSpec(mu=[0.5, 0.3], sizes=[1.0, 2.0],
                      alpha=[0.1, 0.05, 0.2, 0.02, 0.1, 0.03, 0.15, 0.0,
                             0.01, 0.04],
                      beta=[1.0, 0.1, 2.0, 0.05, 0.5, 0.3, 1.5, 1.0, 0.2,
                            0.8],
                      target=[0, 1, 2, 0, 3, 1, 2, 0, 3, 2],
                      source=[0, 1, 0, 2, 1, 0, 2, 3, 1, 1])


# each with a horizon of about a thousand events per day
SAMPLER_MARKETS = {
    "demo": (MARKETS["demo"], 600.0),
    "tape": (MARKETS["tape"], 80.0),
    "three-asset": (lambda: HawkesSpec.from_matrices(
        mu=[0.5, 0.4, 0.3], sizes=[1.0, 1.0, 2.0], beta=0.3, aa=THREE_A,
        bb=THREE_A), 300.0),
    "interleaved": (interleaved_spec, 400.0),
}


class TestSimulate:
    @pytest.mark.parametrize("market", SAMPLER_MARKETS)
    def test_matches_reference_sampler(self, market):
        # the same draws, tables and order as the per-source loop and the
        # stable sort, on 50 seeds
        make, horizon = SAMPLER_MARKETS[market]
        spec = make()
        for seed in range(50):
            got = simulate(spec, horizon, seed)
            ref = reference_simulate(spec, horizon, seed)
            for name in ("times", "assets", "sides", "sizes"):
                assert np.array_equal(getattr(got, name),
                                      getattr(ref, name)), (seed, name)
            assert (got.horizon, got.d) == (ref.horizon, ref.d)

    @pytest.mark.parametrize("market", SAMPLER_MARKETS)
    def test_one_spec_at_shuffled_seeds(self, market):
        # a spec derives its sampler tables on its first simulate and keeps
        # them: later seeds, in any order and repeated, still give the
        # reference streams
        make, horizon = SAMPLER_MARKETS[market]
        spec = make()
        seeds = np.random.default_rng(11).permutation(
            np.r_[np.arange(12), [3, 7, 0]]).tolist()
        for seed in seeds:
            got = simulate(spec, horizon, seed)
            ref = reference_simulate(make(), horizon, seed)
            for name in ("times", "assets", "sides", "sizes"):
                assert np.array_equal(getattr(got, name),
                                      getattr(ref, name)), (seed, name)

    def test_poisson_count(self):
        spec = HawkesSpec.from_matrices(mu=[2.0], sizes=[1.0], beta=1.0)
        stream = simulate(spec, 1000.0, seed=42)
        buys = (stream.sides > 0).sum()
        assert abs(buys - 2000.0) < 4 * np.sqrt(2000.0)

    def test_deterministic(self):
        spec = scalar_hawkes()
        s1 = simulate(spec, 500.0, seed=9)
        s2 = simulate(spec, 500.0, seed=9)
        assert np.array_equal(s1.times, s2.times)
        assert np.array_equal(s1.assets, s2.assets)
        assert np.array_equal(s1.sides, s2.sides)

    def test_zero_alpha_terms_draw_nothing(self):
        # a listed zero term is tabled but not sampled: same draws as
        # the spec without it
        padded = [[row + [(0.0, SLOW)] for row in block]
                  for block in CROSS_SAME]
        spec = HawkesSpec.from_blocks(
            mu=[0.5, 0.3], sizes=[1.0, 3.0],
            blocks={"aa": padded, "bb": CROSS_SAME, "ab": CROSS_AB,
                    "ba": CROSS_AB})
        assert len(spec.alpha) == len(cross_spec().alpha) + 4
        a = simulate(spec, 300.0, seed=4)
        b = simulate(cross_spec(), 300.0, seed=4)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.assets, b.assets)
        assert np.array_equal(a.sides, b.sides)

    def test_unstable_rejected(self):
        spec = HawkesSpec.from_matrices(mu=[1.0], sizes=[1.0], beta=1.0,
                                        aa=[[1.5]])
        with pytest.raises(HawkesError):
            simulate(spec, 10.0, seed=0)

    def test_negative_horizon_rejected(self):
        with pytest.raises(HawkesError,
                           match="^horizon must be nonnegative$"):
            simulate(poisson_spec(), -1.0, seed=0)

    def test_sizes_match_spec(self):
        spec = HawkesSpec.from_matrices(mu=[1.0, 1.0], sizes=[2.0, 5.0],
                                        beta=1.0)
        stream = simulate(spec, 200.0, seed=1)
        assert np.all(stream.sizes == spec.sizes[stream.assets])

    def test_buy_sell_balance(self):
        spec = scalar_hawkes(alpha=0.3, mu=1.0)
        stream = simulate(spec, 10000.0, seed=17)
        buys = (stream.sides > 0).sum()
        sells = (stream.sides < 0).sum()
        n = buys + sells
        # two-sided binomial test at 4 sigma
        assert abs(buys - sells) < 4 * np.sqrt(n)

    def test_zero_horizon(self):
        stream = simulate(poisson_spec(), 0.0, seed=0)
        assert len(stream) == 0

    def test_csv_roundtrip(self, tmp_path):
        spec = HawkesSpec.from_matrices(mu=[1.0, 0.5], sizes=[1.0, 3.0],
                                        beta=1.0)
        stream = simulate(spec, 100.0, seed=3)
        path = tmp_path / "events.csv"
        stream.to_csv(path)
        back = EventStream.from_csv(path, d=2, horizon=100.0)
        assert np.allclose(back.times, stream.times, atol=1e-9)
        assert np.array_equal(back.assets, stream.assets)
        assert np.array_equal(back.sides, stream.sides)
        assert np.allclose(back.sizes, stream.sizes)


class TestClusterLaw:
    """Oracles for the law of the cluster sampler."""

    @pytest.mark.parametrize("market,horizon", [("demo", 6000.0),
                                                ("tape", 3000.0),
                                                ("cross", 4000.0)])
    def test_time_rescaling(self, market, horizon):
        # Brown et al. (2002): compensator increments are iid Exp(1);
        # KS bound p >= 1e-3, fixed before running
        spec = MARKETS[market]()
        stream = simulate(spec, horizon, seed=11)
        gaps = rescaled_gaps(spec, stream)
        assert len(gaps) > 15000
        assert stats.kstest(gaps, "expon").pvalue >= 1e-3

    @pytest.mark.parametrize("market,horizon", [("demo", 600.0),
                                                ("tape", 300.0),
                                                ("cross", 400.0)])
    def test_counts_match_thinning(self, market, horizon):
        # mean and variance of the total count over 24 seeds; Welch t and
        # variance-ratio F tests at p >= 1e-3, fixed before running
        spec = MARKETS[market]()
        seeds = range(100, 124)
        ref = np.array([len(thinning_simulate(spec, horizon, s))
                        for s in seeds])
        got = np.array([len(simulate(spec, horizon, s)) for s in seeds])
        assert stats.ttest_ind(got, ref, equal_var=False).pvalue >= 1e-3
        ratio = got.var(ddof=1) / ref.var(ddof=1)
        tail = stats.f.cdf(ratio, len(got) - 1, len(ref) - 1)
        assert 2 * min(tail, 1 - tail) >= 1e-3


def stream_of(times, d=2, sizes=(1.0, 2.0)):
    """A stream on the given times with cycling assets, sides and sizes."""
    n = len(times)
    return EventStream(times=times, assets=np.arange(n) * 7 % d,
                       sides=np.where(np.arange(n) % 3, BUY, SELL),
                       sizes=np.resize(np.asarray(sizes, dtype=float), n),
                       horizon=1.0, d=d)


@st.composite
def event_streams(draw):
    """Streams whose times mix the 1 ns grid with every finite time the
    grid cannot print: off the grid (half a nanosecond off, where rint
    and TIME_FORMAT round apart about half the time), past 2**22 s,
    signed and huge; up to 12 assets, and positive sizes down to the
    smallest subnormal."""
    ns = st.integers(0, 2 ** 22 * 10 ** 9 - 1)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    times = np.unique(draw(st.lists(st.one_of(
        ns.map(lambda n: n / 1e9), ns.map(lambda n: (n + 0.5) / 1e9),
        finite, st.floats(2.0 ** 22, 2.0 ** 24),
        st.sampled_from([-0.0, -1e300, 1e300])), max_size=40)))
    d = draw(st.integers(1, 12))
    sizes = draw(st.lists(st.one_of(
        st.sampled_from([1.0, 0.1, 1e-7, 5e-324]),
        st.floats(0.0, exclude_min=True, allow_infinity=False)),
        min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = len(times)
    return EventStream(times=times, assets=rng.integers(0, d, n),
                       sides=rng.choice([BUY, SELL], n),
                       sizes=rng.choice(sizes, n), horizon=1.0, d=d)


class TestEventCsv:
    @staticmethod
    def writer_bytes(stream, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "asset", "side", "size"])
            for t, a, s, v in zip(stream.times, stream.assets, stream.sides,
                                  stream.sizes):
                writer.writerow([f"{t:.9f}", a, "B" if s > 0 else "S",
                                 f"{v:.17g}"])
        return path.read_bytes()

    @pytest.mark.parametrize("horizon", [0.0, 300.0, 4000.0])
    def test_bytes_match_csv_writer(self, tmp_path, horizon):
        # 300 s gives about 1700 rows; 4000 s more than one encoding block
        spec = HawkesSpec.from_matrices(mu=[1.5, 0.5], sizes=[1.0, 0.1],
                                        beta=1.0, aa=[[0.3, 0], [0, 0.2]],
                                        bb=[[0.3, 0], [0, 0.2]])
        stream = simulate(spec, horizon, seed=4)
        stream.to_csv(tmp_path / "got.csv")
        assert (tmp_path / "got.csv").read_bytes() == \
            self.writer_bytes(stream, tmp_path / "ref.csv")

    def test_bytes_past_the_grid_limit(self, tmp_path):
        # the sparse market's times pass 2**22 and 2**23 s, where each
        # row's time is formatted on its own
        stream = simulate(MARKETS["sparse"](), 2e7, seed=2)
        assert stream.times[-1] > 2.0 ** 23 and \
            stream.times[0] < formats.GRID_TIME_LIMIT
        stream.to_csv(tmp_path / "got.csv")
        assert (tmp_path / "got.csv").read_bytes() == \
            self.writer_bytes(stream, tmp_path / "ref.csv")

    @given(stream=event_streams(),
           block=st.sampled_from([1, 3, formats.EVENT_BLOCK_ROWS]))
    @example(stream=stream_of([-0.0, 1e-10, 5e-10, 2.5e-9, 0.5, 2.0 ** 22,
                               2.0 ** 23 + 0.1]), block=2)
    @example(stream=stream_of([-1e300, -2.5, -1e-9, 0.25, 1e300],
                              d=12, sizes=[1e-7, 5e-324, 1e300]),
             block=formats.EVENT_BLOCK_ROWS)
    @example(stream=stream_of([]), block=1)
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bytes_match_csv_writer_for_any_times(self, tmp_path, stream,
                                                  block):
        with mock.patch.object(formats, "EVENT_BLOCK_ROWS", block), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            stream.to_csv(tmp_path / "got.csv")
        assert (tmp_path / "got.csv").read_bytes() == \
            self.writer_bytes(stream, tmp_path / "ref.csv")

    def test_columns_by_name(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("size,note,side,asset,time\n"
                        "2.5,x, b,1,0.25\n1,y,s,0,0.75\n3,z,B ,1,1.5\n")
        s = EventStream.from_csv(path)
        assert np.array_equal(s.times, [0.25, 0.75, 1.5])
        assert np.array_equal(s.assets, [1, 0, 1])
        assert np.array_equal(s.sides, [1, -1, 1])
        assert np.array_equal(s.sizes, [2.5, 1.0, 3.0])
        assert s.d == 2 and s.horizon == 1.5

    def test_header_only(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("time,asset,side,size\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = EventStream.from_csv(path)
        assert len(s) == 0 and s.d == 1 and s.horizon == 0.0

    def test_missing_column(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("time,asset,size\n0.5,0,1\n")
        with pytest.raises(KeyError):
            EventStream.from_csv(path)

    def test_coincident_times_kept(self):
        # a trade tape prints simultaneous fills, such as a buy on one
        # asset and a sell on another; a time that falls is refused
        s = EventStream(times=[1.0, 1.0], assets=[0, 1], sides=[BUY, SELL],
                        sizes=[1.0, 1.0], horizon=2.0, d=2)
        assert len(s) == 2 and s.times.tolist() == [1.0, 1.0]
        with pytest.raises(HawkesError,
                           match="^event times must be non-decreasing$"):
            EventStream(times=[1.0, 0.5], assets=[0, 1], sides=[BUY, SELL],
                        sizes=[1.0, 1.0], horizon=2.0, d=2)

    @pytest.mark.parametrize("asset", [2, -1])
    def test_asset_out_of_range_refused(self, asset):
        with pytest.raises(HawkesError, match="^asset index out of range$"):
            EventStream(times=[0.5, 1.0], assets=[0, asset], sides=[BUY, BUY],
                        sizes=[1.0, 1.0], horizon=2.0, d=2)

    @pytest.mark.parametrize("label", ["X", "BUY", "", "B" + " " * 7 + "X"])
    def test_unknown_side_label_rejected(self, tmp_path, label):
        # a label past SIDE_WIDTH characters is refused, not cut to "B"
        path = tmp_path / "events.csv"
        path.write_text(f"time,asset,side,size\n0.5,0,S,1\n1.5,0,{label},1\n")
        with pytest.raises(HawkesError, match="side label"):
            EventStream.from_csv(path)

    @pytest.mark.parametrize("layout", ["lf", "crlf", "reordered",
                                        "extra-column", "quoted"])
    def test_read_matches_text_stream(self, tmp_path, layout):
        # formats.read_csv hands loadtxt the path; the reference hands it the
        # open text stream after the header
        stream = simulate(MARKETS["cross"](), 200.0, seed=6)
        stream.to_csv(tmp_path / "crlf.csv")
        header, *rows = (tmp_path / "crlf.csv").read_bytes() \
            .decode().split("\r\n")[:-1]
        cells = [line.split(",") for line in [header] + rows]
        if layout == "lf":
            lines, end = [",".join(c) for c in cells], "\n"
        elif layout == "crlf":
            lines, end = [",".join(c) for c in cells], "\r\n"
        elif layout == "reordered":
            lines, end = [",".join([c[3], c[2], c[0], c[1]])
                          for c in cells], "\n"
        elif layout == "extra-column":
            lines, end = [",".join(c[:2] + ["note" if k == 0 else str(k)]
                                   + c[2:])
                          for k, c in enumerate(cells)], "\r\n"
        else:
            lines, end = [header] + [",".join(f'"{v}"' for v in c[:3])
                                     + f',{c[3]},"a, {k}"'
                                     for k, c in enumerate(cells[1:])], "\n"
            lines[0] += ",note"
        path = tmp_path / f"{layout}.csv"
        path.write_bytes((end.join(lines) + end).encode())
        fields = [("time", float), ("asset", int),
                  ("side", f"S{hawkes.SIDE_WIDTH}"), ("size", float)]
        got = formats.read_csv(path, fields)
        ref = read_csv_text_stream(path, fields)
        assert got.dtype == ref.dtype and len(got) == len(stream)
        for name, _ in fields:
            assert np.array_equal(got[name], ref[name]), name
        assert np.array_equal(got["time"], stream.times)

    def test_side_labels_any_case_and_padding(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("time,asset,side,size\n"
                        "1,0,b,1\n2,0, S,1\n3,0,s ,1\n4,0,  B  ,1\n")
        assert np.array_equal(EventStream.from_csv(path).sides,
                              [1, -1, -1, 1])


def read_csv_text_stream(path, fields):
    """The event read that hands loadtxt the open text stream after its
    header: the reference for formats.read_csv."""
    with open(path, newline="") as fh:
        position = {name.strip(): k
                    for k, name in enumerate(fh.readline().split(","))}
        start = fh.tell()
        if not fh.read(1):
            return np.zeros(0, dtype=fields)
        usecols = [position[name] for name, _ in fields]
        fh.seek(start)
        return np.loadtxt(fh, dtype=fields, delimiter=",", comments=None,
                          quotechar='"', usecols=usecols, ndmin=1)


def doubles_of_bits(bits):
    """The doubles whose IEEE 754 bit patterns are the given integers."""
    return np.array(bits, dtype=np.uint64).view(float).tolist()


# 10**k for k = -5, ..., 17, each the double nearest to it
POWERS_OF_TEN = [float(f"1e{k}") for k in range(-5, 18)]


class TestG17Text:
    """formats._g17_text prints each double as "%.17g" does."""

    @given(values=st.one_of(
        st.lists(st.integers(0, 2 ** 64 - 1), max_size=40)
        .map(doubles_of_bits),
        st.lists(st.floats(), max_size=40)))
    @example(values=[math.nextafter(p, toward) for p in POWERS_OF_TEN
                     for toward in (0.0, math.inf)]
             + POWERS_OF_TEN + [1e-4, 1e16, -1e-4, -1e16])
    @example(values=[1000000000000000.25, 1000000000000000.75,
                     -1000000000000000.25])
    @example(values=[0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                     -5e-324, sys.float_info.max])
    @example(values=[])
    @settings(max_examples=300, deadline=None)
    def test_matches_percent_format(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            text = formats._g17_text(np.array(values, dtype=float))
        assert [row.tobytes().translate(None, b"\0") for row in text] == \
            [b"%.17g" % v for v in values]


class TestTimeGrid:
    @pytest.mark.parametrize("market,horizon", [("demo", 3000.0),
                                                ("sparse", 2e7)],
                             ids=["demo", "sparse"])
    def test_times_read_back_from_csv(self, tmp_path, market, horizon):
        stream = simulate(MARKETS[market](), horizon, seed=2)
        assert len(stream) > 3000
        stream.to_csv(tmp_path / "events.csv")
        back = EventStream.from_csv(tmp_path / "events.csv")
        assert np.array_equal(back.times, stream.times)


class TestFlowSpectrum:
    def test_white_flow_flat(self):
        spec = poisson_spec(mu=(1.5, 0.5), sizes=(2.0, 1.0))
        om = np.linspace(0.0, 3.0, 7)
        s = analytic_flow_spectrum(spec, om)
        expect = 2.0 * np.diag([1.5 * 4.0, 0.5 * 1.0])
        for k in range(len(om)):
            assert np.allclose(s[k], expect, atol=1e-12)

    def test_scalar_closed_form(self):
        # textbook one-asset form derived by hand:
        # 2 theta |1 - phihat|^{-2} with phihat = alpha beta/(beta + i w)
        alpha, beta, mu = 0.5, 2.0, 1.0
        spec = scalar_hawkes(alpha=alpha, beta=beta, mu=mu)
        theta = mu / (1 - alpha)
        om = np.linspace(0.0, 10.0, 21)
        phihat = alpha * beta / (beta + 1j * om)
        expect = 2 * theta * np.abs(1 - phihat) ** -2
        s = analytic_flow_spectrum(spec, om)
        assert np.allclose(s[:, 0, 0].real, expect, rtol=1e-12)
        assert np.abs(s.imag).max() < 1e-12

    def test_hermitian_psd_on_grid(self):
        spec = HawkesSpec.from_matrices(
            mu=[0.6, 0.45], sizes=[1.0, 2.0], beta=0.25,
            aa=[[0.06, 0.02], [0.035, 0.08]],
            bb=[[0.06, 0.02], [0.035, 0.08]])
        om = np.linspace(-8.0, 8.0, 129)
        s = analytic_flow_spectrum(spec, om)
        herm = np.abs(s - s.conj().transpose(0, 2, 1)).max()
        assert herm < 1e-10 * np.abs(s).max()
        eigs = np.linalg.eigvalsh(0.5 * (s + s.conj().transpose(0, 2, 1)))
        assert eigs.min() >= -1e-10 * np.abs(eigs).max()

    def test_matches_periodogram(self):
        # long-run averaged periodogram of binned simulated flow
        spec = scalar_hawkes(alpha=0.4, beta=0.8, mu=1.0)
        n_days, t_day, delta = 20, 2000.0, 1.0
        n_bins = int(t_day / delta)
        acc = None
        for day in range(n_days):
            stream = simulate(spec, t_day, seed=300 + day)
            q = np.zeros(n_bins)
            idx = np.clip(np.ceil(stream.times / delta).astype(int) - 1,
                          0, n_bins - 1)
            np.add.at(q, idx, stream.sides * stream.sizes)
            pg = np.abs(np.fft.fft(q)) ** 2 / n_bins
            acc = pg if acc is None else acc + pg
        acc /= n_days
        # smooth the periodogram over neighboring frequencies
        k = 21
        kernel = np.ones(k) / k
        smooth = np.convolve(np.concatenate([acc, acc[:k]]), kernel,
                             mode="same")[:n_bins]
        om = 2 * np.pi * np.arange(n_bins) / n_bins
        om = np.where(om <= np.pi, om, om - 2 * np.pi)
        s = analytic_flow_spectrum(spec, om)[:, 0, 0].real
        sel = (np.abs(om) > 0.3) & (np.abs(om) < 2.8)
        rel = np.abs(smooth[sel] - s[sel]) / s[sel]
        assert np.median(rel) < 0.15


class TestAnalyticKernel:
    def test_no_imbalance_constant(self):
        spec = poisson_spec(mu=(1.0, 1.0), sizes=(2.0, 3.0))
        lam = np.array([[1.0, 0.2], [0.2, 0.8]])
        k = analytic_kernel(spec, lam, delta=1.0, tau_max=5)
        for t in range(6):
            assert np.allclose(k.values[t], lam, atol=1e-14)

    def test_scalar_closed_form(self):
        alpha_over_beta, beta = 0.5, 0.7
        spec = scalar_hawkes(alpha=alpha_over_beta, beta=beta)
        lam = np.array([[1.3]])
        k = analytic_kernel(spec, lam, delta=0.5, tau_max=40)
        k0 = lam[0, 0] / (1 - alpha_over_beta)
        t = 0.5 * np.arange(41)
        expect = k0 * (1 - alpha_over_beta * (1 - np.exp(-beta * t)))
        assert np.allclose(k.values[:, 0, 0], expect, rtol=1e-12)

    def test_tail_reaches_permanent(self):
        spec = scalar_hawkes(alpha=0.5, beta=0.7)
        lam = np.array([[1.0]])
        k = analytic_kernel(spec, lam, delta=1.0, tau_max=40)
        rel = abs(k.values[-1, 0, 0] - 1.0) / 1.0
        assert rel < 1e-6

    def test_boundary_recovery_invariant(self):
        # K(0) diag(v) (I - int phi) = Lambda diag(v) at 1e-10 relative
        spec = HawkesSpec.from_matrices(
            mu=[0.6, 0.45], sizes=[1.0, 2.5], beta=0.25,
            aa=[[0.06, 0.02], [0.035, 0.08]],
            bb=[[0.06, 0.02], [0.035, 0.08]])
        lam = np.array([[1.0, 0.2], [0.2, 1.1]])
        k = analytic_kernel(spec, lam, delta=1.0, tau_max=10)
        dv = np.diag(spec.sizes)
        lhs = k.k0 @ dv @ (np.eye(2) - imbalance_l1(spec))
        rhs = lam @ dv
        assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()

    def test_incompatible_spec_rejected(self):
        spec = HawkesSpec.from_matrices(mu=[1.0], sizes=[1.0], beta=1.0,
                                        aa=[[0.3]], bb=[[0.2]])
        with pytest.raises(HawkesError):
            analytic_kernel(spec, np.array([[1.0]]), 1.0, 5)

    def test_singular_imbalance_rejected(self):
        # compatible but unstable: the imbalance kernel integrates to 1
        with pytest.raises(HawkesError, match="^I - integrated imbalance "
                                              "kernel is singular$"):
            analytic_kernel(scalar_hawkes(alpha=1.0), np.eye(1), 1.0, 5)


@st.composite
def balanced_specs(draw):
    """Specs with aa = bb and ab = ba over 2-4 assets of unequal sizes and
    1-3 decay rates; each row of the integrated imbalance kernel sums to
    at most 1/2 in absolute value, so I minus it is invertible."""
    d = draw(st.integers(2, 4))
    rates = draw(st.lists(st.floats(0.05, 5.0), min_size=1, max_size=3,
                          unique=True))
    sizes = draw(st.lists(st.floats(0.1, 10.0), min_size=d, max_size=d,
                          unique=True))
    mass = st.floats(0.0, 0.25 / (d * len(rates)))
    same, cross = ([[[(draw(mass) * beta, beta) for beta in rates]
                     for _ in range(d)] for _ in range(d)] for _ in range(2))
    return HawkesSpec.from_blocks(mu=[0.5] * d, sizes=sizes, blocks={
        "aa": same, "bb": same, "ab": cross, "ba": cross})


class TestDefaultLambda:
    @given(spec=balanced_specs(), scale=st.floats(0.01, 100.0))
    @example(spec=MARKETS["demo"](), scale=1.0)
    @example(spec=MARKETS["demo"](), scale=0.37)
    @settings(max_examples=200, deadline=None)
    def test_k0_is_scaled_identity(self, spec, scale):
        # the convention calibrated levels are judged by: under the
        # default permanent matrix the simulated market's K(0) is s I
        k0 = analytic_kernel(spec, hawkes.default_lambda(spec, scale),
                             1.0, 0).k0
        assert np.abs(k0 - scale * np.eye(spec.d)).max() <= 1e-12 * scale


def event_prices_loop(spec, stream, lam, p0):
    """Reference for hawkes.event_pricer: one decay step per event."""
    d = spec.d
    dv = np.diag(spec.sizes)
    k0 = lam @ dv @ np.linalg.inv(np.eye(d) - hawkes.imbalance_l1(spec)) \
        @ np.diag(1.0 / spec.sizes)
    terms = [(int(i), int(j), beta, alpha)
             for i, j, beta, alpha in spec.imbalance_terms()]
    state = np.zeros(len(terms))
    net = np.zeros(d)
    out, prev = [], 0.0
    for t, a, s, v in zip(stream.times, stream.assets, stream.sides,
                          stream.sizes):
        net[a] += s * v
        impact = np.zeros(d)
        for k, (i, j, beta, alpha) in enumerate(terms):
            state[k] = state[k] * np.exp(-beta * (t - prev)) \
                + (s if j == a else 0.0)
            impact[i] += alpha / beta * state[k]
        prev = t
        out.append(p0 + lam @ net + k0 @ dv @ impact)
    return np.asarray(out).ravel()


class TestEventPrices:
    def test_matches_per_event_loop(self):
        # decay rates 2 and 0.05 over 3000 s: the fast rate spans ten
        # blocks of the scaled cumsum
        blob = {"mu": [0.5, 0.3], "sizes": [1.0, 3.0], "blocks": {
            "aa": [[[[0.3, 2.0], [0.01, 0.05]], [[0.1, 2.0]]],
                   [[[0.02, 0.05]], [[0.4, 2.0]]]],
            "ab": [[[[0.4, 2.0]], []], [[], []]]}}
        blob["blocks"]["bb"] = blob["blocks"]["aa"]
        blob["blocks"]["ba"] = blob["blocks"]["ab"]
        spec = HawkesSpec.from_dict(blob)
        stream = hawkes.simulate(spec, 3000.0, seed=8)
        assert 2.0 * stream.times[-1] > 8 * hawkes.DECAY_BLOCK_EXPONENT
        lam = hawkes.default_lambda(spec, 1.0)
        p0 = np.array([100.0, 50.0])
        got = hawkes.event_pricer(spec, lam, p0)(stream)
        ref = event_prices_loop(spec, stream, lam, p0)
        assert np.array_equal(got.times, stream.times)
        assert got.prices.shape == (len(stream), 2)
        assert np.abs(got.prices.ravel() - ref).max() <= \
            1e-12 * np.abs(ref).max()

    def test_empty_stream(self):
        spec = hawkes.HawkesSpec.from_matrices(mu=[1.0], sizes=[1.0],
                                               beta=1.0, aa=[[0.5]],
                                               bb=[[0.5]])
        stream = hawkes.simulate(spec, 0.0, seed=0)
        got = hawkes.event_pricer(spec, np.eye(1), np.zeros(1))(stream)
        assert len(got) == 0
