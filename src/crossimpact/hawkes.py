"""Buy/sell Hawkes order flow: validation, simulation, kernel and prices.

The flow of each of d assets is driven by a 2d-dimensional Hawkes process
(buy and sell components per asset) with shared baseline mu and one table
of excitation terms alpha * exp(-beta t), each from a source component to
a target component.  Sums of exponentials give closed-form L1 norms and
kernel integrals, and an exact simulation through the cluster
(branching) representation.
"""
from __future__ import annotations

import dataclasses
import functools

import numpy as np

from . import formats, observables
from .kernels import ImpactKernel

BLOCK_KEYS = ("aa", "ab", "ba", "bb")
BUY, SELL = 1, -1


class HawkesError(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class HawkesSpec:
    """Model parameters: baseline, order sizes and one table of terms.

    Components are side * d + asset, buys first.  Term k adds
    alpha[k] exp(-beta[k] t) to the intensity of component target[k] at
    lag t after each event of component source[k]; a term of block "ab"
    excites buys (target < d) from sells (source >= d).  sizes holds the
    fixed order size per asset.  A spec is read-only: it derives its
    validation, sampler tables and imbalance terms once, on first use.
    """

    mu: np.ndarray
    sizes: np.ndarray
    alpha: np.ndarray = ()
    beta: np.ndarray = ()
    target: np.ndarray = ()
    source: np.ndarray = ()

    def __post_init__(self):
        for name, dtype in (("mu", float), ("sizes", float), ("alpha", float),
                            ("beta", float), ("target", int), ("source", int)):
            value = np.array(getattr(self, name), dtype=dtype)
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        columns = (self.alpha, self.beta, self.target, self.source)
        if self.alpha.ndim != 1 or \
                any(c.shape != self.alpha.shape for c in columns):
            raise HawkesError("term columns must be 1-D and of equal length")
        if self.mu.ndim != 1:
            raise HawkesError("mu must be 1-D, one baseline intensity per "
                              "asset")
        if self.sizes.shape != self.mu.shape:
            raise HawkesError(f"sizes has {self.sizes.size} entries but mu "
                              f"has {self.mu.size}; each asset needs one "
                              "order size")
        if np.any(self.mu < 0):
            raise HawkesError("baseline intensities must be nonnegative")
        if not np.all((self.sizes > 0) & (self.sizes < np.inf)):
            raise HawkesError("order sizes must be positive and finite")
        if np.any(self.alpha < 0) or not np.all(self.beta > 0):
            raise HawkesError("excitation terms need alpha >= 0, beta > 0")
        for name in ("mu", "alpha", "beta"):
            if not np.isfinite(getattr(self, name)).all():
                raise HawkesError(f"{name} must be finite")

    @property
    def d(self) -> int:
        return len(self.mu)

    @classmethod
    def from_dict(cls, blob):
        """Spec from a config's spec object: mu, sizes and blocks; any
        other key is refused by name."""
        unknown = set(blob) - {"mu", "sizes", "blocks"}
        if unknown:
            raise HawkesError(f"unknown spec keys: {sorted(unknown)}")
        if "mu" not in blob:
            raise HawkesError("spec needs mu, one baseline intensity per "
                              "asset")
        mu = np.asarray(blob["mu"], dtype=float)
        return cls.from_blocks(mu, blob.get("sizes", np.ones_like(mu)),
                               blob.get("blocks", {}))

    @classmethod
    def from_blocks(cls, mu, sizes, blocks):
        """Spec from blocks[key][i][j], a list of (alpha, beta) terms.

        key is one of BLOCK_KEYS, target side first: blocks["ab"][i][j]
        excites buys on asset i from sells on asset j.  A missing key is
        no excitation.  Terms are tabled by key, then row-major, then in
        listed order.
        """
        d = len(mu)
        if not isinstance(blocks, dict):
            raise HawkesError(f"blocks {blocks!r} is not a map of blocks")
        unknown = set(blocks) - set(BLOCK_KEYS)
        if unknown:
            raise HawkesError(f"unknown blocks {sorted(unknown)}")
        rows = []
        for k, key in enumerate(BLOCK_KEYS):
            block = blocks.get(key)
            if block is None:
                continue
            if not _listing(block, d):
                raise HawkesError(f"block {key} is not {d}x{d}")
            side, source_side = divmod(k, 2)
            for i, row in enumerate(block):
                if not _listing(row, d):
                    raise HawkesError(f"block {key}[{i}]: row {row!r} is "
                                      f"not a list of {d} entries")
                for j, terms in enumerate(row):
                    if not _listing(terms):
                        raise HawkesError(
                            f"block {key}[{i}][{j}]: entry {terms!r} is not "
                            "a list of (alpha, beta) terms")
                    for term in terms:
                        try:
                            a, b = map(float, term)
                        except (TypeError, ValueError):
                            raise HawkesError(
                                f"block {key}[{i}][{j}]: term {term!r} is "
                                "not an (alpha, beta) pair") from None
                        rows.append((a, b, side * d + i, source_side * d + j))
        return cls(mu, sizes, *(zip(*rows) if rows else ((),) * 4))

    @classmethod
    def from_matrices(cls, mu, sizes, beta, aa=None, ab=None, ba=None,
                      bb=None):
        """Single-decay-rate spec from d x d alpha matrices; zero entries
        carry no term."""
        blocks = {key: [[[(a, beta)] if a else [] for a in row]
                        for row in np.asarray(mat, dtype=float).tolist()]
                  for key, mat in zip(BLOCK_KEYS, (aa, ab, ba, bb))
                  if mat is not None}
        return cls.from_blocks(mu, sizes, blocks)

    def full_l1(self) -> np.ndarray:
        """Integrated 2d x 2d kernel, blocks [[aa, ab], [ba, bb]]."""
        out = np.zeros((2 * self.d, 2 * self.d))
        np.add.at(out, (self.target, self.source), self.alpha / self.beta)
        return out

    @functools.cached_property
    def validation(self) -> ValidationReport:
        return validate_spec(self)

    def imbalance_terms(self) -> np.ndarray:
        """Rows (i, j, beta, alpha) of the imbalance kernel bb - ab, read-only.

        Each (i, j, beta) appears once, its alpha summed over the bb
        terms and then the ab terms, in table order.  Requires
        martingale compatibility: bb - ab must equal aa - ba term by
        term, which validate_spec checks at the parameter level.
        """
        return self._imbalance

    @functools.cached_property
    def _imbalance(self):
        d = self.d
        k = np.flatnonzero(self.source >= d)
        k = k[np.argsort(self.target[k] < d, kind="stable")]   # bb, then ab
        terms = _merge_rates(self.target[k] % d, self.source[k] - d,
                             self.beta[k], np.where(self.target[k] >= d,
                                                    self.alpha[k],
                                                    -self.alpha[k]))
        terms.flags.writeable = False
        return terms

    @functools.cached_property
    def _sampler(self):
        """The sampler's read-only tables of mean children, decay and child
        component: row c holds source c's live terms, then zero-mean slots."""
        live = np.flatnonzero(self.alpha != 0.0)
        k = live[np.argsort(self.source[live], kind="stable")]
        row = self.source[k]
        col = np.arange(len(k)) - np.searchsorted(row, row)
        shape = (2 * self.d, np.bincount(row, minlength=1).max())
        tables = np.zeros(shape), np.ones(shape), np.zeros(shape, dtype=int)
        for table, terms in zip(tables, (self.alpha[k] / self.beta[k],
                                         self.beta[k], self.target[k])):
            table[row, col] = terms
            table.flags.writeable = False
        return tables


def _listing(value, n=None) -> bool:
    """value is a sized iterable, of n items when n is given."""
    return hasattr(value, "__iter__") and hasattr(value, "__len__") \
        and (n is None or len(value) == n)


def _merge_rates(i, j, beta, alpha) -> np.ndarray:
    """Rows (i, j, beta, alpha), one per distinct (i, j, beta) in order of
    first appearance, with its alphas summed in order."""
    merged = {}
    for key, a in zip(zip(i.tolist(), j.tolist(), beta.tolist()),
                      alpha.tolist()):
        merged[key] = merged.get(key, 0.0) + a
    return np.array([(*key, a) for key, a in merged.items()]).reshape(-1, 4)


@dataclasses.dataclass
class ValidationReport:
    stable: bool
    spectral_radius: float
    balanced: bool
    martingale_compatible: bool
    messages: list

    @property
    def ok(self) -> bool:
        return self.stable and self.balanced and self.martingale_compatible


def validate_spec(spec: HawkesSpec) -> ValidationReport:
    """Stability, buy/sell balance, and martingale-compatibility checks.

    Always returns a report; callers decide whether failures are fatal.
    Balance and compatibility are structural checks on the parameters,
    not statistical tests.
    """
    messages = []
    full = spec.full_l1()
    radius = float(np.abs(np.linalg.eigvals(full)).max()) if full.size else 0.0
    stable = radius < 1.0
    if not stable:
        messages.append(f"spectral radius of integrated kernel is "
                        f"{radius:.4f} >= 1")
    tol = 1e-12 * max(np.abs(full).max(), 1.0)
    d = spec.d
    rows = full[:, :d] + full[:, d:]
    balanced = bool(np.abs(rows[:d] - rows[d:]).max() <= tol)
    if not balanced:
        messages.append("buy and sell excitation row sums differ; "
                        "stationary buy/sell intensities will not match")
    # (bb - ab) - (aa - ba) per (i, j, beta): sell targets count +, buys -
    gap = _merge_rates(spec.target % d, spec.source % d, spec.beta,
                       np.where(spec.target >= d, spec.alpha,
                                -spec.alpha))[:, 3]
    compatible = bool(np.all(np.abs(gap) <= tol))
    if not compatible:
        messages.append("bb - ab differs from aa - ba; no imbalance kernel")
    return ValidationReport(stable=stable, spectral_radius=radius,
                            balanced=balanced, messages=messages,
                            martingale_compatible=compatible)


def imbalance_l1(spec: HawkesSpec) -> np.ndarray:
    """Integrated imbalance kernel, entries sum(alpha/beta) of bb - ab."""
    return imbalance_integral(spec, np.inf)


def imbalance_integral(spec: HawkesSpec, t) -> np.ndarray:
    """Entrywise integral of the imbalance kernel from 0 to t: a d x d
    matrix, or one per entry of an array t."""
    i, j, beta, alpha = spec.imbalance_terms().T
    t = np.asarray(t, dtype=float)
    out = np.zeros((t.size, spec.d, spec.d))
    np.add.at(out, (slice(None), i.astype(int), j.astype(int)),
              (alpha / beta) * (1.0 - np.exp(-beta * t.reshape(-1, 1))))
    return out.reshape(t.shape + (spec.d, spec.d))


def analytic_kernel(spec: HawkesSpec, lam, delta, tau_max):
    """Martingale price-impact kernel sampled on the lag lattice.

    In volume units the kernel decays as K(t) = K(0)(I - int_0^t psi)
    with psi = diag(v) phi diag(v)^{-1}, where phi is the imbalance
    kernel, and K(0) is fixed by the permanent matrix lam through
    K(0) diag(v) (I - int phi) = lam diag(v), so that K(t) -> lam.
    """
    if not spec.validation.martingale_compatible:
        raise HawkesError("martingale-compatibility check failed; the "
                          "imbalance kernel is not defined")
    lam = np.asarray(lam, dtype=float)
    d = spec.d
    dv = np.diag(spec.sizes)
    dv_inv = np.diag(1.0 / spec.sizes)
    try:
        k0 = lam @ dv @ np.linalg.inv(np.eye(d) - imbalance_l1(spec)) @ dv_inv
    except np.linalg.LinAlgError as exc:
        raise HawkesError("I - integrated imbalance kernel is singular") from exc
    psi_int = dv @ imbalance_integral(spec, delta * np.arange(tau_max + 1)) \
        @ dv_inv
    values = k0 @ (np.eye(d) - psi_int)
    return ImpactKernel(delta=delta, values=values, lam=lam,
                        provenance="analytic")


def default_lambda(spec: HawkesSpec, impact_scale) -> np.ndarray:
    """The permanent matrix impact_scale diag(v) (I - int phi) diag(v)^{-1},
    under which analytic_kernel's K(0) is impact_scale I."""
    return impact_scale * np.diag(spec.sizes) \
        @ (np.eye(spec.d) - imbalance_l1(spec)) @ np.diag(1.0 / spec.sizes)


# exp(600) is about 1e260: one scaled cumsum block cannot overflow
DECAY_BLOCK_EXPONENT = 600.0


def _decayed_counts(times, signed, beta):
    """Rows S_n = sum_{m <= n} signed_m exp(-beta (t_n - t_m)).

    Each block of events within DECAY_BLOCK_EXPONENT / beta of its first
    event is one cumsum scaled by exp(beta (t - t_first)); the sum at the
    end of a block decays into the next.
    """
    out = np.empty_like(signed)
    carry = np.zeros(signed.shape[1])
    start, n = 0, len(times)
    while start < n:
        t0 = times[start]
        stop = int(np.searchsorted(times, t0 + DECAY_BLOCK_EXPONENT / beta,
                                   side="right"))
        grow = np.exp(beta * (times[start:stop] - t0))[:, None]
        out[start:stop] = (np.cumsum(signed[start:stop] * grow, axis=0)
                           + carry) / grow
        if stop < n:
            carry = out[stop - 1] * np.exp(-beta * (times[stop]
                                                    - times[stop - 1]))
        start = stop
    return out


def event_pricer(spec: HawkesSpec, lam, p0):
    """The function that gives a stream's exact event-time prices under
    the decay-law kernel of spec, lam and p0.

    The kernel splits as lam plus exponential transients, so per decay
    rate the decayed signed counts of each source asset give the exact
    price at every jump.  K(0) and each rate's loading are computed here,
    once for every stream priced.
    """
    d = spec.d
    k0 = analytic_kernel(spec, lam, 1.0, 0).k0
    loading = k0 * spec.sizes   # price response to per-source decayed counts
    i, j, betas, alphas = spec.imbalance_terms().T
    rates = sorted(set(betas.tolist()))
    weights = np.zeros((len(rates), d, d))
    weights[np.searchsorted(rates, betas), i.astype(int), j.astype(int)] = \
        alphas / betas
    transients = [(beta, (loading @ w).T) for beta, w in zip(rates, weights)]

    def event_prices(stream) -> observables.PricePath:
        n = len(stream)
        signs = np.zeros((n, d))
        signs[np.arange(n), stream.assets] = stream.sides
        prices = p0 + np.cumsum(signs * stream.sizes[:, None], axis=0) @ lam.T
        for beta, response in transients:
            prices += _decayed_counts(stream.times, signs, beta) @ response
        return observables.PricePath(stream.times, prices)
    return event_prices


# ---------------------------------------------------------------------------
# Events and simulation
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class EventStream:
    """Timestamped market orders: (time, asset, side, size) in columns."""

    times: np.ndarray
    assets: np.ndarray
    sides: np.ndarray        # +1 buy, -1 sell
    sizes: np.ndarray
    horizon: float
    d: int

    def __post_init__(self):
        for name, dtype in (("times", float), ("assets", int),
                            ("sides", int), ("sizes", float)):
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if not np.isfinite(self.times).all():
            raise HawkesError("event times must be finite")
        if len(self.times) and np.any(np.diff(self.times) < 0):
            raise HawkesError("event times must be non-decreasing")
        if not np.all((self.sizes > 0) & (self.sizes < np.inf)):
            raise HawkesError("event sizes must be positive and finite")
        if len(self.assets) and (self.assets.min() < 0
                                 or self.assets.max() >= self.d):
            raise HawkesError("asset index out of range")

    def __len__(self):
        return len(self.times)

    def to_csv(self, path):
        """Write the stream as CRLF-terminated rows time,asset,side,size,
        side B or S: see formats.write_events."""
        formats.write_events(path, self.times, self.assets, self.sides,
                             self.sizes, self.d)

    @classmethod
    def from_csv(cls, path, d=None, horizon=None):
        rows = formats.read_csv(path, [("time", float), ("asset", int),
                                       ("side", f"S{SIDE_WIDTH}"),
                                       ("size", float)])
        times, assets = rows["time"], rows["asset"]
        if d is None:
            d = int(assets.max()) + 1 if len(assets) else 1
        if horizon is None:
            horizon = float(times[-1]) if len(times) else 0.0
        return cls(times=times, assets=assets,
                   sides=_parse_sides(rows["side"]),
                   sizes=rows["size"], horizon=horizon, d=d)


def _parse_sides(labels):
    """BUY/SELL from side labels B/S, read case- and space-insensitively.

    Any other label, or one that may have been cut at SIDE_WIDTH
    characters, raises HawkesError.
    """
    buy = labels == b"B"
    if (buy | (labels == b"S")).all():
        return np.where(buy, BUY, SELL)
    label = np.char.strip(labels)
    buy = (label == b"B") | (label == b"b")
    valid = (buy | (label == b"S") | (label == b"s")) \
        & (np.char.str_len(labels) < SIDE_WIDTH)
    if not valid.all():
        bad = labels[~valid][0].decode("latin-1")
        raise HawkesError(f"unknown side label {bad!r}, expected B or S")
    return np.where(buy, BUY, SELL)


# side fields are read as this many bytes; one that fills them may have
# been cut, and is refused
SIDE_WIDTH = 8


def simulate(spec: HawkesSpec, horizon: float, seed: int) -> EventStream:
    """Exact-law sample of the order flow on [0, horizon], by clusters.

    In the branching representation of Hawkes & Oakes (1974) the
    immigrants of component c are a Poisson(mu_c) process, and every
    event of component c has, for each excitation term k with source c,
    Poisson(alpha_k / beta_k) children of component tgt_k at Exp(beta_k)
    delays.  Generations are drawn one at a time, children past the
    horizon are dropped, and the union is sorted.  Times are returned on
    the 1 ns grid of formats.TIME_FORMAT, so a stream reads back from its
    CSV unchanged; this moves each event by at most 5e-10 s.
    Deterministic given the seed; two events rounded to one time are
    both kept, in their sorted order.
    """
    if not spec.validation.stable:
        raise HawkesError("refusing to simulate an unstable model")
    if horizon < 0:
        raise HawkesError("horizon must be nonnegative")
    rng = np.random.default_rng(seed)
    d = spec.d
    mean_children, decay, child_comp = spec._sampler
    width = decay.shape[1]
    mu_full = np.concatenate([spec.mu, spec.mu])
    comps = np.repeat(np.arange(2 * d), rng.poisson(mu_full * horizon))
    times = rng.uniform(0.0, horizon, len(comps))
    all_times, all_comps = [times], [comps]
    while len(times) and width:
        counts = rng.poisson(mean_children[comps])
        slot = np.repeat(np.arange(counts.size), counts.ravel())
        parent, slot = np.divmod(slot, width)
        pc = comps[parent]
        times = times[parent] + rng.exponential(size=len(slot)) \
            / decay[pc, slot]
        keep = times <= horizon
        times, comps = times[keep], child_comp[pc, slot][keep]
        all_times.append(times)
        all_comps.append(comps)
    times = np.concatenate(all_times)
    # the drawn times are distinct, and distinct times have one sorted
    # order, so any sort gives it
    order = np.argsort(times)
    times = np.rint(times[order] * 1e9) / 1e9
    comps = np.concatenate(all_comps)[order]
    assets = comps % d
    return EventStream(times=times, assets=assets,
                       sides=np.where(comps < d, BUY, SELL),
                       sizes=spec.sizes[assets], horizon=horizon, d=d)
