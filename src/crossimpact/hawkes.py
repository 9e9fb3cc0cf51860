"""Buy/sell Hawkes order-flow model: validation, simulation, analytic observables.

The flow of each of d assets is driven by a 2d-dimensional Hawkes process
(buy and sell components per asset) with shared baseline mu and one table
of excitation terms alpha * exp(-beta t), each from a source component to
a target component.  Sums of exponentials give closed-form Fourier
transforms, L1 norms, and an exact simulation through the cluster
(branching) representation.
"""
from __future__ import annotations

import dataclasses
import itertools

import numpy as np

BLOCK_KEYS = ("aa", "ab", "ba", "bb")
BUY, SELL = 1, -1


class HawkesError(ValueError):
    pass


@dataclasses.dataclass
class HawkesSpec:
    """Model parameters: baseline, order sizes and one table of terms.

    Components are side * d + asset, buys first.  Term k adds
    alpha[k] exp(-beta[k] t) to the intensity of component target[k] at
    lag t after each event of component source[k]; a term of block "ab"
    excites buys (target < d) from sells (source >= d).  sizes holds the
    fixed order size per asset.
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
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))
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
        if np.any(self.sizes <= 0):
            raise HawkesError("order sizes must be positive")
        if np.any(self.alpha < 0) or not np.all(self.beta > 0):
            raise HawkesError("excitation terms need alpha >= 0, beta > 0")

    @property
    def d(self) -> int:
        return len(self.mu)

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
        alpha, beta, target, source = zip(*rows) if rows else ((),) * 4
        return cls(mu=mu, sizes=sizes, alpha=alpha, beta=beta,
                   target=target, source=source)

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

    def full_fourier(self, omega) -> np.ndarray:
        """Closed-form transform of the 2d x 2d kernel at frequencies
        omega, shape (len(omega), 2d, 2d)."""
        omega = np.atleast_1d(np.asarray(omega, dtype=float))
        out = np.zeros((2 * self.d, 2 * self.d, len(omega)), dtype=complex)
        np.add.at(out, (self.target, self.source),
                  self.alpha[:, None]
                  / (self.beta[:, None] + 1j * omega[None, :]))
        return out.transpose(2, 0, 1)

    def imbalance_terms(self) -> np.ndarray:
        """Rows (i, j, beta, alpha) of the imbalance kernel bb - ab.

        Each (i, j, beta) appears once, its alpha summed over the bb
        terms and then the ab terms, in table order.  Requires
        martingale compatibility: bb - ab must equal aa - ba term by
        term, which validate_spec checks at the parameter level.
        """
        d = self.d
        sells = self.source >= d
        k = np.concatenate([np.flatnonzero(sells & (self.target >= d)),
                            np.flatnonzero(sells & (self.target < d))])
        return _merge_rates(self.target[k] % d, self.source[k] - d,
                            self.beta[k],
                            np.where(self.target[k] >= d, self.alpha[k],
                                     -self.alpha[k]))


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


def validate_spec(spec: HawkesSpec, atol: float = 1e-12) -> ValidationReport:
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
    scale = max(np.abs(full).max(), 1.0)
    d = spec.d
    rows = full[:, :d] + full[:, d:]
    balanced = bool(np.abs(rows[:d] - rows[d:]).max() <= atol * scale)
    if not balanced:
        messages.append("buy and sell excitation row sums differ; "
                        "stationary buy/sell intensities will not match")
    # (bb - ab) - (aa - ba) per (i, j, beta): sell targets count +, buys -
    gap = _merge_rates(spec.target % d, spec.source % d, spec.beta,
                       np.where(spec.target >= d, spec.alpha,
                                -spec.alpha))[:, 3]
    compatible = bool(np.all(np.abs(gap) <= atol * scale))
    if not compatible:
        messages.append("bb - ab differs from aa - ba; no imbalance kernel")
    return ValidationReport(stable=stable, spectral_radius=radius,
                            balanced=balanced,
                            martingale_compatible=compatible,
                            messages=messages)


def stationary_intensity(spec: HawkesSpec) -> np.ndarray:
    """Per-asset one-sided stationary intensity theta.

    Solves the 2d-dimensional mean fixed point and returns the buy half;
    under the balance condition the sell half is identical.
    """
    if not validate_spec(spec).stable:
        raise HawkesError("unstable model has no stationary intensity")
    d = spec.d
    mu_full = np.concatenate([spec.mu, spec.mu])
    try:
        theta_full = np.linalg.solve(np.eye(2 * d) - spec.full_l1(), mu_full)
    except np.linalg.LinAlgError as exc:
        raise HawkesError("singular mean equations") from exc
    return theta_full[:d]


def analytic_flow_spectrum(spec: HawkesSpec, omega) -> np.ndarray:
    """Spectral density of the signed volume flow at each frequency.

    Units are (contract units)^2 per unit time.  The output is Hermitian
    positive semi-definite at every frequency; with no excitation it is
    the flat white spectrum 2 diag(theta v^2).
    """
    d = spec.d
    theta = stationary_intensity(spec)
    theta_full = np.concatenate([theta, theta])
    resolvent = np.linalg.inv(np.eye(2 * d)[None] - spec.full_fourier(omega))
    counts = resolvent @ np.diag(theta_full)[None] @ \
        resolvent.conj().transpose(0, 2, 1)
    u = np.hstack([np.eye(d), -np.eye(d)])
    signed = u[None] @ counts @ u.T[None]
    dv = np.diag(spec.sizes)
    return dv[None] @ signed @ dv[None]


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
    from .kernels import ImpactKernel
    report = validate_spec(spec)
    if not report.martingale_compatible:
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
        self.times = np.asarray(self.times, dtype=float)
        self.assets = np.asarray(self.assets, dtype=int)
        self.sides = np.asarray(self.sides, dtype=int)
        self.sizes = np.asarray(self.sizes, dtype=float)
        if len(self.times) and np.any(np.diff(self.times) <= 0):
            raise HawkesError("event times must be strictly increasing")
        if len(self.assets) and (self.assets.min() < 0
                                 or self.assets.max() >= self.d):
            raise HawkesError("asset index out of range")

    def __len__(self):
        return len(self.times)

    def net_volume(self) -> np.ndarray:
        out = np.zeros(self.d)
        np.add.at(out, self.assets, self.sides * self.sizes)
        return out

    def to_csv(self, path):
        _write_csv(path, ("time", "asset", "side", "size"),
                   TIME_FORMAT + ",%d,%s,%.17g",
                   (self.times, self.assets,
                    np.where(self.sides > 0, "B", "S"), self.sizes))

    @classmethod
    def from_csv(cls, path, d=None, horizon=None):
        rows = _read_csv(path, [("time", float), ("asset", int),
                                ("side", f"S{SIDE_WIDTH}"), ("size", float)])
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
    label = np.char.strip(labels)
    buy = (label == b"B") | (label == b"b")
    valid = (buy | (label == b"S") | (label == b"s")) \
        & (np.char.str_len(labels) < SIDE_WIDTH)
    if not valid.all():
        bad = labels[~valid][0].decode("latin-1")
        raise HawkesError(f"unknown side label {bad!r}, expected B or S")
    return np.where(buy, BUY, SELL)


# every CSV this package writes carries its times at this precision, and
# simulate draws its times on the same grid
TIME_FORMAT = "%.9f"
# side fields are read as this many bytes; one that fills them may have
# been cut, and is refused
SIDE_WIDTH = 8
CSV_CHUNK_ROWS = 256


def _write_csv(path, header, row_format, columns):
    """Write equal-length columns as CRLF-terminated CSV rows.

    The bytes equal those of csv.writer for fields that need no quoting.
    Rows are formatted CSV_CHUNK_ROWS at a time, so no whole-file string
    is built.
    """
    n = len(columns[0])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, n, CSV_CHUNK_ROWS):
            stop = min(start + CSV_CHUNK_ROWS, n)
            rows = zip(*(c[start:stop].tolist() for c in columns))
            fh.write((row_format + "\r\n") * (stop - start)
                     % tuple(itertools.chain.from_iterable(rows)))


def _read_csv(path, fields):
    """Named columns of a CSV file as a structured array.

    fields lists (column name, dtype); columns are found by header name,
    in any order, and other columns are ignored.  A file with no data
    rows gives an empty array; a missing column raises KeyError.
    """
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


def simulate(spec: HawkesSpec, horizon: float, seed: int) -> EventStream:
    """Exact-law sample of the order flow on [0, horizon], by clusters.

    In the branching representation of Hawkes & Oakes (1974) the
    immigrants of component c are a Poisson(mu_c) process, and every
    event of component c has, for each excitation term k with source c,
    Poisson(alpha_k / beta_k) children of component tgt_k at Exp(beta_k)
    delays.  Generations are drawn one at a time, children past the
    horizon are dropped, and the union is sorted.  Times are returned on
    the 1 ns grid of TIME_FORMAT, so a stream reads back from its CSV
    unchanged; this moves each event by at most 5e-10 s.  Deterministic
    given the seed; coincident event times raise HawkesError in
    EventStream.
    """
    report = validate_spec(spec)
    if not report.stable:
        raise HawkesError("refusing to simulate an unstable model")
    if horizon < 0:
        raise HawkesError("horizon must be nonnegative")
    rng = np.random.default_rng(seed)
    d = spec.d
    n_comp = 2 * d
    live = spec.alpha != 0.0
    alphas, betas = spec.alpha[live], spec.beta[live]
    src, tgt = spec.source[live], spec.target[live]
    # per source component, its terms padded to a common width; a padded
    # slot has zero mean offspring
    by_src = [np.flatnonzero(src == c) for c in range(n_comp)]
    width = max(len(k) for k in by_src)
    mean_children = np.zeros((n_comp, width))
    decay = np.ones((n_comp, width))
    child_comp = np.zeros((n_comp, width), dtype=int)
    for c, k in enumerate(by_src):
        mean_children[c, :len(k)] = alphas[k] / betas[k]
        decay[c, :len(k)] = betas[k]
        child_comp[c, :len(k)] = tgt[k]
    mu_full = np.concatenate([spec.mu, spec.mu])
    comps = np.repeat(np.arange(n_comp), rng.poisson(mu_full * horizon))
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
    order = np.argsort(times, kind="stable")
    times = np.rint(times[order] * 1e9) / 1e9
    comps = np.concatenate(all_comps)[order]
    assets = comps % d
    return EventStream(times=times, assets=assets,
                       sides=np.where(comps < d, BUY, SELL),
                       sizes=spec.sizes[assets], horizon=horizon, d=d)
