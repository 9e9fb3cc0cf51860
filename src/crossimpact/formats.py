"""On-disk formats: the CSV tables, the artifact directories and JSON.

Every CSV this package writes has a header row and CRLF line ends, its
times at TIME_FORMAT and its other floats at "%.17g"; its rows are
assembled in numpy, EVENT_BLOCK_ROWS at a time, and hold the bytes
csv.writer gives.  An artifact is a directory holding one file,
artifact.bin: a line of compact JSON (its scalars, diagnostics and the
shape of each array), then its arrays as raw little-endian float64.
Every JSON text has sorted keys; the reports (diagnostics.json,
manifest.json and check's report) are written with indent 1.
"""
from __future__ import annotations

import json
import math
import os
import pathlib

import numpy as np

# every CSV this package writes carries its times at this precision, and
# simulate draws its times on the same grid
TIME_FORMAT = "%.9f"
# rows of a CSV encoded at once, which bounds the encoder's memory
EVENT_BLOCK_ROWS = 1 << 14
# below this, doubles lie at most 2**-31 s apart: a time t that is the
# double nearest to ns / 1e9 for integer ns is within 2**-32 s of it, so
# TIME_FORMAT rounds t back to ns, and the integer part has 7 digits
GRID_TIME_LIMIT = 2.0 ** 22
# integer-part digits worth 10**6, ..., 10**1, each printed only when
# the integer part reaches its value
_LEADING_PLACES = 10 ** np.arange(6, 0, -1)
# %.17g prints |v| in [G17_LOW, G17_HIGH) in fixed notation, with at most
# 16 integer digits and 20 decimals, and _g17_text prints these from their
# digits; floor(log10 |v|) lies in [-4, 16], so 16 - e indexes
# _POWERS_OF_TEN
G17_LOW, G17_HIGH = 1e-4, 1e16
# 10**k for k = 0, ..., 20, each an exact double
_POWERS_OF_TEN = np.array([10 ** k for k in range(21)], dtype=float)
# Veltkamp's splitter for doubles: 2**27 + 1
_SPLITTER = 134217729.0
# the rows of _g17_text's digit matrix, as a column
_G17_COLUMNS = np.arange(21, dtype=np.uint8)[:, None]
_CRLF = np.frombuffer(b"\r\n", np.uint8)
# the one file of an artifact directory
ARTIFACT = "artifact.bin"


def _write_table(path, columns, n, step, rows):
    """Write the header row of columns, then rows(block) for each block
    of step of the n items, a uint8 matrix of rows padded with 0 bytes;
    the 0 bytes are dropped."""
    with open(path, "wb") as fh:
        fh.write(",".join(columns).encode() + b"\r\n")
        for start in range(0, n, step):
            fh.write(rows(slice(start, start + step)).tobytes()
                     .translate(None, b"\0"))


def write_events(path, times, assets, sides, sizes, d):
    """Write events as rows time,asset,side,size: TIME_FORMAT +
    ",%d,%s,%.17g" with side B for a buy (sides > 0) and S for a sell.

    The time comes from _time_text.  The tail ",asset,side,size" of a
    block is formatted once for each distinct asset, side and size bit
    pattern, and gathered into the rows by index.
    """
    def rows(block):
        size_bits, size_index = np.unique(sizes[block].view(np.int64),
                                          return_inverse=True)
        keys, tail_index = np.unique(
            (size_index * d + assets[block]) * 2 + (sides[block] > 0),
            return_inverse=True)
        tail_size, tail_side = np.divmod(keys, 2)
        tail_size, tail_asset = np.divmod(tail_size, d)
        tails = _byte_rows([",%d,%s,%.17g\r\n" % (a, "SB"[s], v)
                            for a, s, v in zip(tail_asset.tolist(),
                                               tail_side.tolist(),
                                               size_bits.view(float)
                                               [tail_size].tolist())])
        return np.hstack([_time_text(times[block]), tails[tail_index]])
    _write_table(path, ("time", "asset", "side", "size"), len(times),
                 EVENT_BLOCK_ROWS, rows)


def write_prices(path, times, prices):
    """Write a (n_steps, d) price path as rows time,asset,price_hat, one
    per step and asset: TIME_FORMAT + ",%d,%.17g", the price from
    _g17_text.  A block holds EVENT_BLOCK_ROWS rows, or one step."""
    d = prices.shape[1]
    assets = _byte_rows([",%d," % a for a in range(d)])

    def rows(block):
        t, p = times[block], prices[block]
        return np.concatenate(
            [np.repeat(_time_text(t), d, axis=0),
             np.tile(assets, (len(t), 1)), _g17_text(p.ravel()),
             np.broadcast_to(_CRLF, (p.size, 2))], axis=1)
    _write_table(path, ("time", "asset", "price_hat"), len(times),
                 max(1, EVENT_BLOCK_ROWS // max(d, 1)), rows)


def _put_digits(x, rows):
    """Digits of ints x >= 0 into rows, units last (// beats divmod)."""
    for row in rows[::-1]:
        quotient = x // 10
        row[...], x = x - 10 * quotient, quotient


def _time_text(times):
    """The TIME_FORMAT text of each time, as the rows of a uint8 matrix
    padded with 0 bytes.

    A time t in [0, GRID_TIME_LIMIT) on the 1 ns grid (ns / 1e9 == t
    for ns = rint(t * 1e9)) is printed from the decimal digits of ns.
    Any other time (off the grid, past the limit, with its sign bit set,
    NaN or inf) is formatted with TIME_FORMAT into its own row.
    """
    grid = (times < GRID_TIME_LIMIT) & ~np.signbit(times)   # NaN: False
    ns = np.rint(np.where(grid, times, 0.0) * 1e9).astype(np.int64)
    grid &= ns / 1e9 == times
    off = np.flatnonzero(~grid)
    off_text = _byte_rows([TIME_FORMAT % t for t in times[off].tolist()])
    # built by column, text[k] holding byte k of every time: a time on
    # the grid takes 7 integer digits, a point and 9 decimals
    text = np.zeros((max(17, off_text.shape[1]), len(times)), np.uint8)
    seconds, nanos = (part.astype(np.int32) for part in np.divmod(ns, 10**9))
    leading = seconds >= _LEADING_PLACES[:, None]
    _put_digits(seconds, text[:7])
    _put_digits(nanos, text[8:17])
    text[:17] += np.uint8(ord("0"))
    text[:6] *= leading
    text[7] = ord(".")
    text[:, off] = 0
    text[:off_text.shape[1], off] = off_text.T
    return text.T


def _g17_text(values):
    """The "%.17g" text of each double, as the rows of a uint8 matrix
    padded with 0 bytes.

    A value with G17_LOW <= |v| < G17_HIGH is printed in fixed notation
    from its 17 significant digits n: the integer nearest to |v| 10**(16
    - e), ties to even, for the e with 10**16 <= n < 10**17.  Dekker's
    exact product (Numer. Math. 18, 1971) gives that integer exactly:
    see _digits17.  e starts at floor(log10 |v|) and takes one step
    where n leaves its range.  Trailing zeros of the decimals, and a
    point with no decimals after it, are left out.  Any other value
    (0, subnormal, tiny, huge, NaN or inf) is formatted with "%.17g"
    into its own row.
    """
    magnitude = np.abs(values)
    fast = (magnitude >= G17_LOW) & (magnitude < G17_HIGH)   # NaN: False
    off = np.flatnonzero(~fast)
    off_text = _byte_rows(["%.17g" % v for v in values[off].tolist()])
    magnitude = np.where(fast, magnitude, 1.0)
    e = np.floor(np.log10(magnitude)).astype(np.int64)
    n = _digits17(magnitude, e)
    step = np.flatnonzero((n < 10 ** 16) | (n >= 10 ** 17))
    e[step] += np.where(n[step] < 10 ** 16, -1, 1)
    n[step] = _digits17(magnitude[step], e[step])
    # built by column: digits[k] is byte k of four '0's and the 17 digits
    # of n, so that digit k - 4 of n is worth 10**(e + 4 - k)
    digits = np.zeros((21, len(n)), np.uint8)
    high, low = (part.astype(np.int32) for part in np.divmod(n, 10 ** 8))
    _put_digits(low, digits[13:])
    _put_digits(high, digits[4:13])
    digits += np.uint8(ord("0"))
    # the column of the units digit (a padding '0' when |v| < 1), and of
    # the last nonzero digit
    units = (e + 4).astype(np.uint8)
    last = np.max(_G17_COLUMNS * (digits != ord("0")), axis=0)
    width = max(44, off_text.shape[1])
    text = np.zeros((width, len(n)), np.uint8)
    text[0] = np.signbit(values) * np.uint8(ord("-"))
    # integer part: its digits, or the one '0' before the point
    text[1:22] = digits * ((_G17_COLUMNS <= units)
                           & (_G17_COLUMNS >= np.minimum(units, 4)))
    text[22] = (last > units) * np.uint8(ord("."))
    text[23:44] = digits * ((_G17_COLUMNS > units) & (_G17_COLUMNS <= last))
    text[:, off] = 0
    text[:off_text.shape[1], off] = off_text.T
    return text.T


def _digits17(magnitude, e):
    """The integer nearest to magnitude * 10**(16 - e), ties to even, for
    magnitude * 10**(16 - e) in [10**16, 10**17).

    The product p of magnitude and c = 10**(16 - e), an exact double,
    and its rounding error err are found exactly, as p + err.  p is at
    least 2**53, so it is an even integer, and p + rint(err) is the
    nearest integer to the exact product with ties to even.
    """
    c = _POWERS_OF_TEN[16 - e]
    p = magnitude * c
    m_hi, m_lo = _split(magnitude)
    c_hi, c_lo = _split(c)
    err = m_hi * c_hi - p + m_hi * c_lo + m_lo * c_hi + m_lo * c_lo
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _split(a):
    """a as hi + lo, each with at most 26 significant bits (Veltkamp)."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _byte_rows(strings):
    """ASCII strings as the rows of a uint8 matrix, padded with 0 bytes."""
    packed = np.array([s.encode() for s in strings], dtype=bytes)
    return packed.view(np.uint8).reshape(len(strings), packed.itemsize)


def read_csv(path, fields):
    """Named columns of a CSV file as a structured array.

    fields lists (column name, dtype); columns are found by header name,
    in any order, and other columns are ignored.  A file with no data
    rows gives an empty array; a missing column raises KeyError.  The
    rows are read from the path, which loadtxt parses faster than an
    open text stream.
    """
    with open(path, newline="") as fh:
        position = {name.strip(): k
                    for k, name in enumerate(fh.readline().split(","))}
        if not fh.read(1):
            return np.zeros(0, dtype=fields)
    usecols = [position[name] for name, _ in fields]
    return np.loadtxt(path, dtype=fields, delimiter=",", comments=None,
                      quotechar='"', usecols=usecols, ndmin=1, skiprows=1)


def _numpy_value(obj):
    """json's hook for a value it cannot encode: a numpy array or scalar
    as the Python lists and numbers of .tolist()."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dumps(obj) -> str:
    """The JSON text of a report: keys sorted, indent 1."""
    return json.dumps(obj, sort_keys=True, indent=1, default=_numpy_value)


def save_artifact(directory, meta: dict, **arrays):
    """Write meta and arrays to directory/ARTIFACT through one open file.

    The file holds one line of JSON, meta with each array's shape under
    the key "arrays", keys sorted and no other whitespace; then each
    array in C order as little-endian float64, one after another in
    sorted name order, so equal inputs give equal bytes.  Every other
    file in the directory, such as one left by an earlier format, is
    deleted.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = sorted(arrays)
    blobs = [np.asarray(arrays[name], "<f8") for name in names]
    shapes = {name: list(blob.shape) for name, blob in zip(names, blobs)}
    header = json.dumps(dict(meta, arrays=shapes), sort_keys=True,
                        separators=(",", ":"), default=_numpy_value)
    with open(directory / ARTIFACT, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for blob in blobs:
            blob.tofile(fh)
    for path in directory.iterdir():
        if path.is_file() and path.name != ARTIFACT:
            path.unlink()


def load_artifact(directory, keys=(), names=()):
    """(meta, arrays) of directory/ARTIFACT, each array a writable view
    of one read of its payload.  A file with no newline, a header line
    that is not a JSON object holding keys and an "arrays" map of names
    to lists of non-negative ints, a map that lacks the arrays names,
    and a payload whose byte count is not the one the map gives raise
    ValueError naming the file and fault."""
    path = os.path.join(directory, ARTIFACT)
    with open(path, "rb") as fh:
        header = fh.readline()
        # read as bytes, which np.fromfile does not round down to whole
        # doubles
        raw = np.fromfile(fh, np.uint8)
    if not header.endswith(b"\n"):
        raise ValueError(f"{path} has no newline ending its header")
    try:
        meta = json.loads(header)
    except ValueError as exc:
        raise ValueError(f"{path}: its header is not a JSON object: "
                         f"{exc}") from exc
    # JSON that is not an object, such as a string, holds no key
    missing = [key for key in (*keys, "arrays")
               if not isinstance(meta, dict) or key not in meta]
    if missing:
        raise ValueError(f"{path} lacks {', '.join(map(repr, missing))}")
    shapes = meta["arrays"]
    if not (isinstance(shapes, dict) and all(
            isinstance(shape, list)
            and all(type(n) is int and n >= 0 for n in shape)
            for shape in shapes.values())):
        raise ValueError(f"{path}: 'arrays' must map each array name to a "
                         f"list of non-negative ints, not {shapes!r}")
    missing = [name for name in names if name not in shapes]
    if missing:
        raise ValueError(f"{path} lacks {', '.join(map(repr, missing))}")
    sizes = {name: math.prod(shape) for name, shape in shapes.items()}
    expected = 8 * sum(sizes.values())
    if raw.size != expected:
        raise ValueError(f"{path} holds {raw.size} bytes after its header, "
                         f"not the {expected} that the header describes")
    blob, start, arrays = raw.view("<f8"), 0, {}
    for name in sorted(shapes):
        arrays[name] = blob[start:start + sizes[name]].reshape(shapes[name])
        start += sizes[name]
    return meta, arrays
