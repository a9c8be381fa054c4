"""Exact Dirichlet spectra for boxes and balls, plus file-backed spectra.

Every generated ``Spectrum`` carries a completeness threshold
``complete_below``: the generator guarantees that no eigenvalue below it is
missing from the list.  Downstream evaluations must stay below that
threshold; this is the main correctness contract of the whole toolkit.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass, field
from itertools import count, islice

import numpy as np

from . import specfun
from .errors import (
    DomainError,
    EmptySpectrumError,
    ResourceLimitError,
    SpectrumFormatError,
    SpectrumValidationError,
)

#: hard cap on generated eigenvalue counts (desk-scale guard)
MAX_EIGENVALUES = 10**7


@dataclass(frozen=True)
class DomainSpec:
    """Parametric description of a canonical domain."""

    kind: str                      # "box" | "ball" | "file"
    dimension: int
    side_lengths: tuple[float, ...] | None = None
    radius: float | None = None
    source_path: str | None = None

    def __post_init__(self):
        if self.kind not in ("box", "ball", "file"):
            raise DomainError(f"unknown domain kind {self.kind!r}")
        if self.dimension < 1:
            raise DomainError("dimension must be >= 1")
        if self.kind == "box":
            if (self.side_lengths is None
                    or len(self.side_lengths) != self.dimension):
                raise DomainError("box needs exactly d side lengths")
            if any(s <= 0 for s in self.side_lengths):
                raise DomainError("box side lengths must be positive")
        if self.kind == "ball":
            if self.radius is None or self.radius <= 0:
                raise DomainError("ball needs a positive radius")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ordered Dirichlet eigenvalue list, complete below a threshold.

    Multiplicities are represented by repetition; values are kept exactly
    as computed, with no tolerance-based merging.  ``_derived`` holds the
    read-only arrays computed from the eigenvalues, filled on first use by
    :mod:`rieszbounds.riesz`: the prefix sums, the runs of equal
    eigenvalues that every exact sum takes once each (distinct values,
    multiplicities and running counts; nothing is built at construction),
    and the logs of the geometric mean, one per run.  It also holds the
    memoryviews of them and of the eigenvalues that
    :mod:`rieszbounds.verify` reads its index margins' operands through.
    """

    dimension: int
    eigenvalues: np.ndarray
    complete_below: float
    domain: DomainSpec
    volume: float | None = None
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        ev = np.ascontiguousarray(self.eigenvalues, dtype=np.float64)
        ev.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)
        if self.dimension < 1:
            raise SpectrumValidationError("dimension must be >= 1")
        if not math.isfinite(self.complete_below):
            raise SpectrumValidationError(
                f"complete_below must be finite, got {self.complete_below}")
        if self.complete_below <= 0:
            raise SpectrumValidationError("complete_below must be positive")
        if len(ev) == 0:
            raise SpectrumValidationError("spectrum has no eigenvalues")
        if not np.isfinite(ev).all():
            i = int(np.argmin(np.isfinite(ev)))
            raise SpectrumValidationError(
                f"eigenvalues must be finite, lambda_{i+1} is {ev[i]}")
        if ev[0] <= 0:
            raise SpectrumValidationError(
                f"eigenvalues must be positive, first is {ev[0]}")
        falls = ev[1:] < ev[:-1]
        if falls.any():
            i = int(np.argmax(falls))
            raise SpectrumValidationError(
                f"eigenvalues must be nondecreasing (violated at index {i+1})")
        if self.volume is not None and not (
                math.isfinite(self.volume) and self.volume > 0):
            raise SpectrumValidationError(
                f"volume must be positive and finite if given, "
                f"got {self.volume}")

    def __len__(self):
        return len(self.eigenvalues)

    @property
    def lambda_1(self) -> float:
        return float(self.eigenvalues[0])


def _check_weyl_count(d: int, volume: float, lam_max: float,
                      bound=None) -> None:
    """Fail before any work if Weyl's law predicts far more than
    MAX_EIGENVALUES eigenvalues below ``lam_max``, unless ``bound()``, an
    upper bound on the count, does not; an infinite ``lam_max`` always
    fails.  Where (lam_max / 4 pi)^(d/2) or Gamma(1 + d/2) leaves the
    float range, the prediction is compared in logs.  A volume below the
    normal float range (``sys.float_info.min``), subnormal or 0, raises
    DomainError first: it has lost bits, so no spectrum should carry it."""
    if volume < sys.float_info.min:
        raise DomainError(f"the volume {volume!r} in dimension {d} underflows "
                          f"the normal float range (below "
                          f"{sys.float_info.min!r})")
    gamma = specfun.gamma(1 + d / 2)
    try:
        predicted = volume * (lam_max / (4 * math.pi))**(d / 2) / gamma
    except OverflowError:
        gamma = math.inf
    if gamma == math.inf:
        log10 = (math.log10(volume)
                 + d / 2 * math.log10(lam_max / (4 * math.pi))
                 - math.lgamma(1 + d / 2) / math.log(10))
        predicted = 10.0 ** log10 if log10 < 308.0 else math.inf
    if predicted > 2 * MAX_EIGENVALUES and (
            bound is None or bound() > 2 * MAX_EIGENVALUES):
        raise ResourceLimitError(f"predicted eigenvalue count {predicted:.3g} "
                                 f"exceeds cap {MAX_EIGENVALUES}")


def box_spectrum(sides, lam_max: float) -> Spectrum:
    """All Dirichlet eigenvalues pi^2 sum(n_i^2/L_i^2) < lam_max, sorted.

    One array pass per axis, in the order given: from ``[0.0]``, the sums
    ``acc + c * n * n`` (c = pi^2/L^2, n = 1 .. isqrt(lam_max / c) + 1)
    below ``lam_max``, sorted once; the cap counts only final values.  The
    bits are a recursion's that stops each axis at its first sum at or
    above ``lam_max``: the same IEEE products and sums, monotone rounding,
    so the filter keeps what the stop kept; equal floats sort alike.
    """
    sides = tuple(float(s) for s in sides)
    if not sides or not all(0 < s < math.inf for s in sides):
        raise DomainError(
            f"box sides must be finite and positive, got {sides}")
    if not lam_max > 0:
        raise DomainError(f"lam_max must be positive, got {lam_max}")
    squares = []
    for s in sides:
        try:
            squares.append(s**2)
        except OverflowError:
            raise DomainError(f"box side {s} is too large: its square "
                              "overflows") from None
    if 0.0 in squares:
        raise DomainError(f"box side {sides[squares.index(0.0)]} is too "
                          "small: its square underflows to 0")
    coeffs = [math.pi**2 / q for q in squares]
    lam_1 = sum(coeffs)
    if lam_max <= lam_1:
        raise EmptySpectrumError(
            f"lam_max={lam_max} is not above the first eigenvalue "
            f"{lam_1}")
    d = len(sides)
    volume = math.prod(sides)
    if volume == math.inf:
        raise DomainError(f"box sides {sides} are too large: their product, "
                          "the volume, overflows")
    _check_weyl_count(d, volume, lam_max)

    vals = np.zeros(1)
    for c in coeffs:
        n = np.arange(1.0, math.isqrt(int(lam_max / c)) + 2)
        vals = np.add.outer(vals, c * n * n).ravel()
        vals = vals[vals < lam_max]
    if len(vals) > MAX_EIGENVALUES:
        raise ResourceLimitError(
            f"eigenvalue count exceeds cap {MAX_EIGENVALUES}")
    vals.sort()
    return Spectrum(
        dimension=d,
        eigenvalues=vals,
        complete_below=float(lam_max),
        domain=DomainSpec(kind="box", dimension=d, side_lengths=sides),
        volume=volume,
    )


def ball_multiplicity(ell: int, d: int) -> int:
    """Dimension of spherical harmonics of degree ell on S^{d-1}."""
    if ell == 0:
        return 1
    if d == 2:
        return 2
    return ((2 * ell + d - 2) * math.factorial(ell + d - 3)
            // (math.factorial(ell) * math.factorial(d - 2)))


def _ball_count_bound(d: int, x: float) -> float:
    """An upper bound on the zeros j_{nu,k} < x of the d-ball's orders
    nu = d/2 - 1 + ell, with multiplicity, summed until it passes twice
    MAX_EIGENVALUES.  Order nu has at most 1 + (x - low) / pi: j_{nu,1} >
    low = nu + 1.8557 nu^(1/3) (Qu and Wong, 1999; 1.85575... is -a_1 /
    2^(1/3), a_1 the first zero of Airy's Ai), and its zeros lie more than
    pi apart for nu >= 1/2; j_{0,k} > (k - 1) pi."""
    total = 0
    for ell in count():
        nu = d / 2 - 1 + ell
        low = nu + 1.8557 * nu ** (1 / 3) if nu else 0.0
        if low >= x or total > 2 * MAX_EIGENVALUES:
            return total
        total += ball_multiplicity(ell, d) * (1 + (x - low) / math.pi)


def ball_spectrum(d: int, radius: float, lam_max: float) -> Spectrum:
    """All Dirichlet eigenvalues j_{d/2-1+ell,p}^2 / radius^2 < lam_max.

    Each value is repeated with its spherical-harmonic multiplicity.  The
    zeros of each order come from one ``specfun.bessel_zeros`` iteration
    bounded 16 ulps above radius * sqrt(lam_max), above every zero whose
    eigenvalue is kept, so no order after the first finds a zero past that
    bound; an order's values stop at the first eigenvalue at or above
    ``lam_max``.  Each order is checked against MAX_EIGENVALUES before it is
    kept, and the array is built by one ``np.repeat`` by multiplicity and
    sorted in place.  The values are squared by Python's ``**`` (libm
    ``pow``), not numpy's ``square``: the two differ in the last bit on
    some zeros.  A dimension that is not an integer raises DomainError.
    """
    try:
        d = operator.index(d)
    except TypeError:
        raise DomainError(f"ball_spectrum requires an integer dimension, "
                          f"got {d!r}") from None
    if d < 2:
        raise DomainError("ball_spectrum requires d >= 2")
    if not 0 < radius < math.inf:
        raise DomainError(f"radius must be finite and positive, got {radius}")
    if not lam_max > 0:
        raise DomainError(f"lam_max must be positive, got {lam_max}")
    try:
        gamma = specfun.gamma(1 + d / 2)
        if gamma < math.inf:
            volume = math.pi**(d / 2) * radius**d / gamma
        else:    # d >= 342: Gamma overflows, the volume may not
            volume = math.exp(d / 2 * math.log(math.pi) + d * math.log(radius)
                              - math.lgamma(1 + d / 2))
    except OverflowError:
        volume = math.inf
    if volume == math.inf:
        raise DomainError(f"the volume of the {d}-ball of radius {radius} "
                          "overflows")
    r2 = radius * radius
    if r2 == 0.0:
        raise DomainError(f"radius {radius} is too small: its square "
                          "underflows to 0")
    _check_weyl_count(d, volume, lam_max, lambda: _ball_count_bound(
        d, radius * math.sqrt(lam_max)))
    # a kept zero v has v**2 / r2 < lam_max, so v < radius * sqrt(lam_max)
    # but for the roundings of sqrt, the product, r2, pow and the quotient,
    # under 4 ulps; the bound lies 16 ulps above
    below = radius * math.sqrt(lam_max)
    below += 16 * math.ulp(below)
    values: list[float] = []   # one entry per zero
    counts: list[int] = []     # the multiplicity of each entry
    total = 0
    ell = 0
    while True:
        order = []
        for v in specfun.bessel_zeros(d / 2 - 1 + ell, below):
            lam = v ** 2 / r2
            if lam >= lam_max:
                break
            order.append(lam)
        if not order:
            break
        mult = ball_multiplicity(ell, d)
        total += len(order) * mult
        if total > MAX_EIGENVALUES:
            raise ResourceLimitError(
                f"eigenvalue count exceeds cap {MAX_EIGENVALUES}")
        values += order
        counts += [mult] * len(order)
        ell += 1
    if not values:
        raise EmptySpectrumError(
            f"lam_max={lam_max} is not above the first eigenvalue of the "
            "ball")
    eigenvalues = np.repeat(values, counts)
    eigenvalues.sort()
    return Spectrum(
        dimension=d,
        eigenvalues=eigenvalues,
        complete_below=float(lam_max),
        domain=DomainSpec(kind="ball", dimension=d, radius=radius),
        volume=volume,
    )


# ---------------------------------------------------------------------------
# file format: header lines "dim: <d>", "complete_below: <v>", optional
# "volume: <v>", each at most once, then one eigenvalue per line; '#'
# starts a comment.

#: lines per block that ``load_spectrum`` converts at once
_LOAD_BLOCK = 1 << 16
#: eigenvalues per write in ``write_spectrum`` and ``cli spectrum``
#: (text, CSV and JSON)
_WRITE_CHUNK = 1 << 14


def _parse_lines(path: str, lines, lineno: int, header: dict) -> list[float]:
    """Values of ``lines``, the first of which is line ``lineno``, parsed
    line by line; header lines are stored in ``header``."""
    values: list[float] = []
    for lineno, raw in enumerate(lines, start=lineno):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" in line:
            key, _, rest = line.partition(":")
            key = key.strip().lower()
            rest = rest.strip()
            if key in header:
                raise SpectrumFormatError(
                    f"{path}:{lineno}: repeated header {key!r}")
            try:
                if key == "dim":
                    header["dim"] = int(rest)
                elif key in ("complete_below", "volume"):
                    header[key] = float(rest)
                else:
                    raise SpectrumFormatError(
                        f"{path}:{lineno}: unknown header {key!r}")
            except ValueError as exc:
                raise SpectrumFormatError(
                    f"{path}:{lineno}: bad header value: {exc}") from exc
            continue
        try:
            values.append(float(line))
        except ValueError as exc:
            raise SpectrumFormatError(
                f"{path}:{lineno}: not a number: {line!r}") from exc
    return values


def _is_number(line: str) -> bool:
    try:
        float(line)
    except ValueError:
        return False
    return True


def _parse_block(path: str, lines, lineno: int, header: dict) -> np.ndarray:
    """Values of a block of ``lines``, the first of which is line
    ``lineno``; header lines are stored in ``header``.

    ``float`` takes a line exactly when the line parser reads it as one
    value, and rejects any line that holds a header, a ``#`` comment, only
    blanks or a bad value.  The leading lines up to the first number (the
    headers at the top of a file) go through the line parser, and the rest
    is converted by one pass of ``float``, or by the line parser if that
    fails.
    """
    head = next((i for i, line in enumerate(lines) if _is_number(line)),
                len(lines))
    values = _parse_lines(path, lines[:head], lineno, header)
    rest = lines[head:]
    try:
        tail = np.fromiter(map(float, rest), np.float64, len(rest))
    except ValueError:
        tail = _parse_lines(path, rest, lineno + head, header)
    return np.concatenate((values, tail))


def load_spectrum(path: str) -> Spectrum:
    """Parse a spectrum file; validation errors name the file and the first
    violation.

    The file is read in blocks of lines, each converted by
    ``_parse_block``: in bulk where its lines are bare numbers, by the line
    parser elsewhere.  Either way the file means what the line parser
    reads, and a format error names its ``path:line``.  A file that cannot
    be opened or decoded raises SpectrumFormatError naming the path.
    """
    header: dict = {}
    parts = []
    try:
        with open(path) as fh:
            lineno = 1
            while lines := list(islice(fh, _LOAD_BLOCK)):
                parts.append(_parse_block(path, lines, lineno, header))
                lineno += len(lines)
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise SpectrumFormatError(f"{path}: cannot read: {reason}") from exc
    if "dim" not in header:
        raise SpectrumFormatError(f"{path}: missing 'dim' header")
    if "complete_below" not in header:
        raise SpectrumFormatError(f"{path}: missing 'complete_below' header")
    dim = header["dim"]
    try:
        if dim < 1:    # before DomainSpec, which would raise DomainError
            raise SpectrumValidationError("dimension must be >= 1")
        return Spectrum(
            dimension=dim,
            eigenvalues=np.concatenate(parts) if parts else np.empty(0),
            complete_below=header["complete_below"],
            domain=DomainSpec(kind="file", dimension=dim,
                              source_path=str(path)),
            volume=header.get("volume"),
        )
    except SpectrumValidationError as exc:
        raise SpectrumValidationError(f"{path}: {exc}") from None


def _format_runs(values: np.ndarray, fmt) -> list[str]:
    """``[fmt(v) for v in values.tolist()]``, calling ``fmt`` once per run
    of equal adjacent values.

    One ``!=`` pass finds where the runs start; ``fmt`` formats the first
    value of each run, and the strings are repeated by run length.  The
    strings are the per-value ones for any finite, nonzero values, as a
    ``Spectrum`` holds: two such doubles compare equal exactly when their
    bits are equal, and a format reads nothing but the bits.
    """
    starts = np.flatnonzero(
        np.concatenate(([True], values[1:] != values[:-1])))
    texts = list(map(fmt, values[starts].tolist()))
    if len(starts) < len(values):
        counts = np.diff(starts, append=len(values))
        texts = np.repeat(np.array(texts, dtype=object), counts).tolist()
    return texts


def _write_text(spec: Spectrum, fh) -> None:
    """Write ``spec`` to the open text file ``fh`` in the format of
    :func:`load_spectrum`, ``_WRITE_CHUNK`` eigenvalues per write.

    Each line is the ``repr`` of its eigenvalue.  A ball's eigenvalues come
    in runs of equal values (one per spherical-harmonic multiplicity), so
    ``repr`` is taken once per run (``_format_runs``); the bytes are those
    of one ``repr`` per line.
    """
    fh.write(f"dim: {spec.dimension}\n")
    fh.write(f"complete_below: {spec.complete_below!r}\n")
    if spec.volume is not None:
        fh.write(f"volume: {spec.volume!r}\n")
    ev = spec.eigenvalues
    for start in range(0, len(ev), _WRITE_CHUNK):
        chunk = ev[start:start + _WRITE_CHUNK]
        fh.write("\n".join(_format_runs(chunk, repr)) + "\n")


def _write_json(spec: Spectrum, fh) -> None:
    """Write ``spec`` to the open text file ``fh`` as the JSON object
    ``{"dim", "complete_below", "volume", "eigenvalues"}``.

    The bytes are those of ``json.dumps(payload, indent=2) + "\n"`` with
    the eigenvalues as a list of floats.  ``json`` renders a finite float
    by its ``repr``, so the eigenvalues are written as in
    :func:`_write_text`: ``_format_runs(chunk, repr)``, ``_WRITE_CHUNK``
    per write, with no Python float made per eigenvalue.
    """
    head = json.dumps({"dim": spec.dimension,
                       "complete_below": spec.complete_below,
                       "volume": spec.volume}, indent=2)
    # the head ends in "\n}"; the eigenvalue list goes before that brace
    fh.write(head[:-2] + ',\n  "eigenvalues": [\n    ')
    sep = ",\n    "
    ev = spec.eigenvalues
    for start in range(0, len(ev), _WRITE_CHUNK):
        if start:
            fh.write(sep)
        fh.write(sep.join(_format_runs(ev[start:start + _WRITE_CHUNK], repr)))
    fh.write("\n  ]\n}\n")


def write_spectrum(spec: Spectrum, path: str) -> None:
    """Write a spectrum in the text format accepted by :func:`load_spectrum`."""
    with open(path, "w") as fh:
        _write_text(spec, fh)


def _write_csv(spec: Spectrum, fh, full_precision: bool) -> None:
    """Write the CSV export of ``spec``, columns (k, lambda_k), to the open
    text file ``fh``, ``_WRITE_CHUNK`` rows per write.

    Each distinct value is formatted once per run of equal eigenvalues
    (``_format_runs``, as in :func:`_write_text`), and the ``k`` column is
    written per line; the bytes are those of formatting every line.
    """
    fmt = ("{:.17g}" if full_precision else "{:.6g}").format
    fh.write("k,lambda_k\n")
    ev = spec.eigenvalues
    for start in range(0, len(ev), _WRITE_CHUNK):
        texts = _format_runs(ev[start:start + _WRITE_CHUNK], fmt)
        fh.write("".join([f"{k},{text}\n" for k, text in
                          enumerate(texts, start=start + 1)]))
