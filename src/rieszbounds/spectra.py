"""Exact Dirichlet spectra for boxes and balls, plus file-backed spectra.

Every generated ``Spectrum`` carries a completeness threshold
``complete_below``: the generator guarantees that no eigenvalue below it is
missing from the list.  Downstream evaluations must stay below that
threshold; this is the main correctness contract of the whole toolkit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import specfun
from .errors import (
    DomainError,
    EmptySpectrumError,
    MissingVolumeError,
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
    read-only arrays computed from the eigenvalues (prefix sums, logs),
    filled on first use by :mod:`rieszbounds.riesz`, and the memoryviews of
    them and of the eigenvalues that :mod:`rieszbounds.verify` reads its
    index margins' operands through.
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
        if np.any(np.diff(ev) < 0):
            i = int(np.argmax(np.diff(ev) < 0))
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


def _check_weyl_count(d: int, volume: float, lam_max: float) -> None:
    """Fail before any work if Weyl's law predicts far more than
    MAX_EIGENVALUES eigenvalues below ``lam_max``; an infinite ``lam_max``
    always fails."""
    predicted = (volume * (lam_max / (4 * math.pi))**(d / 2)
                 / specfun.gamma(1 + d / 2))
    if predicted > 2 * MAX_EIGENVALUES:
        raise ResourceLimitError(f"predicted eigenvalue count {predicted:.3g} "
                                 f"exceeds cap {MAX_EIGENVALUES}")


def box_spectrum(sides, lam_max: float) -> Spectrum:
    """All Dirichlet eigenvalues pi^2 sum(n_i^2/L_i^2) < lam_max, sorted."""
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
            f"lam_max={lam_max} is below the first eigenvalue {lam_1}")
    d = len(sides)
    volume = math.prod(sides)
    if volume == math.inf:
        raise DomainError(f"box sides {sides} are too large: their product, "
                          "the volume, overflows")
    _check_weyl_count(d, volume, lam_max)

    vals: list[float] = []

    def recurse(axis: int, acc: float) -> None:
        c = coeffs[axis]
        n = 1
        while True:
            t = acc + c * n * n
            if t >= lam_max:
                break
            if axis == d - 1:
                if len(vals) >= MAX_EIGENVALUES:
                    raise ResourceLimitError(
                        f"eigenvalue count exceeds cap {MAX_EIGENVALUES}")
                vals.append(t)
            else:
                recurse(axis + 1, t)
            n += 1

    recurse(0, 0.0)
    vals.sort()
    return Spectrum(
        dimension=d,
        eigenvalues=np.array(vals),
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


def ball_spectrum(d: int, radius: float, lam_max: float) -> Spectrum:
    """All Dirichlet eigenvalues j_{d/2-1+ell,p}^2 / radius^2 < lam_max.

    Each value is repeated with its spherical-harmonic multiplicity.
    """
    if d < 2:
        raise DomainError("ball_spectrum requires d >= 2")
    if not 0 < radius < math.inf:
        raise DomainError(f"radius must be finite and positive, got {radius}")
    if not lam_max > 0:
        raise DomainError(f"lam_max must be positive, got {lam_max}")
    try:
        volume = math.pi**(d / 2) * radius**d / specfun.gamma(1 + d / 2)
    except OverflowError:
        volume = math.inf
    if volume == math.inf:
        raise DomainError(f"the volume of the {d}-ball of radius {radius} "
                          "overflows")
    _check_weyl_count(d, volume, lam_max)
    r2 = radius * radius
    if r2 == 0.0:
        raise DomainError(f"radius {radius} is too small: its square "
                          "underflows to 0")
    vals: list[float] = []
    ell = 0
    while True:
        nu = d / 2 - 1 + ell
        if specfun.bessel_zero(nu, 1).value**2 / r2 >= lam_max:
            break
        mult = ball_multiplicity(ell, d)
        p = 1
        while True:
            lam = specfun.bessel_zero(nu, p).value**2 / r2
            if lam >= lam_max:
                break
            if len(vals) + mult > MAX_EIGENVALUES:
                raise ResourceLimitError(
                    f"eigenvalue count exceeds cap {MAX_EIGENVALUES}")
            vals.extend([lam] * mult)
            p += 1
        ell += 1
    if not vals:
        raise EmptySpectrumError(
            f"lam_max={lam_max} is below the first eigenvalue of the ball")
    vals.sort()
    return Spectrum(
        dimension=d,
        eigenvalues=np.array(vals),
        complete_below=float(lam_max),
        domain=DomainSpec(kind="ball", dimension=d, radius=radius),
        volume=volume,
    )


def weyl_asymptote(spec: Spectrum, k: int) -> float:
    """Leading-order eigenvalue asymptote 4 pi Gamma(1+d/2)^{2/d} (k/|O|)^{2/d}."""
    if spec.volume is None:
        raise MissingVolumeError("spectrum carries no volume metadata")
    if k < 1:
        raise DomainError("k must be >= 1")
    d = spec.dimension
    return (4 * math.pi * specfun.gamma(1 + d / 2)**(2 / d)
            * k**(2 / d) / spec.volume**(2 / d))


# ---------------------------------------------------------------------------
# file format: header lines "dim: <d>", "complete_below: <v>", optional
# "volume: <v>", then one eigenvalue per line; '#' starts a comment.

#: lines per block that ``load_spectrum`` converts at once
_LOAD_BLOCK = 1 << 16
#: eigenvalues per write in ``write_spectrum`` and ``cli spectrum``
#: (text and JSON)
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
    """Parse a spectrum file; validation errors name the first violation.

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
    return Spectrum(
        dimension=dim,
        eigenvalues=np.concatenate(parts) if parts else np.empty(0),
        complete_below=header["complete_below"],
        domain=DomainSpec(kind="file", dimension=dim, source_path=str(path)),
        volume=header.get("volume"),
    )


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


def spectrum_csv(spec: Spectrum, full_precision: bool = False) -> str:
    """CSV export with columns (k, lambda_k).

    Each distinct value is formatted once per run of equal eigenvalues
    (``_format_runs``, as in :func:`write_spectrum`), and the ``k`` column
    is written per line; the bytes are those of formatting every line.
    """
    fmt = "{:.17g}" if full_precision else "{:.6g}"
    lines = ["k,lambda_k"]
    lines += [f"{k},{text}" for k, text in enumerate(
        _format_runs(spec.eigenvalues, fmt.format), start=1)]
    return "\n".join(lines) + "\n"
