"""Squeezing-spectrum generators.

Deterministic profiles (an explicit list, or one value repeated) and two
random ensembles over per-mode energies: uniform on the constrained simplex
{E_j >= 2, sum E_j <= E}, and a product of shifted exponentials (Boltzmann
weight exp(-(E_j - 2)/T) per mode).  Energies map to squeezing values via
z = (E + sqrt(E^2 - 4))/2.  This module turns unit exponentials into
spectra; the exponentials come off each trial's stream in
harness.draw_block, the one place a stream's draws are laid out.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import DomainError, EnergyTooSmall, InvalidSpec

DETERMINISTIC_KINDS = frozenset({"fixed", "constant"})
RANDOM_KINDS = frozenset({"microcanonical", "canonical"})


@dataclass(frozen=True)
class ProfileSpec:
    """A recipe for producing one squeezing spectrum per trial.

    kind:
        "fixed"          explicit spectrum, z_values set, n = len(z_values)
        "constant"       z repeated n times
        "microcanonical" per-mode energies uniform on {E_j >= 2, sum <= energy}
        "canonical"      E_j = 2 + Exp(temperature) independently per mode
    temperature applies to "canonical" only; None means energy / n.
    """

    kind: str
    n: int
    z_values: tuple = ()
    z: float = 1.0
    energy: float = 0.0
    temperature: float | None = None

    def __post_init__(self):
        if self.kind not in DETERMINISTIC_KINDS | RANDOM_KINDS:
            raise InvalidSpec(f"unknown profile kind {self.kind!r}")
        if isinstance(self.n, bool) or not isinstance(self.n, Integral):  # a float count would be truncated
            raise InvalidSpec(f"need an integer mode count, got n={self.n!r}")
        object.__setattr__(self, "n", int(self.n))  # a numpy integer would fail the JSON encoder
        if self.n < 1:
            raise InvalidSpec(f"need at least one mode, got n={self.n}")
        if self.kind == "fixed":
            if len(self.z_values) != self.n:
                raise InvalidSpec(
                    f"fixed profile has {len(self.z_values)} values for n={self.n}"
                )
            if not all(map(math.isfinite, self.z_values)) or min(self.z_values) < 1.0:
                raise InvalidSpec("fixed profile needs finite z >= 1 in every mode")
        elif self.kind == "constant":
            if not math.isfinite(self.z) or self.z < 1.0:
                raise InvalidSpec(f"constant profile needs z >= 1, got {self.z}")
        elif self.kind == "microcanonical":
            if not math.isfinite(self.energy):
                raise InvalidSpec("microcanonical profile needs a finite energy")
            if self.energy < 2.0 * self.n:
                raise EnergyTooSmall(
                    f"total energy {self.energy} below the ground-state floor "
                    f"2n = {2 * self.n}"
                )
        else:  # canonical
            if not math.isfinite(self.energy) or self.energy <= 0.0:
                raise EnergyTooSmall(
                    f"canonical profile needs energy > 0, got {self.energy}"
                )
            if self.temperature is not None and (
                not math.isfinite(self.temperature) or self.temperature <= 0.0
            ):
                raise InvalidSpec(
                    f"canonical temperature must be > 0, got {self.temperature}"
                )

    @property
    def is_deterministic(self) -> bool:
        return self.kind in DETERMINISTIC_KINDS

    def fixed_spectrum(self) -> np.ndarray:
        if self.kind == "fixed":
            return np.array(self.z_values, dtype=float)
        if self.kind == "constant":
            return np.full(self.n, float(self.z))
        raise DomainError(f"profile kind {self.kind!r} has no fixed spectrum")


def fixed_profile(z_values) -> ProfileSpec:
    z = np.atleast_1d(np.asarray(z_values, dtype=float))
    if z.ndim != 1 or not z.size:
        raise DomainError("squeezing spectrum must be a nonempty vector")
    return ProfileSpec(kind="fixed", n=z.size, z_values=tuple(z.tolist()))


def constant_profile(z: float, n: int) -> ProfileSpec:
    return ProfileSpec(kind="constant", n=n, z=float(z))


_CONSTANT_RE = re.compile(r"^(?P<z>[^x]+)x(?P<n>\d+)$")


def _parse_number(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InvalidSpec(f"could not parse {what} from {text!r}") from None
    if not math.isfinite(value):
        raise InvalidSpec(f"{what} must be finite, got {text!r}")
    return value


def parse_profile(text: str, n: int | None = None) -> ProfileSpec:
    """Parse a profile string.

    Grammar (the CLI's --z-profile argument):

        fixed:<z1>,<z2>,...      explicit spectrum, n = number of entries
        constant:<z>x<n>         z repeated n times
        micro:<E>                energy-simplex ensemble, needs n from context
        canonical:<E>[:<T>]      shifted-exponential ensemble, needs n; optional
                                 per-mode temperature T overriding E/n

    `n` cross-checks fixed/constant mode counts and supplies the count for
    micro/canonical.  Raises InvalidSpec on malformed text, EnergyTooSmall
    when a random ensemble is asked for less than its floor allows.
    """
    if not isinstance(text, str) or ":" not in text:
        raise InvalidSpec(f"profile must look like kind:args, got {text!r}")
    kind, _, args = text.partition(":")
    kind = kind.strip().lower()
    args = args.strip()
    if not args:
        raise InvalidSpec(f"profile {text!r} is missing its arguments")

    if kind == "fixed":
        parts = args.split(",")
        try:
            spec = ProfileSpec(kind="fixed", n=len(parts), z_values=tuple(map(float, parts)))
        except (ValueError, InvalidSpec):  # the per-token parse words the first bad token's error
            spec = ProfileSpec(kind="fixed", n=len(parts), z_values=tuple(_parse_number(p, "squeezing value") for p in parts))
    elif kind == "constant":
        m = _CONSTANT_RE.match(args)
        if m is None:
            raise InvalidSpec(f"constant profile must be <z>x<n>, got {args!r}")
        count = int(m.group("n"))
        if count < 1:
            raise InvalidSpec(f"constant profile needs n >= 1, got {count}")
        spec = ProfileSpec(kind="constant", n=count, z=_parse_number(m.group("z"), "z"))
    elif kind in ("micro", "microcanonical"):
        if n is None:
            raise InvalidSpec("micro:<E> needs the mode count n from context")
        spec = ProfileSpec(
            kind="microcanonical", n=n, energy=_parse_number(args, "energy")
        )
    elif kind == "canonical":
        parts = args.split(":")
        if len(parts) > 2:
            raise InvalidSpec(f"canonical profile takes at most E:T, got {args!r}")
        if n is None:
            raise InvalidSpec("canonical:<E> needs the mode count n from context")
        temperature = _parse_number(parts[1], "temperature") if len(parts) == 2 else None
        spec = ProfileSpec(
            kind="canonical",
            n=n,
            energy=_parse_number(parts[0], "energy"),
            temperature=temperature,
        )
    else:
        raise InvalidSpec(f"unknown profile kind {kind!r} in {text!r}")

    if n is not None and (spec.n != n or isinstance(n, bool)):  # True == 1, but is no count
        raise InvalidSpec(f"profile {text!r} has n={spec.n} but n={n} was requested")
    return spec


def profile_to_string(spec: ProfileSpec) -> str:
    """Inverse of parse_profile, used for provenance records."""
    if spec.kind == "fixed":
        return "fixed:" + ",".join(map(repr, spec.z_values))
    if spec.kind == "constant":
        return f"constant:{spec.z!r}x{spec.n}"
    if spec.kind == "microcanonical":
        return f"micro:{spec.energy!r}"
    if spec.temperature is not None:
        return f"canonical:{spec.energy!r}:{spec.temperature!r}"
    return f"canonical:{spec.energy!r}"


def exponential_count(spec: ProfileSpec) -> int:
    """Unit exponentials one draw of a random profile takes off its stream."""
    return spec.n + 1 if spec.kind == "microcanonical" else spec.n


def spectra_from_exponentials(spec: ProfileSpec, g: np.ndarray) -> np.ndarray:
    """The squeezing spectra (B, n) of a random profile, one per row of unit
    exponentials g (B, exponential_count(spec)), every entry >= 1.

    The microcanonical draw uses the simplex trick: n+1 iid unit
    exponentials g, with E_j = 2 + (E - 2n) g_j / sum(g); the first n
    coordinates of a uniform point on the scaled simplex are uniform on the
    sub-level set, and no rejection step is needed even when E is barely
    above 2n.  A row of a C-ordered stack sums in the order the row alone
    does, so each spectrum is bit-equal to its lone draw.
    """
    n = spec.n
    if spec.kind == "microcanonical":
        energies = 2.0 + (spec.energy - 2.0 * n) * (g[:, :n] / g.sum(axis=1, keepdims=True))
    else:
        energies = 2.0 + g * (spec.energy / n if spec.temperature is None else spec.temperature)
    # energies >= 2 by construction; the sqrt argument cannot go negative
    # because float squaring is weakly monotone
    z = 0.5 * (energies + np.sqrt(energies * energies - 4.0))
    # E_j == 2 must give exactly 1 even after rounding
    return np.maximum(z, 1.0)


@dataclass(frozen=True)
class ScalingConfig:
    """Growth rules for sweep families: the squeezing ceiling grows like
    scale_z * n**zeta and the subsystem size like scale_k * n**kappa."""

    zeta: float = 0.0
    kappa: float = 0.0
    scale_z: float = 2.0
    scale_k: float = 1.0

    def __post_init__(self):
        values = (self.zeta, self.kappa, self.scale_z, self.scale_k)
        if not all(math.isfinite(v) for v in values):
            raise DomainError(f"scaling values must be finite, got {values}")
        if self.zeta < 0.0 or self.kappa < 0.0:
            raise DomainError("growth exponents must be >= 0")
        if self.scale_z < 1.0:
            raise DomainError(f"squeezing scale must be >= 1, got {self.scale_z}")
        if self.scale_k <= 0.0:
            raise DomainError(f"subsystem scale must be > 0, got {self.scale_k}")

    def z_value(self, n: int) -> float:
        try:
            return self.scale_z * float(n) ** self.zeta
        except OverflowError:
            return math.inf

    def k_of(self, n: int) -> int:
        try:
            k = max(1, math.floor(self.scale_k * float(n) ** self.kappa))
        except OverflowError:  # the rule is past every float, so past n too
            return n
        return min(k, n)

    def profile_for(self, n: int) -> ProfileSpec:
        return constant_profile(self.z_value(n), n)
