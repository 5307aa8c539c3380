"""Deterministic, stream-splittable sampling for every distribution used here.

All samplers are pure functions of (params, RandomSource, count): the source
wraps a counter-mode generator keyed by (seed, stream_id), so identical
inputs give bit-identical output regardless of worker scheduling, and
distinct stream ids give statistically independent streams.

``DISTRIBUTIONS`` is the one table of distribution kinds: each config
``kind`` names its params class, whose fields are its config keys, its
sampler and its analytic mean, and every conversion between configs,
params, draws and means reads it. ``read_fields`` turns any config
mapping into a frozen dataclass, a law's params among them. A tabled law
(an integer law on {1, …, N}, ``abelian.Tabled``) builds its CDF table the
first time it is drawn from and keeps it as long as the law; its mean is
at least 1 (``tabled``), so checking a config builds no table.
"""

from __future__ import annotations

import hashlib
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Callable

import numpy as np

from .abelian import TABLE_LIMIT, AbelianParams, Tabled, abelian_mean
from .errors import CapacityError, ConfigError, ParameterError

_U64 = 1 << 64

# Purpose codes for substreams, so the same replication index never reuses
# a stream across roles.
STREAM_X = 1
STREAM_Y = 2
STREAM_PERM = 3
STREAM_BOOT = 4


@dataclass(frozen=True)
class RandomSource:
    """A (seed, stream_id) pair naming one reproducible random stream."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not 0 <= int(self.seed) < _U64:
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not 0 <= int(self.stream_id) < _U64:
            raise ParameterError(f"stream_id must be a 64-bit unsigned integer, got {self.stream_id}")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, *path: int) -> "RandomSource":
        """Derive a child stream by hash-chaining path components onto this id.

        One blake2b step per component, so substream(a, b) is the same stream
        as substream(a).substream(b); 64-bit digests make collisions between
        distinct derivation paths a non-issue in practice.
        """
        sid = int(self.stream_id)
        for part in path:
            part = int(part)
            if part < 0:
                raise ParameterError("substream path components must be nonnegative")
            h = hashlib.blake2b(digest_size=8)
            h.update(sid.to_bytes(8, "little"))
            h.update(part.to_bytes(8, "little"))
            sid = int.from_bytes(h.digest(), "little")
        return RandomSource(self.seed, sid)


def _check_finite(params) -> None:
    """Refuse a float field of a law's params that is inf or nan."""
    for f in fields(params):
        value = getattr(params, f.name)
        if f.type == "float" and not np.isfinite(value):
            raise ParameterError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class StableParams:
    """Symmetric stable law with characteristic function exp{iuδ − γ^p|u|^p}."""

    p: float
    gamma: float = 1.0
    delta: float = 0.0

    def __post_init__(self):
        _check_finite(self)
        if not 0.0 < self.p <= 2.0:
            raise ParameterError(f"stability order must lie in (0, 2], got {self.p}")
        if not self.gamma > 0.0:
            raise ParameterError(f"scale must be positive, got {self.gamma}")

    def mean(self) -> float:
        """The location δ; the mean exists only for p > 1."""
        if self.p <= 1.0:
            raise ParameterError("stable mean exists only for p > 1")
        return self.delta


@dataclass(frozen=True)
class ParetoLikeParams:
    """Pareto(a, x_min), optionally pushed through f(x) = x·max(ln|x|, 1)."""

    a: float
    x_min: float
    transform: bool = False

    def __post_init__(self):
        _check_finite(self)
        if not self.a > 0.0:
            raise ParameterError(f"tail exponent must be positive, got {self.a}")
        if not self.x_min > 0.0:
            raise ParameterError(f"location must be positive, got {self.x_min}")

    def mean(self) -> float:
        """Analytic mean; a > 1 required."""
        if self.a <= 1.0:
            raise ParameterError("mean requires tail exponent > 1")
        if not self.transform:
            return self.a * self.x_min / (self.a - 1.0)
        am1 = self.a - 1.0
        if self.x_min >= np.e:
            # E[X ln X] for X ~ Pareto(a, x_min): ln x ≥ 1 on the whole support
            return float(self.a * self.x_min * (am1 * np.log(self.x_min) + 1.0) / (am1 * am1))
        # f(x) is x below e and x·ln x above: a·x_min^a times
        # ∫_{x_min}^e x^(−a) dx + ∫_e^∞ x^(−a)·ln x dx
        b = 1.0 - self.a
        return float(self.a * self.x_min ** self.a * (
            (np.e ** b - self.x_min ** b) / b + self.a * np.e ** b / (am1 * am1)
        ))


@dataclass(frozen=True)
class PowerLawCutoffParams(Tabled):
    """Integer power law: mass at k proportional to k^(−τ) on {1, …, x_m}."""

    tau: float
    x_m: int

    def __post_init__(self):
        _check_finite(self)
        if not self.tau > 0.0:
            raise ParameterError(f"exponent must be positive, got {self.tau}")
        if int(self.x_m) < 1:
            raise ParameterError(f"cutoff must be a positive integer, got {self.x_m}")
        if int(self.x_m) > TABLE_LIMIT:
            raise CapacityError(f"cutoff {self.x_m} exceeds the exact-table limit {TABLE_LIMIT}")

    def weights(self) -> tuple[np.ndarray, float]:
        """k^(−τ) on {1, …, x_m}, and the mean Σ k^(1−τ) / Σ k^(−τ) from them."""
        k = np.arange(1, int(self.x_m) + 1, dtype=np.float64)
        w = k ** (-self.tau)
        k *= w
        return w, float(np.sum(k) / np.sum(w))

    def mean(self) -> float:
        """The mean from ``weights``, computed once with the CDF table."""
        return self.table[1]


def heavy_transform(x):
    """f(x) = x·max(ln|x|, 1), the variance-destroying transform."""
    x = np.asarray(x, dtype=np.float64)
    m = np.maximum(np.abs(x), 1.0)
    return x * np.maximum(np.log(m), 1.0)


def _require_count(count: int) -> int:
    count = int(count)
    if count < 1:
        raise ParameterError(f"count must be a positive integer, got {count}")
    return count


def sample_stable(params: StableParams, src: RandomSource, count: int) -> np.ndarray:
    """Chambers–Mallows–Stuck variates.

    The centered unit variate has characteristic function exp{−|u|^p};
    scale and location enter as X = γ·X0 + δ. The one expression covers
    p = 1 too: for the symmetric law it is sin φ / cos φ · (cos 0 / W)^0 = tan φ.
    """
    count = _require_count(count)
    g = src.generator()
    phi = (g.random(count) - 0.5) * np.pi
    w = g.standard_exponential(count)
    p, gamma, delta = params.p, params.gamma, params.delta
    x0 = np.sin(p * phi) / np.cos(phi) ** (1.0 / p)
    x0 *= (np.cos((1.0 - p) * phi) / w) ** ((1.0 - p) / p)
    return gamma * x0 + delta


def pareto_like_inverse_cdf(params: ParetoLikeParams, u) -> np.ndarray:
    """Quantile function of the (optionally transformed) Pareto-like law."""
    u = np.asarray(u, dtype=np.float64)
    x = params.x_min * (1.0 - u) ** (-1.0 / params.a)
    return heavy_transform(x) if params.transform else x


def sample_pareto_like(params: ParetoLikeParams, src: RandomSource, count: int) -> np.ndarray:
    count = _require_count(count)
    return pareto_like_inverse_cdf(params, src.generator().random(count))


def table_inverse_cdf(distribution, u) -> np.ndarray:
    """Smallest k ≥ 1 with CDF(k) ≥ u, as int64, by binary search in the table."""
    k = np.searchsorted(distribution.table[0], u, side="left").astype(np.int64, copy=False)
    k += 1
    return k


def sample_tabled(distribution, src: RandomSource, count: int) -> np.ndarray:
    """Inverse-CDF draws from a tabled law."""
    return table_inverse_cdf(distribution, src.generator().random(_require_count(count)))


def as_int(value) -> int:
    """int(value), refusing strings, booleans and numbers with a fractional part."""
    if isinstance(value, (str, bool, np.bool_)) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def as_float(value) -> float:
    """float(value), refusing strings and booleans."""
    if isinstance(value, (str, bool, np.bool_)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def as_bool(value) -> bool:
    """A real boolean; bool("false") would be true, so strings are refused."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"expected true or false, got {value!r}")
    return bool(value)


# How read_fields reads a field that its caller gives no reader for, by the
# field's annotated type.
_CASTS = {"float": as_float, "int": as_int, "bool": as_bool}


def read_fields(cls, spec: dict, where: str, readers: dict | None = None):
    """cls(**fields) from the config mapping spec, every violation a ConfigError.

    spec must be a mapping. An unknown key is refused, a null reads as the
    field's default and a field without a default is required. Each value
    goes through its reader in readers, else the cast of its annotated type;
    a TypeError, ValueError or LookupError from a reader names where and the
    key, one from the checks of cls, which span its fields, names where.
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(spec).__name__}")
    unknown = set(spec) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown, key=str)}")
    values = {}
    for f in fields(cls):
        if spec.get(f.name) is None:
            if f.default is MISSING:
                raise ConfigError(f"{where} needs {f.name}")
            continue
        read = (readers or {}).get(f.name) or _CASTS[f.type]
        try:
            values[f.name] = read(spec[f.name])
        except (TypeError, ValueError, LookupError) as exc:
            raise ConfigError(f"{where} {f.name}: {exc}") from exc
    try:
        return cls(**values)
    except (TypeError, ValueError, LookupError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class DistributionKind:
    """One distribution family; its config keys are the fields of params."""

    params: type
    sample: Callable
    mean: Callable


DISTRIBUTIONS = {
    "pareto_like": DistributionKind(ParetoLikeParams, sample_pareto_like, ParetoLikeParams.mean),
    "power_law_cutoff": DistributionKind(PowerLawCutoffParams, sample_tabled, PowerLawCutoffParams.mean),
    "stable": DistributionKind(StableParams, sample_stable, StableParams.mean),
    "abelian": DistributionKind(AbelianParams, sample_tabled, abelian_mean),
}


def tabled(distribution) -> bool:
    """Whether distribution is of a tabled kind. Such a law lives on
    {1, …, N}, so its mean exists and is at least 1 without its table."""
    return isinstance(distribution, Tabled)


def _kind_of(distribution) -> tuple[str, DistributionKind]:
    for name, kind in DISTRIBUTIONS.items():
        if isinstance(distribution, kind.params):
            return name, kind
    raise ParameterError(f"unknown distribution params {type(distribution).__name__}")


def build_distribution(spec: dict):
    """Distribution params from a config mapping with a `kind` tag."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"distribution spec needs a 'kind' field, got {spec!r}")
    name = spec["kind"]
    if not isinstance(name, str) or name not in DISTRIBUTIONS:
        raise ConfigError(
            f"unknown distribution kind {name!r}; expected one of {tuple(DISTRIBUTIONS)}"
        )
    args = {k: v for k, v in spec.items() if k != "kind"}
    return read_fields(DISTRIBUTIONS[name].params, args, f"distribution {name}")


def distribution_to_mapping(distribution) -> dict:
    """Inverse of build_distribution."""
    return {"kind": _kind_of(distribution)[0], **asdict(distribution)}


def sample_distribution(distribution, src: RandomSource, count: int) -> np.ndarray:
    """count float64 draws from a distribution of any kind."""
    draws = _kind_of(distribution)[1].sample(distribution, src, count)
    return np.asarray(draws, dtype=np.float64)


def distribution_mean(distribution) -> float:
    """Analytic mean where one exists (mu_mode='true' and coverage scoring)."""
    return _kind_of(distribution)[1].mean(distribution)
