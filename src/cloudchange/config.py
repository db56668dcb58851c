"""Pipeline configuration: strict YAML with every default echoed back.

Unknown keys are errors (named by their dotted path), defaults are resolved
at parse time so a serialized config is complete provenance, and
parse -> serialize -> parse is the identity.

Parsing and serializing both walk `dataclasses.fields` of PipelineConfig
and the dataclasses it nests, so a field added to PipelineConfig, IcpParams
or ChangeParams needs no edit here as long as its type has a converter in
`_CONVERTERS`.
"""

from __future__ import annotations

import dataclasses
import datetime
import functools
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union, get_args, get_origin, get_type_hints

import yaml

from .detection import ChangeParams
from .neighbors import query_workers
from .registration import IcpParams
from .volumetrics import DEFAULT_CELL_SIZE

__all__ = [
    "EpochInput",
    "PipelineConfig",
    "config_to_dict",
    "parse_config",
    "parse_config_text",
    "serialize_config",
]

REPORT_VERSION = 3

_REGISTRATION_MODES = ("none", "icp")


@dataclass(frozen=True)
class EpochInput:
    """One epoch's cloud file and acquisition time.

    Attributes:
        path: cloud file readable by the cloud loaders.
        timestamp: a number (days), a calendar date or a datetime, naive or
            timezone-aware.
    """

    path: str
    timestamp: Union[float, datetime.date]


@dataclass(frozen=True)
class PipelineConfig:
    """Fully resolved settings for a pipeline run.

    Attributes:
        epochs: at least two inputs with strictly increasing timestamps.
        registration: "none" or "icp" (later epoch aligned to the earlier).
        icp: registration knobs, used only in "icp" mode.
        detection: change-detection knobs.
        grid_size: ground-grid cell edge, metres, finite and > 0.
        output_dir: where the run writes its artifacts.
        seed: base seed recorded in the manifest.
        threads: worker count for neighbour queries; None: one worker;
            scoped to the run.
    """

    epochs: Tuple[EpochInput, ...]
    registration: str = "none"
    icp: IcpParams = field(default_factory=IcpParams)
    detection: ChangeParams = field(default_factory=ChangeParams)
    grid_size: float = DEFAULT_CELL_SIZE
    output_dir: str = "out"
    seed: int = 0
    threads: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.epochs) < 2:
            raise ValueError(
                f"epochs: detection needs at least two epochs, got {len(self.epochs)}"
            )
        if self.registration not in _REGISTRATION_MODES:
            raise ValueError(
                f"registration: expected one of {_REGISTRATION_MODES}, got {self.registration!r}"
            )
        kinds = {_timestamp_kind(e.timestamp) for e in self.epochs}
        if len(kinds) > 1:
            raise ValueError(f"epochs: timestamps mix incompatible kinds: {sorted(kinds)}")
        stamps = [e.timestamp for e in self.epochs]
        # NaN would pass the order check below: every comparison with it is
        # False.
        if kinds == {"number"} and not all(math.isfinite(t) for t in stamps):
            raise ValueError(f"epochs: timestamps must be finite, got {stamps}")
        if any(b <= a for a, b in zip(stamps, stamps[1:])):
            raise ValueError("epochs: timestamps must be strictly increasing")
        grid_size = _convert(self.grid_size, _float, "grid_size")
        if not (math.isfinite(grid_size) and grid_size > 0):
            raise ValueError(f"grid_size: must be finite and > 0, got {grid_size}")
        if not _is_integer(self.seed):
            raise ValueError(f"seed: expected an integer, got {self.seed!r}")
        # Kept as plain ints, so a numpy integer serializes like any other.
        object.__setattr__(self, "seed", operator.index(self.seed))
        if self.threads is not None:
            object.__setattr__(self, "threads", query_workers(self.threads))


def _timestamp_kind(timestamp) -> str:
    """Timestamps of one kind order among themselves; Python refuses to
    compare a timezone-aware datetime with a naive one."""
    if isinstance(timestamp, datetime.datetime):
        return "naive datetime" if timestamp.utcoffset() is None else "aware datetime"
    return "date" if isinstance(timestamp, datetime.date) else "number"


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _check_keys(mapping: dict, allowed, path: str) -> None:
    if not isinstance(mapping, dict):
        raise ValueError(f"{path or 'config'}: expected a mapping")
    for key in mapping:
        if key not in allowed:
            raise ValueError(f"unknown config key: {_join(path, key)}")


def _convert(value, convert, path: str):
    """`value` through `convert`; a bad value is reported under its dotted
    path."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _is_integer(value) -> bool:
    """An integer as given: no bool, and no float, not even 8.0."""
    return not isinstance(value, bool) and hasattr(type(value), "__index__")


def _integer(value) -> int:
    if not _is_integer(value):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def _string(value) -> str:
    """A YAML string as given; null or a number is no name or path."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _float(value) -> float:
    """A YAML number as given; a bool, a string or null is no number."""
    if value is None or isinstance(value, (bool, str)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _timestamp(value):
    """A number (days), or a date or datetime as YAML reads it or as an ISO
    string, which is how the echo writes it."""
    if isinstance(value, bool) or value is None:
        raise TypeError("expected a number or ISO date")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, datetime.date):
        return value
    if isinstance(value, str):
        # A date first: datetime.fromisoformat reads "2026-01-01" too.
        for kind in (datetime.date, datetime.datetime):
            try:
                return kind.fromisoformat(value)
            except ValueError:
                pass
        raise ValueError(f"not an ISO date: {value!r}")
    raise TypeError(f"expected a number or ISO date, got {type(value).__name__}")


def _report_version(value) -> int:
    """The report format a config was written with: a serialized config
    records it, but only the format this library writes parses."""
    version = _integer(value)
    if version != REPORT_VERSION:
        raise ValueError(f"this library writes report format {REPORT_VERSION} only, got {version}")
    return version


def _thresholds(value):
    if isinstance(value, (list, tuple)):
        return tuple(_float(v) for v in value)
    return _float(value)


def _optional(convert):
    return lambda value: None if value is None else convert(value)


# Converter from a parsed YAML value for each leaf field type of the config
# dataclasses; the echo applies the same converter.
_CONVERTERS = {
    int: _integer,
    float: _float,
    str: _string,
    Optional[int]: _optional(_integer),
    Optional[float]: _optional(_float),
    Union[float, Sequence[float]]: _thresholds,
    Union[float, datetime.date]: _timestamp,
}


@functools.lru_cache(maxsize=None)
def _hints(cls) -> dict:
    """Field name -> resolved type of a config dataclass, in field order."""
    return get_type_hints(cls)


def _load(cls, raw, path: str):
    """Build dataclass `cls` from a parsed YAML mapping. A nested dataclass
    recurses (a null section takes every default), a Tuple[X, ...] reads a
    list of X mappings and any other field goes through its converter;
    every error names its dotted path."""
    hints = _hints(cls)
    _check_keys(raw, hints, path)
    kwargs = {}
    for f in dataclasses.fields(cls):
        key, hint, value = _join(path, f.name), hints[f.name], raw.get(f.name)
        if f.name not in raw:
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ValueError(f"missing config key: {key}")
        elif dataclasses.is_dataclass(hint):
            kwargs[f.name] = _load(hint, {} if value is None else value, key)
        elif get_origin(hint) is tuple:
            if not isinstance(value, list):
                raise ValueError(f"{key}: expected a list of {f.name}")
            kwargs[f.name] = tuple(
                _load(get_args(hint)[0], entry, f"{key}[{i}]") for i, entry in enumerate(value)
            )
        else:
            kwargs[f.name] = _convert(value, _CONVERTERS[hint], key)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        # The top level's own checks already name their keys.
        if not path:
            raise
        raise ValueError(f"{path}: {exc}") from exc


def _plain(value, hint):
    """`value` of type `hint` as plain YAML data: a dataclass as a mapping,
    a tuple as a list, a date as its ISO string and anything else through
    its converter."""
    if dataclasses.is_dataclass(hint):
        return {name: _plain(getattr(value, name), h) for name, h in _hints(hint).items()}
    if get_origin(hint) is tuple:
        return [_plain(item, get_args(hint)[0]) for item in value]
    if isinstance(value, datetime.date):
        return value.isoformat()
    value = _CONVERTERS[hint](value)
    return list(value) if isinstance(value, tuple) else value


class _Loader(yaml.SafeLoader):
    """YAML 1.1 reads `1e5` and `3e-4` (no dot) as strings; this loader
    reads them as floats."""


class _Dumper(yaml.SafeDumper):
    """Quotes the strings _Loader would read as floats, so serialize ->
    parse stays the identity."""


_EXPONENT_FLOAT = re.compile(r"^[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)[eE][-+]?[0-9]+$")
for _cls in (_Loader, _Dumper):
    _cls.add_implicit_resolver("tag:yaml.org,2002:float", _EXPONENT_FLOAT, list("-+0123456789."))


def parse_config_text(text: str) -> PipelineConfig:
    """Parse a config document from a string; see parse_config."""
    try:
        raw = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ValueError(f"config: not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    # Recorded by the echo, but no setting.
    if isinstance(raw, dict) and "report_version" in raw:
        _convert(raw.pop("report_version"), _report_version, "report_version")
    return _load(PipelineConfig, raw, "")


def parse_config(path) -> PipelineConfig:
    """Load and validate a pipeline config file.

    Unknown keys, missing required keys, and invariant violations raise
    ValueError naming the offending key path. All defaults are resolved in
    the returned config.
    """
    with open(path) as handle:
        return parse_config_text(handle.read())


def config_to_dict(config: PipelineConfig) -> dict:
    """Full-provenance mapping: every field present, defaults included."""
    return {**_plain(config, PipelineConfig), "report_version": REPORT_VERSION}


def serialize_config(config: PipelineConfig) -> str:
    """Render a config back to YAML; parsing the result reproduces it."""
    return yaml.dump(
        config_to_dict(config), Dumper=_Dumper, sort_keys=True, default_flow_style=False
    )
