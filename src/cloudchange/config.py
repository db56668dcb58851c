"""Pipeline configuration: strict YAML with every default echoed back.

Unknown keys are errors (named by their dotted path), defaults are resolved
at parse time so a serialized config is complete provenance, and
parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import dataclasses
import datetime
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union, get_type_hints

import yaml

from .detection import ChangeParams
from .neighbors import query_workers
from .registration import IcpParams

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
        timestamp: either a number (days) or a calendar date.
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
        grid_size: ground-grid cell edge, metres; None uses the changed
            voxel edge.
        output_dir: where the run writes its artifacts.
        seed: base seed recorded in the manifest.
        threads: worker count for neighbour queries; None: one worker;
            scoped to the run.
    """

    epochs: Tuple[EpochInput, ...]
    registration: str = "none"
    icp: IcpParams = field(default_factory=IcpParams)
    detection: ChangeParams = field(default_factory=ChangeParams)
    grid_size: Optional[float] = None
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
        if self.grid_size is not None and not (math.isfinite(self.grid_size) and self.grid_size > 0):
            raise ValueError(f"grid_size: must be finite and > 0, got {self.grid_size}")
        if not _is_integer(self.seed):
            raise ValueError(f"seed: expected an integer, got {self.seed!r}")
        if self.threads is not None:
            query_workers(self.threads)


def _timestamp_kind(timestamp) -> str:
    """Timestamps of one kind order among themselves; Python refuses to
    compare a timezone-aware datetime with a naive one."""
    if isinstance(timestamp, datetime.datetime):
        return "naive datetime" if timestamp.utcoffset() is None else "aware datetime"
    return "date" if isinstance(timestamp, datetime.date) else "number"


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ValueError(f"missing config key: {_join(path, key)}")
    return mapping[key]


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _check_keys(mapping: dict, allowed, path: str) -> None:
    if not isinstance(mapping, dict):
        raise ValueError(f"{path or 'config'}: expected a mapping")
    for key in mapping:
        if key not in allowed:
            raise ValueError(f"unknown config key: {_join(path, key)}")


def _parse_timestamp(value, path: str):
    if isinstance(value, bool) or value is None:
        raise ValueError(f"{path}: expected a number or ISO date")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, datetime.datetime):
        return value
    if isinstance(value, datetime.date):
        return value
    if isinstance(value, str):
        try:
            return datetime.date.fromisoformat(value)
        except ValueError as exc:
            raise ValueError(f"{path}: not an ISO date: {value!r}") from exc
    raise ValueError(f"{path}: expected a number or ISO date, got {type(value).__name__}")


def _parse_epochs(raw, path: str) -> Tuple[EpochInput, ...]:
    if not isinstance(raw, list):
        raise ValueError(f"{path}: expected a list of epochs")
    epochs = []
    for i, entry in enumerate(raw):
        entry_path = f"{path}[{i}]"
        _check_keys(entry, {"path", "timestamp"}, entry_path)
        _require(entry, "path", entry_path)
        epochs.append(
            EpochInput(
                path=_convert(entry, {"path": _string}, entry_path)["path"],
                timestamp=_parse_timestamp(
                    _require(entry, "timestamp", entry_path), _join(entry_path, "timestamp")
                ),
            )
        )
    return tuple(epochs)


def _parse_section(raw, path: str, factory, fields: dict):
    """Build a params dataclass from a config section, reporting offending
    keys by their dotted path."""
    if raw is None:
        raw = {}
    _check_keys(raw, set(fields), path)
    kwargs = _convert(raw, fields, path)
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _convert(raw: dict, fields: dict, path: str) -> dict:
    """Every key of `fields` present in `raw`, through its converter; a bad
    value is reported under its dotted path."""
    kwargs = {}
    for key, convert in fields.items():
        if key in raw:
            try:
                kwargs[key] = convert(raw[key])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{_join(path, key)}: {exc}") from exc
    return kwargs


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
    """A YAML number as given; a bool or a string is no number."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


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


# Converter from a parsed YAML value for each field type of the params
# dataclasses and the config's own scalars; serializing a params dataclass
# applies the same converter.
_CONVERTERS = {
    int: _integer,
    float: _float,
    str: _string,
    Optional[int]: _optional(_integer),
    Optional[float]: _optional(_float),
    Union[float, Sequence[float]]: _thresholds,
}


def _section_fields(cls, skip=()) -> dict:
    """Field name -> converter for every field of a dataclass but `skip`."""
    hints = get_type_hints(cls)
    return {
        f.name: _CONVERTERS[hints[f.name]] for f in dataclasses.fields(cls) if f.name not in skip
    }


class _Loader(yaml.SafeLoader):
    """YAML 1.1 reads `1e5` and `3e-4` (no dot) as strings; this loader
    reads them as floats."""


class _Dumper(yaml.SafeDumper):
    """Quotes the strings _Loader would read as floats, so serialize ->
    parse stays the identity."""


_EXPONENT_FLOAT = re.compile(r"^[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)[eE][-+]?[0-9]+$")
for _cls in (_Loader, _Dumper):
    _cls.add_implicit_resolver("tag:yaml.org,2002:float", _EXPONENT_FLOAT, list("-+0123456789."))


_ICP_FIELDS = _section_fields(IcpParams)
_DETECTION_FIELDS = _section_fields(ChangeParams)
_NESTED_KEYS = ("epochs", "icp", "detection")
_SCALAR_FIELDS = _section_fields(PipelineConfig, skip=_NESTED_KEYS)


def parse_config_text(text: str) -> PipelineConfig:
    """Parse a config document from a string; see parse_config."""
    raw = yaml.load(text, Loader=_Loader)
    if raw is None:
        raw = {}
    _check_keys(raw, {*_NESTED_KEYS, *_SCALAR_FIELDS, "report_version"}, "")
    _convert(raw, {"report_version": _report_version}, "")
    epochs = _parse_epochs(_require(raw, "epochs", ""), "epochs")
    return PipelineConfig(
        epochs=epochs,
        icp=_parse_section(raw.get("icp"), "icp", IcpParams, _ICP_FIELDS),
        detection=_parse_section(
            raw.get("detection"), "detection", ChangeParams, _DETECTION_FIELDS
        ),
        **_convert(raw, _SCALAR_FIELDS, ""),
    )


def parse_config(path) -> PipelineConfig:
    """Load and validate a pipeline config file.

    Unknown keys, missing required keys, and invariant violations raise
    ValueError naming the offending key path. All defaults are resolved in
    the returned config.
    """
    with open(path) as handle:
        return parse_config_text(handle.read())


def _timestamp_value(timestamp):
    if isinstance(timestamp, (datetime.date, datetime.datetime)):
        return timestamp.isoformat()
    return timestamp


def _section_to_dict(params, fields: dict) -> dict:
    """A params dataclass as plain YAML values: every field through its
    converter, tuples as lists."""
    out = {}
    for key, convert in fields.items():
        value = convert(getattr(params, key))
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def config_to_dict(config: PipelineConfig) -> dict:
    """Full-provenance mapping: every field present, defaults included."""
    return {
        "epochs": [
            {"path": e.path, "timestamp": _timestamp_value(e.timestamp)}
            for e in config.epochs
        ],
        "registration": config.registration,
        "icp": _section_to_dict(config.icp, _ICP_FIELDS),
        "detection": _section_to_dict(config.detection, _DETECTION_FIELDS),
        "grid_size": config.grid_size,
        "output_dir": config.output_dir,
        "report_version": REPORT_VERSION,
        "seed": config.seed,
        "threads": config.threads,
    }


def serialize_config(config: PipelineConfig) -> str:
    """Render a config back to YAML; parsing the result reproduces it."""
    return yaml.dump(
        config_to_dict(config), Dumper=_Dumper, sort_keys=True, default_flow_style=False
    )
