"""Plain-text settings: ``key = value`` lines, in sections for config files.

Blank lines and ``#`` comments are ignored.  Unknown sections or keys and
malformed values raise :class:`ConfigError` naming the key and line number.
Omitted keys fall back to defaults.  ``cstm benchmark`` needs ``case``
(or ``dataset``); ``cstm fit`` reads neither.  README.md lists every key
with its default.

Each key is defined once, in :data:`_SCHEMA`.  Its ``[acmtf]`` and
``[kernel]`` rows, and the settings text that model files embed, come from
the fields of :class:`AcmtfHyperParams` and :class:`KernelSpec`.
:func:`_fmt` writes every value and :func:`_convert` reads it.
"""

from __future__ import annotations

import hashlib
import numbers
from dataclasses import fields

from .acmtf import AcmtfHyperParams
from .experiments import ExperimentConfig
from .kernels import CoupledKernelSpec, KernelSpec


class ConfigError(ValueError):
    """Invalid configuration content."""


def _parse_kv_lines(text: str):
    """Yield (section, key, raw value, line number) tuples."""
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value' (line {lineno}): {line!r}")
        key, value = line.split("=", 1)
        yield section, key.strip().lower(), value.strip(), lineno


def _bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(value)


def _bandwidth(value: str) -> float | None:
    return None if value.lower() == "median" else float(value)


def _list_of(kind):
    return lambda value: tuple(kind(p.strip()) for p in value.split(",") if p.strip())


def _fmt(value) -> str:
    """Text form of one setting value; ``None`` is the median bandwidth."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (str, numbers.Integral)):
        return str(value)
    if isinstance(value, tuple):
        return ", ".join(_fmt(v) for v in value)
    if value is None:
        return "median"
    return repr(value)


def _convert(parse, value: str, key: str, lineno: int):
    try:
        return parse(value)
    except ValueError:
        raise ConfigError(
            f"invalid value for {key!r} (line {lineno}): {value!r}"
        ) from None


_WEIGHT_KEYS = ("w1", "w2", "w3")

# (section, key, ExperimentConfig field, parser) in written order.  A field
# "acmtf.<name>" is that AcmtfHyperParams field, "kernel_weights.<i>" one weight.
_SCHEMA = (
    ("experiment", "case", "case", int),
    ("experiment", "dataset", "dataset", str),
    ("experiment", "n_per_class", "n_per_class", int),
    ("experiment", "test_fraction", "test_fraction", float),
    ("experiment", "repetitions", "repetitions", int),
    ("experiment", "seed", "seed", int),
    ("experiment", "methods", "methods", _list_of(str)),
    ("experiment", "tolerate_failures", "tolerate_failures", _bool),
    ("experiment", "threads", "threads", int),
    *(("acmtf", f.name, f"acmtf.{f.name}", type(f.default))
      for f in fields(AcmtfHyperParams)),
    ("acmtf", "prune_rel", "prune_rel", float),
    *(("kernel", f.name, f"kernel_{f.name}",
       _bandwidth if f.name == "bandwidth" else type(f.default))
      for f in fields(KernelSpec)),
    *(("kernel", key, f"kernel_weights.{i}", float) for i, key in enumerate(_WEIGHT_KEYS)),
    ("kernel", "tune_weights", "tune_weights", _bool),
    ("stm", "lambda_grid", "lambda_grid", _list_of(float)),
    ("stm", "cv_folds", "cv_folds", int),
)
_ROWS = {(section, key): (field, parse) for section, key, field, parse in _SCHEMA}


def _get(cfg: ExperimentConfig, field: str):
    name, _, part = field.partition(".")
    value = getattr(cfg, name)
    if not part:
        return value
    return value[int(part)] if part.isdigit() else getattr(value, part)


def parse_config(text: str) -> ExperimentConfig:
    """Build a validated :class:`ExperimentConfig` from config text."""
    cfg_kwargs: dict = {}
    acmtf_kwargs: dict = {}
    weights = list(ExperimentConfig.__dataclass_fields__["kernel_weights"].default)
    for section, key, value, lineno in _parse_kv_lines(text):
        section = section or "experiment"
        if (section, key) not in _ROWS:
            if section not in {s for s, *_ in _SCHEMA}:
                raise ConfigError(f"unknown section {section!r} (line {lineno})")
            name = key if section == "experiment" else f"{section}.{key}"
            raise ConfigError(f"unknown key {name!r} (line {lineno})")
        field, parse = _ROWS[section, key]
        name, _, part = field.partition(".")
        v = _convert(parse, value, key, lineno)
        if name == "acmtf":
            acmtf_kwargs[part] = v
        elif part:
            weights[int(part)] = v
        else:
            cfg_kwargs[name] = v
    cfg_kwargs["kernel_weights"] = tuple(weights)
    try:
        if acmtf_kwargs:
            cfg_kwargs["acmtf"] = AcmtfHyperParams(**acmtf_kwargs)
        return ExperimentConfig(**cfg_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_config_file(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def serialize_config(cfg: ExperimentConfig) -> str:
    """Config text that round-trips through :func:`parse_config` exactly."""
    lines, section = [], None
    for sec, key, field, parse in _SCHEMA:
        if sec != section:
            lines.append(f"\n[{sec}]" if section else f"[{sec}]")
            section = sec
        value = _get(cfg, field)
        if value is not None or parse is _bandwidth:  # an unset case or dataset is left out
            lines.append(f"{key} = {_fmt(value)}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Settings text embedded in model files: one unsectioned line per field
# ---------------------------------------------------------------------------

def _fields_text(cls, obj, prefix: str = "") -> str:
    return "".join(f"{prefix}{f.name} = {_fmt(getattr(obj, f.name))}\n" for f in fields(cls))


def _read_kv(text: str) -> dict[str, tuple[str, int]]:
    return {key: (value, lineno) for _, key, value, lineno in _parse_kv_lines(text)}


def _value(kv: dict, key: str, parse):
    if key not in kv:
        raise ConfigError(f"missing: {key}")
    value, lineno = kv[key]
    return _convert(parse, value, key, lineno)


def _fields_from(cls, kv: dict, prefix: str = ""):
    return cls(**{f.name: _value(kv, prefix + f.name, type(f.default)) for f in fields(cls)})


# The CoupledKernelSpec fields that hold one KernelSpec each, in written order.
_ROLES = tuple(f.name for f in fields(CoupledKernelSpec) if f.name != "weights")


def serialize_coupled_spec(spec: CoupledKernelSpec) -> str:
    kernels = "".join(_fields_text(KernelSpec, getattr(spec, r), f"{r}.") for r in _ROLES)
    return kernels + "".join(f"{k} = {_fmt(w)}\n" for k, w in zip(_WEIGHT_KEYS, spec.weights))


def parse_coupled_spec(text: str) -> CoupledKernelSpec:
    kv = _read_kv(text)
    return CoupledKernelSpec(
        *(_fields_from(KernelSpec, kv, f"{r}.") for r in _ROLES),
        weights=tuple(_value(kv, key, float) for key in _WEIGHT_KEYS),
    )


def serialize_acmtf_params(h: AcmtfHyperParams) -> str:
    return _fields_text(AcmtfHyperParams, h)


def parse_acmtf_params(text: str) -> AcmtfHyperParams:
    return _fields_from(AcmtfHyperParams, _read_kv(text))
