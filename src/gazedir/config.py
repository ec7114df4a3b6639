"""Run configuration: defaults, INI config files, CLI overrides.

The file format is flat key=value INI with sections [data], [train],
[augment], [map3]. Unknown sections or keys are rejected. The effective
config has a canonical text form whose hash is stamped into every report.
Every field is named once, in _FIELDS: the INI and JSON echoes, the file
reader and the known-key check all walk that table.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
from dataclasses import dataclass, field, fields

from .augment import AugmentPolicy
from .dataset import DEFAULT_THREE_CLASS_MAP, EacClass, ThreeClass, default_patch_hw


class ConfigError(ValueError):
    pass


def _parse_float_list(text: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(float(tok) for tok in text.split(","))


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_manifest(text: str) -> str | None:
    return text or None  # the empty token is an unset manifest


# (INI section, field name, parser of the INI token), in echo order
_FIELDS = (
    ("data", "manifest", _parse_manifest),
    # plain str: the echo writes the resolved root, where "" means the cwd
    ("data", "image_root", str),
    ("data", "mode", str),
    ("data", "classes", int),
    ("data", "patch_h", int),
    ("data", "patch_w", int),
    ("data", "subject_split", _parse_bool),
    ("train", "lr", float),
    ("train", "batch_size", int),
    ("train", "epochs", int),
    ("train", "seed", int),
    ("train", "model_dir", str),
    ("train", "report_dir", str),
    ("augment", "rotations", _parse_float_list),
    ("augment", "sigmas", _parse_float_list),
    ("augment", "scales", _parse_float_list),
)

_MAP3_VALUES = {**{c.name.lower(): c for c in ThreeClass}, "excluded": None}


@dataclass
class RunConfig:
    mode: str = "ert"
    classes: int = 7
    patch_h: int | None = None  # None -> mode default
    patch_w: int | None = None
    lr: float = 0.01
    batch_size: int = 32
    epochs: int = 200
    seed: int = 0
    rotations: tuple[float, ...] = (5.0, -5.0, 10.0, -10.0)
    sigmas: tuple[float, ...] = (0.5, 1.0)
    scales: tuple[float, ...] = (0.9, 1.1)
    map3: dict = field(default_factory=lambda: dict(DEFAULT_THREE_CLASS_MAP))
    subject_split: bool = False
    manifest: str | None = None
    image_root: str | None = None
    model_dir: str = "models"
    report_dir: str = "reports"

    @property
    def patch_hw(self) -> tuple[int, int]:
        dh, dw = default_patch_hw(self.mode)
        return (dh if self.patch_h is None else self.patch_h,
                dw if self.patch_w is None else self.patch_w)

    @property
    def policy(self) -> AugmentPolicy:
        return AugmentPolicy(self.rotations, self.sigmas, self.scales)

    def resolved_image_root(self) -> str:
        if self.image_root is not None:
            return self.image_root
        if self.manifest is not None:
            return os.path.dirname(self.manifest)
        return ""

    def validate(self) -> None:
        if self.mode not in ("roi", "ert"):
            raise ConfigError(f"mode must be roi or ert, got {self.mode!r}")
        if self.classes not in (3, 7):
            raise ConfigError(f"classes must be 3 or 7, got {self.classes}")
        h, w = self.patch_hw
        if h < 8 or w < 8:
            raise ConfigError(f"patch {h}x{w} too small; the network needs >= 8x8")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError(f"lr must be a finite number >= 0, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        missing = [c.name for c in EacClass if c not in self.map3]
        if missing:
            raise ConfigError(f"[map3] missing entries: {', '.join(missing)}")
        try:
            self.policy
        except ValueError as exc:
            raise ConfigError(str(exc))

    def to_ini_text(self) -> str:
        """Canonical INI echo of the effective config; feeding it back
        reproduces the run."""
        return "\n".join(
            f"[{section}]\n" + "".join(f"{key} = {token}\n" for key, token in keys.items())
            for section, keys in _ini_sections(self.as_dict()).items()
        )

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_ini_text().encode("utf-8")).hexdigest()[:16]

    def as_dict(self) -> dict:
        """JSON-friendly echo of every effective field."""
        echo = {name: getattr(self, name) for _, name, _ in _FIELDS}
        echo["patch_h"], echo["patch_w"] = self.patch_hw
        echo["image_root"] = self.resolved_image_root()
        echo = {name: list(v) if isinstance(v, tuple) else v for name, v in echo.items()}
        echo["map3"] = {c.name: "excluded" if self.map3[c] is None else self.map3[c].name
                        for c in EacClass}
        return echo

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Inverse of as_dict: rebuilds a config from a report's echo by
        reading it as INI tokens, like a config file."""
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_dict(_ini_sections(data))
        cfg = cls()
        _apply_file(cfg, parser, "config echo")
        cfg.validate()
        return cfg


def _ini_token(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)


def _ini_sections(echo: dict) -> dict[str, dict[str, str]]:
    """INI tokens by section, in echo order, from an as_dict-shaped echo."""
    sections: dict[str, dict[str, str]] = {}
    for section, name, _ in _FIELDS:
        sections.setdefault(section, {})[name] = _ini_token(echo[name])
    sections["map3"] = {name.lower(): token.lower() for name, token in echo["map3"].items()}
    return sections


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then config file values, then CLI overrides; validates all."""
    cfg = RunConfig()
    if path is not None:
        if not os.path.exists(path):
            raise FileNotFoundError(f"config file {path} not found")
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read(path, encoding="utf-8")
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}")
        _apply_file(cfg, parser, path)
    if overrides:
        valid = {f.name for f in fields(RunConfig)}
        for key, value in overrides.items():
            if key not in valid:
                raise ConfigError(f"unknown override {key!r}")
            if value is not None:
                setattr(cfg, key, value)
    cfg.validate()
    return cfg


def _apply_file(cfg: RunConfig, parser: configparser.ConfigParser, source) -> None:
    known = {"map3": {c.name.lower() for c in EacClass}}
    for section, name, _ in _FIELDS:
        known.setdefault(section, set()).add(name)
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"{source}: unknown section [{section}]")
        for key in parser[section]:
            if key not in known[section]:
                raise ConfigError(f"{source}: unknown key {key!r} in [{section}]")
    try:
        for section, name, parse in _FIELDS:
            if parser.has_option(section, name):
                setattr(cfg, name, parse(parser[section][name]))
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}")
    if parser.has_section("map3"):
        map3 = {}
        for key, value in parser["map3"].items():
            token = value.strip().lower()
            if token not in _MAP3_VALUES:
                raise ConfigError(
                    f"{source}: [map3] {key} must be {'|'.join(_MAP3_VALUES)}"
                )
            map3[EacClass[key.upper()]] = _MAP3_VALUES[token]
        cfg.map3 = map3
