"""Run configuration: defaults, INI config files, CLI overrides.

The file format is flat key=value INI with sections [data], [train],
[augment], [map3]. Unknown sections or keys are rejected. The effective
config has a canonical text form whose hash is stamped into every report.
Every field is declared once, in RunConfig, each INI field with its section
and token parser; _FIELDS lists them in echo order for the echoes, the file
reader, the known-key check and the CLI flags. DEFAULT_THREE_CLASS_MAP is the
default [map3] section, the 7 -> 3 class mapping.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
from dataclasses import dataclass, field, fields

from .augment import AugmentPolicy
from .dataset import EacClass, ThreeClass, class_names, default_patch_hw


class ConfigError(ValueError):
    pass


def _parse_floats(text: str) -> tuple[float, ...]:
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


def _ini(section: str, parse, default):
    """A field read from [section] of an INI file through parse(token)."""
    return field(default=default, metadata={"section": section, "parse": parse})


_MAP3_VALUES = {**{c.name.lower(): c for c in ThreeClass}, "excluded": None}

# 7 -> 3 class mapping; None drops the class in 3-class mode. The lateral
# auditory cues map to left/right and the defocused class to center; the
# mapping is configuration, not ground truth.
DEFAULT_THREE_CLASS_MAP: dict[EacClass, ThreeClass | None] = {
    EacClass.VD: ThreeClass.CENTER,
    EacClass.VR: None,
    EacClass.VC: None,
    EacClass.AR: ThreeClass.LEFT,
    EacClass.AC: ThreeClass.RIGHT,
    EacClass.ID: None,
    EacClass.K: None,
}


@dataclass
class RunConfig:
    # INI fields in echo order; map3 has its own [map3] section
    manifest: str | None = _ini("data", _parse_manifest, None)
    # plain str: the echo writes the resolved root, where "" means the cwd
    image_root: str | None = _ini("data", str, None)
    mode: str = _ini("data", str, "ert")
    classes: int = _ini("data", int, 7)
    subject_split: bool = _ini("data", _parse_bool, False)
    lr: float = _ini("train", float, 0.01)
    batch_size: int = _ini("train", int, 32)
    epochs: int = _ini("train", int, 200)
    seed: int = _ini("train", int, 0)
    model_dir: str = _ini("train", str, "models")
    report_dir: str = _ini("train", str, "reports")
    rotations: tuple[float, ...] = _ini("augment", _parse_floats, AugmentPolicy.rotation_degrees)
    sigmas: tuple[float, ...] = _ini("augment", _parse_floats, AugmentPolicy.blur_sigmas)
    scales: tuple[float, ...] = _ini("augment", _parse_floats, AugmentPolicy.scale_factors)
    map3: dict = field(default_factory=lambda: dict(DEFAULT_THREE_CLASS_MAP))

    @property
    def patch_hw(self) -> tuple[int, int]:
        return default_patch_hw(self.mode)

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
        try:
            self.patch_hw  # an unknown mode fails here
            class_names(self.classes)
            self.policy
        except ValueError as exc:
            raise ConfigError(str(exc))
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError(f"lr must be a finite number >= 0, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if "" in (self.model_dir, self.report_dir):
            raise ConfigError(
                "model_dir and report_dir must not be empty; use . for the working directory")
        missing = [c.name for c in EacClass if c not in self.map3]
        if missing:
            raise ConfigError(f"[map3] missing entries: {', '.join(missing)}")

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


# (INI section, field name, parser of the INI token), in echo order
_FIELDS = tuple((f.metadata["section"], f.name, f.metadata["parse"])
                for f in fields(RunConfig) if f.metadata)


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
        # no section name is the default one: [DEFAULT] is an unknown section
        parser = configparser.ConfigParser(interpolation=None, default_section="")
        with open(path, encoding="utf-8") as f:
            try:
                parser.read_file(f)
            except (configparser.Error, UnicodeDecodeError) as exc:
                # configparser quotes the offending text on further lines
                raise ConfigError(f"{path}: " + " ".join(map(str.strip, str(exc).splitlines())))
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
