"""Flat key-value configuration: parsing, validation, defaults.

Format: `[section]` headers with `key = value` lines; `#` or `;` start a
comment.  Sections mirror the module layout (constants, environment,
sequence, detector, noise, fringes, run).  Unknown sections or keys are
hard errors with file:line diagnostics so a typo in a physics constant
cannot pass silently.  Units: SI seconds/Hz/volts, field in gauss,
phases in radians, angles in degrees only at the rate-table boundary.

The [sequence] keys that set the rotating frame's numbers choose it
(_frame): none for the phase-reset frame, a nonzero dq_detuning for the
resonant frame, or f1_ref with f2_ref.  If tau_wp is not set explicitly
it is the fringe zero crossing nearest 1.428 ms that the cycle holds
(analysis.snap_to_cos_null), where the working-point protocol is
linear and maximally sensitive.  The
fringe is the kernel's DQ rate at nu = 0, spin.dq_rate: f_DQ at
B + delta_B less the frame's DQ reference, of either sign
(ExperimentConfig.fringe_frequency).  That fringe is evaluated for every
config, so constants that overflow the level model fail as it loads;
so do carriers whose kernel phase overflows over one cycle_period, the
longest delay a cycle allows.
A value check raises ValueError, which errors.input_error reports
against the file:line and key or the file and [section].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .analysis import snap_to_cos_null
from .detector import DetectorConfig, NoiseHooks
from .errors import ConfigError, input_error
from .io import _read_text
from .sequence import SequenceConfig
from .spin import (
    ABSOLUTE_FRAME,
    FieldEnvironment,
    PhysicalConstants,
    RotatingFrame,
    coherence_factors,
    dq_rate,
    transition_frequencies,
)


@dataclass(frozen=True)
class FringeScanConfig:
    """Grid of the fringe-sweep command."""

    tau_min: float = 1e-6
    tau_max: float = 5e-3
    points: int = 5000

    def __post_init__(self):
        if not 0.0 <= self.tau_min < self.tau_max < math.inf:
            raise ValueError("fringes grid requires 0 <= tau_min < tau_max < inf")
        if self.points < 8:
            raise ValueError("fringes grid needs at least 8 points")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs: physics constants, environment, sequence
    (with detector and noise hooks), fringe grid, and the RNG seed."""

    constants: PhysicalConstants = field(default_factory=PhysicalConstants)
    environment: FieldEnvironment = field(default_factory=FieldEnvironment)
    sequence: SequenceConfig = field(default_factory=SequenceConfig)
    fringes: FringeScanConfig = field(default_factory=FringeScanConfig)
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def replace(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)

    def fringe_frequency(self) -> float:
        """DQ fringe frequency of the configured frame at nu = 0 (spin.dq_rate)."""
        return dq_rate(self.environment.replace(nu=0.0), self.constants,
                       self.sequence.frame)

    def to_mapping(self) -> dict:
        """Snapshot of every settable key, by section (the manifest config)."""
        seq = self.sequence
        objects = {"constants": self.constants, "environment": self.environment,
                   "sequence": seq, "detector": seq.detector, "noise": seq.noise,
                   "fringes": self.fringes, "run": self}
        out = {section: {key: getattr(obj, key) for key in SCHEMA[section]}
               for section, obj in objects.items()}
        out["sequence"].update(f1_ref=seq.frame.f1, f2_ref=seq.frame.f2)
        return out


# --------------------------------------------------------------------------
# Text parsing
# --------------------------------------------------------------------------

def _parse_kv_text(text: str, origin: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigError(f"{origin}:{lineno}: malformed section header {raw!r}")
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split("#")[0].strip()
        if not key:
            raise ConfigError(f"{origin}:{lineno}: empty key")
        bucket = sections.setdefault(current, {})
        if key in bucket:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        bucket[key] = (value, lineno)
    return sections


def _as_float(value) -> float:
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if math.isnan(number):
        raise ValueError(f"{value!r} is not a number")
    return number


def _as_int(value) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{value!r} is not an integer") from None


def _as_bool(value) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"{value!r} is not a boolean")


def _as_pairs(value) -> tuple[tuple[float, float], ...]:
    """'a:b, a:b' lists of float pairs."""
    if ";" in value:
        raise ValueError(f"{value!r}: write pairs as 'a:b, a:b', not 'a,b; a,b'")
    pairs = []
    for chunk in value.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(":")]
        if len(parts) != 2:
            raise ValueError(f"{chunk!r} is not a pair")
        pairs.append((_as_float(parts[0]), _as_float(parts[1])))
    if not pairs:
        raise ValueError("no pairs given")
    return tuple(pairs)


#: Section name -> the dataclass whose fields are its keys.
_SECTION_TYPES = {
    "constants": PhysicalConstants,
    "environment": FieldEnvironment,
    "sequence": SequenceConfig,
    "detector": DetectorConfig,
    "noise": NoiseHooks,
    "fringes": FringeScanConfig,
    "run": ExperimentConfig,
}

# Fields that hold another section, or (frame) are set by the frame keys.
_NESTED = {"frame", "detector", "noise", *_SECTION_TYPES}

# Value parser for each field annotation.
_PARSERS = {
    "float": _as_float,
    "float | None": _as_float,
    "int": _as_int,
    "bool": _as_bool,
    "tuple[tuple[float, float], ...]": _as_pairs,
}

#: Section -> {key: value parser}, derived from the dataclass fields.
SCHEMA = {
    section: {f.name: _PARSERS[f.type] for f in fields(cls) if f.name not in _NESTED}
    for section, cls in _SECTION_TYPES.items()
}

# Sequence keys that set the rotating frame's numbers instead of a field.
_MODE_KEYS = {"dq_detuning", "f1_ref", "f2_ref"}

# Keys that no longer exist, with what replaces them.
_REMOVED = {
    ("constants", "q_e"): "the elementary charge is a fixed SI constant",
    ("sequence", "tau"): "use tau_wp",
    ("sequence", "readout_window"): "the readout window is t_R in [detector]",
    ("sequence", "phase_reference"): "a nonzero dq_detuning selects the resonant "
                                     "frame; without it the frame is the phase reset",
    ("detector", "T2star"): "the coherence time is t2_dq in [sequence]",
    ("detector", "t_meas"): "the measurement time is [sequence] cycle_period / 4 "
                             "(the paper's 1.92 ms is cycle_period = 7.68e-3)",
}


def accepted_keys(section: str) -> set[str]:
    """Keys a config file may set in [section]."""
    return set(SCHEMA[section]) | (_MODE_KEYS if section == "sequence" else set())


def _check_known(origin, sections) -> None:
    for section, entries in sections.items():
        if section == "" and entries:
            key, (_, lineno) = next(iter(entries.items()))
            raise ConfigError(
                f"{origin}:{lineno}: key {key!r} appears before any [section]"
            )
        if section and section not in SCHEMA:
            raise ConfigError(f"{origin}: unknown section [{section}]")
        for key, (_, lineno) in entries.items():
            if (section, key) in _REMOVED:
                raise ConfigError(f"{origin}:{lineno}: key {key!r} in [{section}] was "
                                  f"removed: {_REMOVED[section, key]}")
            if key not in accepted_keys(section):
                raise ConfigError(f"{origin}:{lineno}: unknown key {key!r} in "
                                  f"section [{section}]")


def _parse(origin, parsers, entries) -> dict:
    """Typed values of the entries whose keys parsers maps to a parser; a
    parser's ValueError is reported against the entry's file:line and key."""
    out = {}
    for key, (text, lineno) in entries.items():
        if key in parsers:
            with input_error(f"{origin}:{lineno}: key {key!r}: "):
                out[key] = parsers[key](text)
    return out


def _build(origin, section, kwargs):
    """Construct the [section] dataclass; its range checks become ConfigError."""
    with input_error(f"{origin}: [{section}]: "):
        return _SECTION_TYPES[section](**kwargs)


def _frame(origin, entries, environment, constants) -> RotatingFrame:
    """Rotating frame of the [sequence] keys that set its numbers: none
    gives the phase-reset frame (ABSOLUTE_FRAME), a nonzero dq_detuning
    the resonant frame whose DQ fringe turns at that detuning, and f1_ref
    with f2_ref explicit tone references, which exclude dq_detuning."""
    numbers = _parse(origin, dict.fromkeys(_MODE_KEYS, _as_float), entries)
    for key, value in numbers.items():
        if not math.isfinite(value):
            raise ConfigError(f"{origin}:{entries[key][1]}: key {key!r} must be finite")
    detuning = numbers.get("dq_detuning")
    refs = [numbers.get("f1_ref"), numbers.get("f2_ref")]
    if refs != [None, None]:
        if None in refs:
            raise ConfigError(f"{origin}: f1_ref and f2_ref must be given together")
        if detuning is not None:
            raise ConfigError(f"{origin}: f1_ref and f2_ref set the frame: they cannot "
                              f"be combined with dq_detuning")
        return RotatingFrame(*refs)
    if detuning is None:
        return ABSOLUTE_FRAME
    if not detuning:
        raise ConfigError(f"{origin}:{entries['dq_detuning'][1]}: key 'dq_detuning' must "
                          f"be nonzero: at 0 Hz the resonant frame follows the DQ line and "
                          f"leaves no fringe; omit the key for the phase-reset frame")
    return RotatingFrame.dq_detuned(FieldEnvironment(B=environment.B), constants, detuning)


def no_null_in_cycle(origin: str, f_fringe: float, sequence: SequenceConfig):
    """input_error context of snap_to_cos_null up to sequence.tau_wp_max."""
    return input_error(f"{origin}: [sequence]: the fringe at {f_fringe:g} Hz has no null "
                       f"inside the cycle: with cycle_period = {sequence.cycle_period:g} s "
                       f"and pump_duration = {sequence.pump_duration:g} s, ")


def build_config(sections, origin: str = "<config>") -> ExperimentConfig:
    """Assemble an ExperimentConfig from parsed sections (strings)."""
    _check_known(origin, sections)
    kw = {section: _parse(origin, SCHEMA[section], sections.get(section, {}))
          for section in SCHEMA}

    constants = _build(origin, "constants", kw["constants"])
    environment = _build(origin, "environment", kw["environment"])
    with input_error(f"{origin}: [environment]: "):
        if (total := environment.B + environment.delta_B) < 0.0:
            raise ValueError(f"B + delta_B = {total:g} G must be >= 0")
    seq_kw = kw["sequence"]
    # The level model of [constants] at the configured field, for every config.
    with input_error(f"{origin}: [constants]: "):
        frame = _frame(origin, sections.get("sequence", {}), environment, constants)
        f_fringe = abs(dq_rate(environment.replace(nu=0.0), constants, frame))
    sequence = _build(origin, "sequence", {
        "tau_wp": 0.0, **seq_kw, "frame": frame,
        "detector": _build(origin, "detector", kw["detector"]),
        "noise": _build(origin, "noise", kw["noise"]),
    })
    if "tau_wp" not in seq_kw:
        with no_null_in_cycle(origin, f_fringe, sequence):
            tau_wp = snap_to_cos_null(SequenceConfig.tau_wp, f_fringe, sequence.tau_wp_max)
        with input_error(f"{origin}: [sequence]: "):
            sequence = replace(sequence, tau_wp=tau_wp)
    # The kernel's phases (-2j pi rate) tau at tau = cycle_period: a carrier
    # near the float limit overflows them.
    with input_error(f"{origin}: [constants]: "), \
            np.errstate(over="ignore", invalid="ignore"):
        z = coherence_factors(sequence.cycle_period, environment.replace(nu=0.0), constants,
                              frame, sequence.t2_dq, sequence.effective_t2_sq)
        if not np.all(np.isfinite(z)):
            f1, f2 = transition_frequencies(environment, constants)
            raise ValueError(f"the carriers f1 = {f1:g} Hz and f2 = {f2:g} Hz overflow "
                             f"the phase of a {sequence.cycle_period:g} s cycle")

    return _build(origin, "run", {
        **kw["run"], "constants": constants, "environment": environment,
        "sequence": sequence, "fringes": _build(origin, "fringes", kw["fringes"]),
    })


def load_config(path) -> ExperimentConfig:
    """Load and validate an experiment config file."""
    path = Path(path)
    text = _read_text(path, "config")
    return build_config(_parse_kv_text(text, str(path)), origin=str(path))


def default_config() -> ExperimentConfig:
    """All-defaults config (equivalent to an empty config file)."""
    return build_config({}, origin="<defaults>")

