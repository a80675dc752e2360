"""Flat key-value configuration: parsing, validation, defaults.

Format: `[section]` headers with `key = value` lines; `#` or `;` start a
comment.  Sections mirror the module layout (constants, environment,
sequence, detector, noise, fringes, run).  Unknown sections or keys are
hard errors with file:line diagnostics so a typo in a physics constant
cannot pass silently.  Units: SI seconds/Hz/volts, field in gauss,
phases in radians, angles in degrees only at the rate-table boundary.

If tau_wp is not set explicitly it defaults to 1.428 ms snapped to the
nearest fringe zero crossing of the configured operating mode, which is
where the working-point protocol is linear and maximally sensitive.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from .analysis import snap_to_cos_null
from .detector import DetectorConfig, NoiseHooks
from .errors import ConfigError
from .sequence import DEFAULT_PHASE_TABLE, SequenceConfig
from .spin import (
    FieldEnvironment,
    PhysicalConstants,
    RotatingFrame,
    dq_splitting,
)


@dataclass(frozen=True)
class FringeScanConfig:
    """Grid of the fringe-sweep command."""

    tau_min: float = 1e-6
    tau_max: float = 5e-3
    points: int = 5000

    def __post_init__(self):
        if self.tau_min < 0 or self.tau_max <= self.tau_min:
            raise ConfigError("fringes grid requires 0 <= tau_min < tau_max")
        if self.points < 8:
            raise ConfigError("fringes grid needs at least 8 points")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs: physics constants, environment, sequence
    (with detector and noise hooks), fringe grid, and the RNG seed."""

    constants: PhysicalConstants = field(default_factory=PhysicalConstants)
    environment: FieldEnvironment = field(default_factory=FieldEnvironment)
    sequence: SequenceConfig = field(default_factory=SequenceConfig)
    fringes: FringeScanConfig = field(default_factory=FringeScanConfig)
    seed: int = 0

    def replace(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)

    @property
    def nominal_environment(self) -> FieldEnvironment:
        """Configured bias field with drifts and rotation zeroed."""
        return FieldEnvironment(B=self.environment.B)

    def fringe_frequency(self) -> float:
        """DQ fringe frequency of the configured mode at nu = 0."""
        f_dq = dq_splitting(self.environment.B, self.constants)
        return f_dq - self.sequence.effective_frame.dq_reference

    def to_mapping(self) -> dict:
        seq = self.sequence
        frame = seq.effective_frame
        det = seq.detector
        return {
            "constants": {
                "gamma_e": self.constants.gamma_e,
                "gamma_n": self.constants.gamma_n,
                "D": self.constants.D,
                "A_perp": self.constants.A_perp,
                "Q": self.constants.Q,
                "q_e": self.constants.q_e,
            },
            "environment": {
                "B": self.environment.B,
                "nu": self.environment.nu,
                "delta_Q": self.environment.delta_Q,
                "delta_B": self.environment.delta_B,
            },
            "sequence": {
                "tau": seq.tau,
                "tau_wp": seq.tau_wp,
                "pump_duration": seq.pump_duration,
                "readout_window": seq.readout_window,
                "cycle_period": seq.cycle_period,
                "pump_fidelity": seq.pump_fidelity,
                "rf_gradient": [list(p) for p in seq.rf_gradient],
                "phase_table": [list(p) for p in seq.phase_table],
                "t2_dq": seq.t2_dq,
                "t2_sq": seq.t2_sq,
                "f1_ref": frame.f1,
                "f2_ref": frame.f2,
            },
            "detector": {
                "V0": det.V0,
                "G": det.G,
                "contrast": det.contrast,
                "t_R": det.t_R,
                "balanced": det.balanced,
                "T2star": det.T2star,
                "t_meas": det.t_meas,
            },
            "noise": {
                "white_sigma": seq.noise.white_sigma,
                "random_walk_sigma": seq.noise.random_walk_sigma,
            },
            "fringes": {
                "tau_min": self.fringes.tau_min,
                "tau_max": self.fringes.tau_max,
                "points": self.fringes.points,
            },
            "run": {"seed": self.seed},
        }


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
        # inline comments use '#' only: ';' separates list entries in values
        value = value.split("#")[0].strip()
        if not key:
            raise ConfigError(f"{origin}:{lineno}: empty key")
        bucket = sections.setdefault(current, {})
        if key in bucket:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        bucket[key] = (value, lineno)
    return sections


def _as_float(origin, lineno, key, value) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{origin}:{lineno}: key {key!r}: {value!r} is not a number") from None


def _as_int(origin, lineno, key, value) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{origin}:{lineno}: key {key!r}: {value!r} is not an integer") from None


def _as_bool(origin, lineno, key, value) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{origin}:{lineno}: key {key!r}: {value!r} is not a boolean")


def _as_pairs(origin, lineno, key, value) -> tuple[tuple[float, float], ...]:
    """'a:b, a:b' or 'a,b; a,b' lists of float pairs."""
    sep, inner = (";", ",") if ";" in value else (",", ":")
    pairs = []
    for chunk in value.split(sep):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(inner)]
        if len(parts) != 2:
            raise ConfigError(f"{origin}:{lineno}: key {key!r}: {chunk!r} is not a pair")
        pairs.append((_as_float(origin, lineno, key, parts[0]),
                      _as_float(origin, lineno, key, parts[1])))
    if not pairs:
        raise ConfigError(f"{origin}:{lineno}: key {key!r}: no pairs given")
    return tuple(pairs)


_CONSTANTS_KEYS = {"gamma_e", "gamma_n", "D", "A_perp", "Q", "q_e"}
_ENVIRONMENT_KEYS = {"B", "nu", "delta_Q", "delta_B"}
_SEQUENCE_KEYS = {
    "tau", "tau_wp", "pump_duration", "readout_window", "cycle_period",
    "pump_fidelity", "rf_gradient", "phase_table", "t2_dq", "t2_sq",
    "phase_reference", "dq_detuning", "f1_ref", "f2_ref",
}
_DETECTOR_KEYS = {"V0", "G", "contrast", "t_R", "balanced", "T2star", "t_meas"}
_NOISE_KEYS = {"white_sigma", "random_walk_sigma"}
_FRINGES_KEYS = {"tau_min", "tau_max", "points"}
_RUN_KEYS = {"seed"}

_SECTION_KEYS = {
    "constants": _CONSTANTS_KEYS,
    "environment": _ENVIRONMENT_KEYS,
    "sequence": _SEQUENCE_KEYS,
    "detector": _DETECTOR_KEYS,
    "noise": _NOISE_KEYS,
    "fringes": _FRINGES_KEYS,
    "run": _RUN_KEYS,
}


def _check_known(origin, sections) -> None:
    for section, entries in sections.items():
        if section == "" and entries:
            key, (_, lineno) = next(iter(entries.items()))
            raise ConfigError(
                f"{origin}:{lineno}: key {key!r} appears before any [section]"
            )
        if section and section not in _SECTION_KEYS:
            raise ConfigError(f"{origin}: unknown section [{section}]")
        for key, (_, lineno) in entries.items():
            if key not in _SECTION_KEYS.get(section, set()):
                raise ConfigError(
                    f"{origin}:{lineno}: unknown key {key!r} in section [{section}]"
                )


def _floats(origin, entries, keys) -> dict[str, float]:
    return {
        key: _as_float(origin, lineno, key, value)
        for key, (value, lineno) in entries.items()
        if key in keys
    }


def build_config(sections, origin: str = "<config>") -> ExperimentConfig:
    """Assemble an ExperimentConfig from parsed sections (strings)."""
    _check_known(origin, sections)

    constants = PhysicalConstants(**_floats(origin, sections.get("constants", {}),
                                            _CONSTANTS_KEYS))
    environment = FieldEnvironment(**_floats(origin, sections.get("environment", {}),
                                             _ENVIRONMENT_KEYS))

    det_entries = dict(sections.get("detector", {}))
    det_kwargs: dict = {}
    if "balanced" in det_entries:
        value, lineno = det_entries.pop("balanced")
        det_kwargs["balanced"] = _as_bool(origin, lineno, "balanced", value)
    det_kwargs.update(_floats(origin, det_entries, _DETECTOR_KEYS))
    detector = DetectorConfig(**det_kwargs)

    noise = NoiseHooks(**_floats(origin, sections.get("noise", {}), _NOISE_KEYS))

    seq_entries = dict(sections.get("sequence", {}))
    seq_kwargs: dict = {"detector": detector, "noise": noise}
    for key in ("tau", "tau_wp", "pump_duration", "readout_window",
                "cycle_period", "pump_fidelity", "t2_dq", "t2_sq"):
        if key in seq_entries:
            value, lineno = seq_entries.pop(key)
            seq_kwargs[key] = _as_float(origin, lineno, key, value)
    if "rf_gradient" in seq_entries:
        value, lineno = seq_entries.pop("rf_gradient")
        seq_kwargs["rf_gradient"] = _as_pairs(origin, lineno, "rf_gradient", value)
    if "phase_table" in seq_entries:
        value, lineno = seq_entries.pop("phase_table")
        seq_kwargs["phase_table"] = _as_pairs(origin, lineno, "phase_table", value)

    # Phase reference: reset (default), resonant, or explicit tone references.
    mode = "reset"
    if "phase_reference" in seq_entries:
        value, lineno = seq_entries.pop("phase_reference")
        mode = value.lower()
        if mode not in ("reset", "resonant"):
            raise ConfigError(
                f"{origin}:{lineno}: phase_reference must be 'reset' or 'resonant'"
            )
    dq_detuning = 0.0
    if "dq_detuning" in seq_entries:
        value, lineno = seq_entries.pop("dq_detuning")
        dq_detuning = _as_float(origin, lineno, "dq_detuning", value)
    explicit_refs = {}
    for key in ("f1_ref", "f2_ref"):
        if key in seq_entries:
            value, lineno = seq_entries.pop(key)
            explicit_refs[key] = _as_float(origin, lineno, key, value)
    if explicit_refs:
        if set(explicit_refs) != {"f1_ref", "f2_ref"}:
            raise ConfigError(f"{origin}: f1_ref and f2_ref must be given together")
        frame = RotatingFrame(f1=explicit_refs["f1_ref"], f2=explicit_refs["f2_ref"])
    elif mode == "resonant":
        nominal = FieldEnvironment(B=environment.B)
        frame = RotatingFrame.dq_detuned(nominal, constants, dq_detuning)
    else:
        if dq_detuning:
            raise ConfigError(
                f"{origin}: dq_detuning requires phase_reference = resonant"
            )
        frame = None
    seq_kwargs["frame"] = frame

    explicit_tau_wp = "tau_wp" in seq_kwargs
    sequence = SequenceConfig(**seq_kwargs)
    if not explicit_tau_wp:
        f_dq = dq_splitting(environment.B, constants)
        f_fringe = f_dq - sequence.effective_frame.dq_reference
        if f_fringe > 100.0:
            sequence = sequence.replace(tau_wp=snap_to_cos_null(sequence.tau_wp, f_fringe))

    fringe_entries = dict(sections.get("fringes", {}))
    fringe_kwargs: dict = {}
    if "points" in fringe_entries:
        value, lineno = fringe_entries.pop("points")
        fringe_kwargs["points"] = _as_int(origin, lineno, "points", value)
    fringe_kwargs.update(_floats(origin, fringe_entries, _FRINGES_KEYS))
    fringes = FringeScanConfig(**fringe_kwargs)

    seed = 0
    if "seed" in sections.get("run", {}):
        value, lineno = sections["run"]["seed"]
        seed = _as_int(origin, lineno, "seed", value)
        if seed < 0:
            raise ConfigError(f"{origin}:{lineno}: seed must be >= 0")

    return ExperimentConfig(constants=constants, environment=environment,
                            sequence=sequence, fringes=fringes, seed=seed)


def load_config(path) -> ExperimentConfig:
    """Load and validate an experiment config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return build_config(_parse_kv_text(text, str(path)), origin=str(path))


def default_config() -> ExperimentConfig:
    """All-defaults config (equivalent to an empty config file)."""
    return build_config({}, origin="<defaults>")


def load_constants(path) -> PhysicalConstants:
    """Constants profile: bare `key = value` lines or a [constants] section."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read constants profile {path}: {exc}") from None
    sections = _parse_kv_text(text, str(path))
    entries = sections.get("constants", sections.get("", {}))
    extra = set(sections) - {"", "constants"}
    if extra:
        raise ConfigError(f"{path}: unexpected sections {sorted(extra)}")
    for key, (_, lineno) in entries.items():
        if key not in _CONSTANTS_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown constant {key!r}")
    return PhysicalConstants(**_floats(str(path), entries, _CONSTANTS_KEYS))
