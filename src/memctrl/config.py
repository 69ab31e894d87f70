"""Plain-text key = value configuration.

One flat namespace covering the plant, friction, reference, controller
box and shield; '#' starts a comment.  Unknown keys and a key given
twice are rejected so typos fail loudly, and every value must be a
finite number.  Each key is a field of PlantParams, FrictionParams,
ReferenceSpec (amp1 ... horizon), ParamBox or Config itself, set by
dataclasses.replace and checked by its block's validate.  Example:

    # plant
    m1 = 3.5
    l1 = 1.0
    tau_z = 2.0
    kd_max = 60
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .controller import DIM_ETA, ControllerParams, ParamBox
from .dynamics import FrictionParams, PlantParams, ReferenceSpec


@dataclass
class Config:
    plant: PlantParams
    friction: FrictionParams
    reference: ReferenceSpec
    box: ParamBox
    dt: float = 0.01
    alpha: float = 0.5
    baseline_kd: float = 30.0   # published fixed-gain baseline
    baseline_lam: float = 5.0

    def baseline_gains(self) -> ControllerParams:
        """The fixed-gain baseline: K_d = baseline_kd and Lam = baseline_lam
        on both joints, eta = 0.  The only producer of baseline gains."""
        return ControllerParams(kd=np.full(2, self.baseline_kd),
                                lam=np.full(2, self.baseline_lam),
                                eta=np.zeros(DIM_ETA))

    def validate(self) -> None:
        self.plant.validate()
        self.friction.validate()
        self.reference.validate()
        self.box.validate()
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not self.alpha >= 0.0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        for key in ("baseline_kd", "baseline_lam"):
            val = getattr(self, key)
            if not 0.0 < val < float("inf"):
                raise ValueError(f"{key} must be finite and positive, got {val}")


def _field_names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


_PLANT_KEYS = _field_names(PlantParams)
_FRICTION_KEYS = _field_names(FrictionParams)
_REF_KEYS = _field_names(ReferenceSpec)
_BOX_KEYS = _field_names(ParamBox)
_MISC_KEYS = _field_names(Config) - {"plant", "friction", "reference", "box"}


def default_config() -> Config:
    return Config(plant=PlantParams(), friction=FrictionParams(),
                  reference=ReferenceSpec(), box=ParamBox())


def parse_key_values(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in first_line:
            raise ValueError(f"line {lineno}: {key} given twice, first on "
                             f"line {first_line[key]}")
        first_line[key] = lineno
        try:
            value = float(val.strip())
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}") from exc
        # no setting takes inf or nan, and inf passes every later `> 0` check
        if not np.isfinite(value):
            raise ValueError(f"line {lineno}: {key} must be finite, got {value}")
        out[key] = value
    return out


def load_config(path=None) -> Config:
    cfg = default_config()
    if path is None:
        return cfg
    with open(path) as fh:
        kv = parse_key_values(fh.read())
    known = _PLANT_KEYS | _FRICTION_KEYS | _REF_KEYS | _BOX_KEYS | _MISC_KEYS
    unknown = set(kv) - known
    if unknown:
        raise ValueError(f"unknown configuration keys: {sorted(unknown)}")

    def given(keys):
        return {k: kv[k] for k in keys if k in kv}

    out = replace(cfg, plant=replace(cfg.plant, **given(_PLANT_KEYS)),
                  friction=replace(cfg.friction, **given(_FRICTION_KEYS)),
                  reference=replace(cfg.reference, **given(_REF_KEYS)),
                  box=replace(cfg.box, **given(_BOX_KEYS)),
                  **given(_MISC_KEYS))
    out.validate()
    return out
