"""Plain-text key = value configuration.

One flat namespace covering the plant, friction, reference, controller
box and shield; '#' starts a comment.  Unknown keys are rejected so
typos fail loudly.  Example:

    # plant
    m1 = 3.5
    l1 = 1.0
    tau_z = 2.0
    kd_max = 60
"""

from __future__ import annotations

from dataclasses import dataclass

from .controller import BASELINE_KD, BASELINE_LAM, ParamBox, fixed_gain_baseline
from .dynamics import FrictionParams, PlantParams, ReferenceSpec

_PLANT_KEYS = {"m1", "m2", "l1", "l2", "lc1", "lc2", "i1", "i2", "gravity",
               "payload", "payload_max"}
_FRICTION_KEYS = {"f_c", "f_smax", "v_s", "sigma", "lambda_z", "tau_z"}
_BOX_KEYS = {"kd_min", "kd_max", "lam_min", "lam_max", "eta_max"}
_REF_KEYS = {"amp1", "amp2", "period1", "period2", "phase1", "phase2", "horizon"}
_MISC_KEYS = {"dt", "alpha", "baseline_kd", "baseline_lam"}


@dataclass
class Config:
    plant: PlantParams
    friction: FrictionParams
    reference: ReferenceSpec
    box: ParamBox
    dt: float = 0.01
    alpha: float = 0.5
    baseline_kd: float = BASELINE_KD
    baseline_lam: float = BASELINE_LAM

    def baseline_gains(self):
        return fixed_gain_baseline(self.baseline_kd, self.baseline_lam)

    def validate(self) -> None:
        self.plant.validate()
        self.friction.validate()
        self.reference.validate()
        self.box.validate()
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        for key in ("baseline_kd", "baseline_lam"):
            val = getattr(self, key)
            if not 0.0 < val < float("inf"):
                raise ValueError(f"{key} must be finite and positive, got {val}")


def default_config() -> Config:
    return Config(plant=PlantParams(), friction=FrictionParams(),
                  reference=ReferenceSpec(), box=ParamBox())


def parse_key_values(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        try:
            out[key] = float(val.strip())
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}") from exc
    return out


def load_config(path=None) -> Config:
    cfg = default_config()
    if path is None:
        return cfg
    with open(path) as fh:
        kv = parse_key_values(fh.read())
    known = _PLANT_KEYS | _FRICTION_KEYS | _BOX_KEYS | _REF_KEYS | _MISC_KEYS
    unknown = set(kv) - known
    if unknown:
        raise ValueError(f"unknown configuration keys: {sorted(unknown)}")

    import dataclasses

    plant_kw = {k: kv[k] for k in _PLANT_KEYS if k in kv}
    fric_kw = {k: kv[k] for k in _FRICTION_KEYS if k in kv}
    box_kw = {k: kv[k] for k in _BOX_KEYS if k in kv}
    plant = dataclasses.replace(cfg.plant, **plant_kw)
    fric = dataclasses.replace(cfg.friction, **fric_kw)
    box = dataclasses.replace(cfg.box, **box_kw)

    ref = cfg.reference
    import numpy as np
    amp = (kv.get("amp1", ref.amplitude[0]), kv.get("amp2", ref.amplitude[1]))
    periods = (kv.get("period1", 2 * np.pi / ref.omega[0]),
               kv.get("period2", 2 * np.pi / ref.omega[1]))
    phase = (kv.get("phase1", ref.phase[0]), kv.get("phase2", ref.phase[1]))
    horizon = kv.get("horizon", ref.horizon)
    ref = ReferenceSpec(amplitude=amp,
                        omega=(2 * np.pi / periods[0], 2 * np.pi / periods[1]),
                        phase=phase, horizon=horizon)

    out = Config(plant=plant, friction=fric, reference=ref, box=box,
                 dt=kv.get("dt", cfg.dt), alpha=kv.get("alpha", cfg.alpha),
                 baseline_kd=kv.get("baseline_kd", cfg.baseline_kd),
                 baseline_lam=kv.get("baseline_lam", cfg.baseline_lam))
    out.validate()
    return out
