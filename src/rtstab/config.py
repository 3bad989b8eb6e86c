"""Run-configuration schema: JSON in, validated dataclasses out.

Layout (defaults in parentheses):

    {
      "geometry":  {"b": 1.0, "ell": 1.0, "L1": 1.0, "L2": 1.0},
      "gravity":   1.0,
      "atmosphere": 1.0,
      "fluids": {
        "plus":  {"law": {"kind": "isothermal", "params": [1.0]},
                  "mu": 1.0, "mu_prime": 0.0},
        "minus": {"law": {"kind": "polytropic", "params": [1.0, 2.0]},
                  "mu": 1.0, "mu_prime": 0.0}
      },
      "surface_tension": {"sigma_plus": 0.0, "sigma_minus": 0.0},
      "numerics": { "n_minus" (100), "n_plus" (100), "n_samples" (513),
                    "eig_tol" (1e-10), "root_tol" (1e-10),
                    "s_max_factor" (1.25), "xi_cutoff" (8.0),
                    "dt" (null = 0.01/lambda), "t_final" (null = 6/lambda),
                    "fit_window" (0.5), "zero_epsilon" (1e-12) }
    }

Tabulated laws carry "rho" and "p" arrays instead of "params".  Element and
sample counts must be JSON integers, and every other number must be a finite
JSON number: a boolean or a numeric string is refused with its key named.
Validation failures, an unknown key under "numerics" among them, raise
ConfigError with the violated constraint spelled out.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from .equilibrium import PhysicalParams, PressureLaw
from .errors import ConfigError


@dataclass(frozen=True)
class NumericsConfig:
    """Validated numerics settings; dispersion.growth_rate and sweep_lattice
    take their solver tolerances from it."""

    n_minus: int = 100
    n_plus: int = 100
    n_samples: int = 513
    eig_tol: float = 1e-10
    root_tol: float = 1e-10
    s_max_factor: float = 1.25
    xi_cutoff: float = 8.0
    dt: float | None = None
    t_final: float | None = None
    fit_window: float = 0.5
    zero_epsilon: float = 1e-12

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue  # dt and t_final left to their lambda-based defaults
            if f.name not in ("n_minus", "n_plus", "n_samples"):
                _number(value, f"numerics.{f.name}")
            elif isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"numerics.{f.name} must be an integer, "
                                  f"not {type(value).__name__}")
        # comparisons are written so that NaN fails them
        if self.n_minus < 2 or self.n_plus < 2:
            raise ConfigError("numerics.n_minus and numerics.n_plus must be >= 2")
        if self.n_samples < 8:
            raise ConfigError("numerics.n_samples must be >= 8")
        for name in ("eig_tol", "root_tol", "xi_cutoff", "zero_epsilon"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"numerics.{name} must be finite and > 0")
        if not 1 < self.s_max_factor < math.inf:  # S_max must lie above the growth bound
            raise ConfigError("numerics.s_max_factor must be > 1 and finite")
        if not 0 < self.fit_window <= 1:
            raise ConfigError("numerics.fit_window must lie in (0, 1]")
        for name in ("dt", "t_final"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ConfigError(f"numerics.{name} must be finite and > 0 when given")


@dataclass(frozen=True)
class RunConfig:
    params: PhysicalParams
    law_plus: PressureLaw
    law_minus: PressureLaw
    numerics: NumericsConfig


def _number(value, where: str) -> float:
    """A JSON number as a float; JSON true and false load as Python ints, so
    bool is refused by name, and a string is not parsed."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number (int or float), "
                          f"not {type(value).__name__}")
    return float(value)


def _numbers(values, where: str) -> list[float]:
    return [_number(value, where) for value in values]


def _law_from_dict(d: dict, where: str) -> PressureLaw:
    try:
        kind = d["kind"]
        if kind == "isothermal":
            return PressureLaw.isothermal(*_numbers(d["params"], f"{where}.params"))
        if kind == "polytropic":
            return PressureLaw.polytropic(*_numbers(d["params"], f"{where}.params"))
        if kind == "tabulated":
            return PressureLaw.tabulated(_numbers(d["rho"], f"{where}.rho"),
                                         _numbers(d["p"], f"{where}.p"))
        raise ConfigError(f"{where}.kind must be isothermal, polytropic or tabulated")
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid pressure law at {where}: {exc}") from exc


def parse_config(doc: dict) -> RunConfig:
    st = doc.get("surface_tension", {})
    if not isinstance(st, dict):
        raise ConfigError("surface_tension must be a JSON object")
    try:
        geo = doc["geometry"]
        fluids = doc["fluids"]
        values = {name: _number(geo[name], f"geometry.{name}")
                  for name in ("b", "ell", "L1", "L2")}
        values["g"] = _number(doc["gravity"], "gravity")
        values["p_atm"] = _number(doc["atmosphere"], "atmosphere")
        for side in ("plus", "minus"):
            fluid = fluids[side]
            values[f"mu_{side}"] = _number(fluid["mu"], f"fluids.{side}.mu")
            values[f"mu_prime_{side}"] = _number(fluid.get("mu_prime", 0.0),
                                                 f"fluids.{side}.mu_prime")
            values[f"sigma_{side}"] = _number(st.get(f"sigma_{side}", 0.0),
                                              f"surface_tension.sigma_{side}")
        params = PhysicalParams(**values)
    except KeyError as exc:
        raise ConfigError(f"missing config key: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid physical parameters: {exc}") from exc
    for side in ("plus", "minus"):
        if "law" not in fluids[side]:
            raise ConfigError(f"missing config key: fluids.{side}.law")
    law_plus = _law_from_dict(fluids["plus"]["law"], "fluids.plus.law")
    law_minus = _law_from_dict(fluids["minus"]["law"], "fluids.minus.law")
    numerics = doc.get("numerics", {})
    if not isinstance(numerics, dict):
        raise ConfigError("numerics must be a JSON object")
    unknown = sorted(set(numerics) - {f.name for f in fields(NumericsConfig)})
    if unknown:
        raise ConfigError(f"unknown numerics option: {', '.join(unknown)}")
    return RunConfig(params, law_plus, law_minus, NumericsConfig(**numerics))


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return parse_config(doc)
