import diamondflow
from diamondflow import errors, flow, geometry, limits, thermo

# The package's public names, by the module whose __all__ declares them.
_PUBLIC = {
    errors: {"DiamondflowError", "LightlikeInput", "OutOfRegion", "OutOfRange",
             "StepOutOfRegion", "NonpositiveAcceleration", "SpecMismatch"},
    geometry: {"SpacetimePoint", "NullRadialCoords", "WedgeSpec", "DiamondSpec",
               "minkowski_square", "to_null", "from_null", "in_wedge", "in_diamond",
               "ray_inversion", "wedge_to_diamond", "diamond_to_wedge"},
    flow: {"Trajectory", "wedge_flow", "diamond_flow", "generator", "proper_time_rate",
           "integrate_flow_rk4", "sample_trajectory", "proper_acceleration"},
    thermo: {"TemperatureSample", "FourMomentum", "beta_field", "wedge_temperature",
             "diamond_temperature", "acceleration_at", "temperature_ratio",
             "radius_along_flow", "agreement_window", "relative_entropy"},
    limits: {"DeviationReport", "RegimeMap", "deviation_scan", "regime_map"},
}


def test_package_surface():
    # 42 names, each declared in one module's __all__ and re-exported as
    # the same object
    assert len(diamondflow.__all__) == len(set(diamondflow.__all__)) == 42
    assert set(diamondflow.__all__) == {"__version__"}.union(*_PUBLIC.values())
    for module, names in _PUBLIC.items():
        assert len(module.__all__) == len(names) and set(module.__all__) == names, module
        for name in names:
            assert getattr(diamondflow, name) is getattr(module, name), name
