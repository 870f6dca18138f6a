import hashlib
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from idepull import (
    ConfigError,
    build_grid,
    build_operator,
    half_contraction_amplitude,
    initial_condition,
    load_config,
    parse_config,
    seasonal_scales,
)

GOOD = """
schema_version: 1
grid: {length: 6.0, nodes: 40}
kernel: {family: laplace, dispersal: 2.0}
growth:
  family: beverton_holt
  profile: vee
  alpha: 0.05
inhomogeneity: {variant: h4}
period: 6
tolerance: 1.0e-8
initial: {id: default}
horizon: 7
"""


SEMILINEAR = GOOD + """
semilinear:
  dimension: 2
  matrices: [[[0.5, 0.0], [0.0, 0.5]]]
  nonlinearity: {name: constant, value: [1.0, 1.0]}
"""


def edit(old, new):
    assert old in GOOD
    return GOOD.replace(old, new)


def edit_semilinear(old, new):
    assert old in SEMILINEAR
    return SEMILINEAR.replace(old, new)


# (id, config text, the exact ConfigError message): one row per refusal path
# of parse_config
REFUSALS = [
    ("not-a-mapping", "- 1\n- 2\n",
     "config: expected a mapping, got list"),
    ("unknown-top-key", GOOD + "extra_key: 1\n",
     "config: unknown keys ['extra_key']; allowed keys are ['distance_bound', 'grid', "
     "'growth', 'horizon', 'inhomogeneity', 'initial', 'kernel', 'max_steps', 'period', "
     "'schema_version', 'semilinear', 'tolerance']"),
    ("missing-top-keys", edit("period: 6\n", "").replace("tolerance: 1.0e-8\n", ""),
     "config: missing required keys ['period', 'tolerance']"),
    ("schema-version-string", edit("schema_version: 1", "schema_version: one"),
     "config.schema_version: expected a finite number, got 'one'"),
    ("schema-version-fraction", edit("schema_version: 1", "schema_version: 1.5"),
     "config.schema_version: expected an integer, got 1.5"),
    ("schema-version-2", edit("schema_version: 1", "schema_version: 2"),
     "config.schema_version: expected 1, got 2"),
    ("period-string", edit("period: 6", "period: six"),
     "config.period: expected a finite number, got 'six'"),
    ("period-fraction", edit("period: 6", "period: 6.5"),
     "config.period: expected an integer, got 6.5"),
    ("period-zero", edit("period: 6", "period: 0"),
     "config.period: must be >= 1, got 0"),
    ("tolerance-bool", edit("tolerance: 1.0e-8", "tolerance: true"),
     "config.tolerance: expected a finite number, got True"),
    ("tolerance-negative", edit("tolerance: 1.0e-8", "tolerance: -1.0e-8"),
     "config.tolerance: must be positive, got -1e-08"),
    ("grid-list", edit("{length: 6.0, nodes: 40}", "[6.0, 40]"),
     "config.grid: expected a mapping, got list"),
    ("grid-unknown-key", edit("nodes: 40}", "nodes: 40, spacing: 2}"),
     "config.grid: unknown keys ['spacing']; allowed keys are ['length', 'nodes', 'rule']"),
    ("grid-length-missing", edit("length: 6.0, ", ""),
     "config.grid: missing required key 'length'"),
    ("grid-length-nan", edit("length: 6.0", "length: .nan"),
     "config.grid.length: expected a finite number, got nan"),
    ("grid-length-zero", edit("length: 6.0", "length: 0.0"),
     "config.grid.length: must be positive, got 0.0"),
    ("grid-nodes-missing", edit(", nodes: 40", ""),
     "config.grid: missing required key 'nodes'"),
    ("grid-nodes-fraction", edit("nodes: 40", "nodes: 40.5"),
     "config.grid.nodes: expected an integer, got 40.5"),
    ("grid-nodes-zero", edit("nodes: 40", "nodes: 0"),
     "config.grid.nodes: must be >= 1, got 0"),
    ("grid-rule-number", edit("nodes: 40", "nodes: 40, rule: 5"),
     "config.grid.rule: expected a string, got 5"),
    ("grid-rule-unknown", edit("nodes: 40", "nodes: 40, rule: simpson"),
     "config.grid.rule: unknown quadrature rule 'simpson'; expected one of ['trapezoid']"),
    ("kernel-string", edit("{family: laplace, dispersal: 2.0}", "laplace"),
     "config.kernel: expected a mapping, got str"),
    ("kernel-unknown-key", edit("dispersal: 2.0}", "dispersal: 2.0, shape: 1}"),
     "config.kernel: unknown keys ['shape']; allowed keys are ['dispersal', 'family']"),
    ("kernel-family-missing", edit("family: laplace, ", ""),
     "config.kernel: missing required key 'family'"),
    ("kernel-family-number", edit("family: laplace", "family: 3"),
     "config.kernel.family: expected a string, got 3"),
    ("kernel-family-unknown", edit("family: laplace", "family: cauchy"),
     "config.kernel.family: unknown kernel family 'cauchy'; expected one of "
     "['gauss', 'laplace', 'tent']"),
    ("kernel-dispersal-missing", edit(", dispersal: 2.0", ""),
     "config.kernel: missing required key 'dispersal'"),
    ("kernel-dispersal-bool", edit("dispersal: 2.0", "dispersal: true"),
     "config.kernel.dispersal: expected a finite number or a list of numbers, got True"),
    ("kernel-dispersal-empty", edit("dispersal: 2.0", "dispersal: []"),
     "config.kernel.dispersal: expected a nonempty list of numbers, got []"),
    ("kernel-dispersal-entry", edit("dispersal: 2.0", "dispersal: [2.0, x, 2.0, 2.0, 2.0, 2.0]"),
     "config.kernel.dispersal[1]: expected a finite number, got 'x'"),
    ("kernel-dispersal-length", edit("dispersal: 2.0", "dispersal: [2.0, 3.0]"),
     "config.kernel.dispersal: schedule length 2 must be 1 or the period 6"),
    ("kernel-dispersal-zero", edit("dispersal: 2.0", "dispersal: 0"),
     "config.kernel.dispersal: must be positive, got 0"),
    ("kernel-dispersal-negative-entry", edit("dispersal: 2.0", "dispersal: [-1.0]"),
     "config.kernel.dispersal: must be positive, got [-1.0]"),
    ("growth-number",
     edit("growth:\n  family: beverton_holt\n  profile: vee\n  alpha: 0.05", "growth: 1"),
     "config.growth: expected a mapping, got int"),
    ("growth-unknown-key", edit("alpha: 0.05", "alpha: 0.05\n  extra: 1"),
     "config.growth: unknown keys ['extra']; allowed keys are ['alpha', 'family', 'profile', "
     "'profile_params', 'profile_sup']"),
    ("growth-family-missing", edit("  family: beverton_holt\n", ""),
     "config.growth: missing required key 'family'"),
    ("growth-family-list", edit("family: beverton_holt", "family: [beverton_holt]"),
     "config.growth.family: expected a string, got ['beverton_holt']"),
    ("growth-family-unknown", edit("family: beverton_holt", "family: hassell"),
     "config.growth.family: unknown growth family 'hassell'; expected one of "
     "['beverton_holt', 'logistic', 'ricker']"),
    ("growth-profile-missing", edit("  profile: vee\n", ""),
     "config.growth: missing required key 'profile'"),
    ("growth-profile-number", edit("profile: vee", "profile: 1"),
     "config.growth.profile: expected a string, got 1"),
    ("growth-profile-unknown", edit("profile: vee", "profile: bump"),
     "config.growth.profile: unknown profile 'bump'; expected one of ['flat', 'vee']"),
    ("profile-params-number", edit("profile: vee", "profile: vee\n  profile_params: 5"),
     "config.growth.profile_params: expected a mapping, got int"),
    ("profile-params-list", edit("profile: vee", "profile: vee\n  profile_params: [1]"),
     "config.growth.profile_params: expected a mapping, got list"),
    ("profile-params-unknown-key",
     edit("profile: vee", "profile: vee\n  profile_params: {value: 1.0}"),
     "config.growth.profile_params: unknown keys ['value']; allowed keys are ['offset', 'slope']"),
    ("profile-params-nan", edit("profile: vee", "profile: vee\n  profile_params: {offset: .nan}"),
     "config.growth.profile_params.offset: expected a finite number, got nan"),
    ("profile-params-string",
     edit("profile: vee", "profile: flat\n  profile_params: {value: high}"),
     "config.growth.profile_params.value: expected a finite number, got 'high'"),
    ("profile-params-list-value",
     edit("profile: vee", "profile: flat\n  profile_params: {value: [1.0]}"),
     "config.growth.profile_params.value: expected a finite number, got [1.0]"),
    ("profile-negative-vee",
     edit("profile: vee", "profile: vee\n  profile_params: {offset: -3.0, slope: 2.0}"),
     "config.growth.profile_params: profile 'vee' falls to -3.0 on the habitat; it must be >= 0"),
    ("profile-negative-flat",
     edit("profile: vee", "profile: flat\n  profile_params: {value: -1.0}"),
     "config.growth.profile_params: profile 'flat' falls to -1.0 on the habitat; it must be >= 0"),
    ("profile-overflow-vee",
     edit("profile: vee", "profile: vee\n  profile_params: {offset: 1.0e+308, slope: 1.0e+308}"),
     "config.growth.profile_params: profile 'vee' rises to inf on the habitat; it must be finite"),
    ("profile-sup-string", edit("profile: vee", "profile: vee\n  profile_sup: big"),
     "config.growth.profile_sup: expected a finite number, got 'big'"),
    ("profile-sup-zero", edit("profile: vee", "profile: vee\n  profile_sup: 0"),
     "config.growth.profile_sup: must be positive, got 0"),
    ("profile-sup-below-maximum", edit("profile: vee", "profile: vee\n  profile_sup: 8.999"),
     "config.growth.profile_sup: must be at least the profile's maximum 9.0 on the habitat, "
     "got 8.999"),
    ("alpha-missing", edit("  alpha: 0.05\n", ""),
     "config.growth: missing required key 'alpha'"),
    ("alpha-auto-gauss",
     edit("alpha: 0.05", "alpha: auto").replace("family: laplace", "family: gauss"),
     "config.growth.alpha: 'auto' requires a laplace kernel with a constant dispersal rate"),
    ("alpha-auto-zero-maximum",
     edit("alpha: 0.05", "alpha: auto")
     .replace("profile: vee", "profile: flat\n  profile_params: {value: 0.0}"),
     "config.growth.alpha: 'auto' needs a profile whose maximum is > 0"),
    ("alpha-string", edit("alpha: 0.05", "alpha: tuned"),
     "config.growth.alpha: unknown schedule 'tuned'; use 'auto', a number, a list, or "
     "{sinusoidal: C}"),
    ("alpha-mapping-unknown-key", edit("alpha: 0.05", "alpha: {cosine: 0.1}"),
     "config.growth.alpha: unknown keys ['cosine']; allowed keys are ['sinusoidal']"),
    ("alpha-mapping-empty", edit("alpha: 0.05", "alpha: {}"),
     "config.growth.alpha: missing required key 'sinusoidal'"),
    ("alpha-sinusoidal-zero", edit("alpha: 0.05", "alpha: {sinusoidal: 0}"),
     "config.growth.alpha.sinusoidal: must be positive, got 0"),
    ("alpha-bool", edit("alpha: 0.05", "alpha: true"),
     "config.growth.alpha: expected a finite number or a list of numbers, got True"),
    ("alpha-length", edit("alpha: 0.05", "alpha: [0.05, 0.06]"),
     "config.growth.alpha: schedule length 2 must be 1 or the period 6"),
    ("alpha-entry-inf", edit("alpha: 0.05", "alpha: [.inf]"),
     "config.growth.alpha[0]: expected a finite number, got inf"),
    ("inhomogeneity-list", edit("inhomogeneity: {variant: h4}", "inhomogeneity: [h4]"),
     "config.inhomogeneity: expected a mapping, got list"),
    ("inhomogeneity-unknown-key", edit("{variant: h4}", "{variant: h4, phase: 1}"),
     "config.inhomogeneity: unknown keys ['phase']; allowed keys are ['amplitudes', 'levels', "
     "'variant']"),
    ("variant-number", edit("{variant: h4}", "{variant: 4}"),
     "config.inhomogeneity.variant: expected a string, got 4"),
    ("variant-unknown", edit("{variant: h4}", "{variant: h9}"),
     "config.inhomogeneity.variant: unknown variant 'h9'; expected one of ['h1', 'h2', "
     "'h3', 'h4']"),
    ("variant-and-amplitudes", edit("{variant: h4}", "{variant: h4, amplitudes: [1, 2]}"),
     "config.inhomogeneity: give exactly one of 'variant' or 'amplitudes'"),
    ("neither-variant-nor-amplitudes", edit("{variant: h4}", "{levels: [1.0, 2.0]}"),
     "config.inhomogeneity: give exactly one of 'variant' or 'amplitudes'"),
    ("amplitudes-string", edit("{variant: h4}", "{amplitudes: high}"),
     "config.inhomogeneity.amplitudes: expected a nonempty list of numbers, got 'high'"),
    ("amplitudes-empty", edit("{variant: h4}", "{amplitudes: []}"),
     "config.inhomogeneity.amplitudes: expected a nonempty list of numbers, got []"),
    ("amplitudes-entry-inf", edit("{variant: h4}", "{amplitudes: [1.0, .inf]}"),
     "config.inhomogeneity.amplitudes[1]: expected a finite number, got inf"),
    ("amplitudes-negative", edit("{variant: h4}", "{amplitudes: [1.0, -2.0]}"),
     "config.inhomogeneity.amplitudes: entries must be >= 0"),
    ("amplitudes-negative-with-variant", edit("{variant: h4}", "{variant: h9, amplitudes: [-1.0]}"),
     "config.inhomogeneity.amplitudes: entries must be >= 0"),
    ("levels-number", edit("{variant: h4}", "{variant: h4, levels: 1.0}"),
     "config.inhomogeneity.levels: expected a nonempty list of numbers, got 1.0"),
    ("levels-entry", edit("{variant: h4}", "{variant: h4, levels: [1.0, low]}"),
     "config.inhomogeneity.levels[1]: expected a finite number, got 'low'"),
    ("levels-length", edit("{variant: h4}", "{variant: h4, levels: [1, 2, 3]}"),
     "config.inhomogeneity.levels: expected [low, high], got [1, 2, 3]"),
    ("levels-negative", edit("{variant: h4}", "{variant: h4, levels: [-1.0, 2.0]}"),
     "config.inhomogeneity.levels: levels must be >= 0"),
    ("initial-string", edit("initial: {id: default}", "initial: default"),
     "config.initial: expected a mapping, got str"),
    ("initial-id-missing", edit("initial: {id: default}", "initial: {value: 1.0}"),
     "config.initial: missing required key 'id'"),
    ("initial-id-number", edit("{id: default}", "{id: 1}"),
     "config.initial.id: expected a string, got 1"),
    ("initial-id-unknown", edit("{id: default}", "{id: bump}"),
     "config.initial.id: unknown initial condition 'bump'; expected one of "
     "['constant', 'custom-polynomial', 'default']"),
    ("initial-unknown-key", edit("{id: default}", "{id: default, value: 2.0}"),
     "config.initial: unknown keys ['value']; allowed keys are ['id']"),
    ("initial-missing-key", edit("{id: default}", "{id: constant}"),
     "config.initial: missing required keys ['value']"),
    ("initial-value-bool", edit("{id: default}", "{id: constant, value: true}"),
     "config.initial.value: expected a finite number, got True"),
    ("initial-value-list", edit("{id: default}", "{id: constant, value: [1.0]}"),
     "config.initial.value: expected a finite number, got [1.0]"),
    ("initial-coefficients-empty",
     edit("{id: default}", "{id: custom-polynomial, coefficients: []}"),
     "config.initial.coefficients: expected a nonempty list of numbers, got []"),
    ("initial-coefficients-entry",
     edit("{id: default}", "{id: custom-polynomial, coefficients: [1.0, .nan]}"),
     "config.initial.coefficients[1]: expected a finite number, got nan"),
    ("initial-coefficients-number",
     edit("{id: default}", "{id: custom-polynomial, coefficients: 1.0}"),
     "config.initial.coefficients: expected a nonempty list of numbers, got 1.0"),
    ("horizon-string", edit("horizon: 7", "horizon: long"),
     "config.horizon: expected a finite number, got 'long'"),
    ("horizon-negative", edit("horizon: 7", "horizon: -1"),
     "config.horizon: must be >= 0, got -1"),
    ("max-steps-fraction", GOOD + "max_steps: 2.5\n",
     "config.max_steps: expected an integer, got 2.5"),
    ("max-steps-zero", GOOD + "max_steps: 0\n",
     "config.max_steps: must be >= 1, got 0"),
    ("max-steps-huge", GOOD + "max_steps: 1" + "0" * 400 + "\n",
     "config.max_steps: expected a finite number, got 1" + "0" * 400),
    ("distance-bound-number", GOOD + "distance_bound: 1\n",
     "config.distance_bound: expected a string, got 1"),
    ("distance-bound-unknown", GOOD + "distance_bound: exact\n",
     "config.distance_bound: unknown distance bound mode 'exact'; expected one of "
     "['trajectory', 'upper-bound']"),
    ("semilinear-list", GOOD + "semilinear: [1]\n",
     "config.semilinear: expected a mapping, got list"),
    ("semilinear-unknown-key", SEMILINEAR + "  extra: 1\n",
     "config.semilinear: unknown keys ['extra']; allowed keys are ['alphas', 'dimension', "
     "'gamma', 'initial', 'kappas', 'matrices', 'nonlinearity', 'tolerance']"),
    ("semilinear-dimension-missing", edit_semilinear("  dimension: 2\n", ""),
     "config.semilinear: missing required key 'dimension'"),
    ("semilinear-dimension-zero", edit_semilinear("dimension: 2", "dimension: 0"),
     "config.semilinear.dimension: must be >= 1, got 0"),
    ("semilinear-matrices-missing", GOOD + "semilinear: {dimension: 2}\n",
     "config.semilinear: missing required key 'matrices'"),
    ("semilinear-matrices-number",
     edit_semilinear("matrices: [[[0.5, 0.0], [0.0, 0.5]]]", "matrices: 1"),
     "config.semilinear.matrices: expected a nonempty list of matrices"),
    ("semilinear-matrices-empty",
     edit_semilinear("matrices: [[[0.5, 0.0], [0.0, 0.5]]]", "matrices: []"),
     "config.semilinear.matrices: expected a nonempty list of matrices"),
    ("semilinear-matrix-rows", edit_semilinear("[[[0.5, 0.0], [0.0, 0.5]]]", "[[[0.5, 0.0]]]"),
     "config.semilinear.matrices[0]: expected 2 rows"),
    ("semilinear-matrix-number", edit_semilinear("[[[0.5, 0.0], [0.0, 0.5]]]", "[1.0]"),
     "config.semilinear.matrices[0]: expected a list of rows, got 1.0"),
    ("semilinear-row-entries",
     edit_semilinear("[[[0.5, 0.0], [0.0, 0.5]]]", "[[[0.5, 0.0], [0.5]]]"),
     "config.semilinear.matrices[0][1]: expected 2 entries, got 1"),
    ("semilinear-row-entry",
     edit_semilinear("[[[0.5, 0.0], [0.0, 0.5]]]", "[[[0.5, 0.0], [0.0, x]]]"),
     "config.semilinear.matrices[0][1][1]: expected a finite number, got 'x'"),
    ("nonlinearity-list", edit_semilinear("{name: constant, value: [1.0, 1.0]}", "[constant]"),
     "config.semilinear.nonlinearity: expected a mapping, got list"),
    ("nonlinearity-name-missing",
     edit_semilinear("{name: constant, value: [1.0, 1.0]}", "{value: 1.0}"),
     "config.semilinear.nonlinearity: missing required key 'name'"),
    ("nonlinearity-name-number", edit_semilinear("name: constant", "name: 1"),
     "config.semilinear.nonlinearity.name: expected a string, got 1"),
    ("nonlinearity-name-unknown", edit_semilinear("name: constant", "name: cubic"),
     "config.semilinear.nonlinearity.name: unknown nonlinearity 'cubic'; expected one of "
     "['bounded-sigmoid', 'constant', 'zero']"),
    ("nonlinearity-unknown-key",
     edit_semilinear("{name: constant, value: [1.0, 1.0]}", "{name: zero, value: 5.0}"),
     "config.semilinear.nonlinearity: unknown keys ['value']; allowed keys are ['name']"),
    ("nonlinearity-value-entries", edit_semilinear("value: [1.0, 1.0]", "value: [1.0, 1.0, 1.0]"),
     "config.semilinear.nonlinearity.value: expected 2 entries, got 3"),
    ("nonlinearity-value-entry", edit_semilinear("value: [1.0, 1.0]", "value: [.nan, 1.0]"),
     "config.semilinear.nonlinearity.value[0]: expected a finite number, got nan"),
    ("nonlinearity-value-empty", edit_semilinear("value: [1.0, 1.0]", "value: []"),
     "config.semilinear.nonlinearity.value: expected a nonempty list of numbers, got []"),
    ("nonlinearity-value-string", edit_semilinear("value: [1.0, 1.0]", "value: one"),
     "config.semilinear.nonlinearity.value: expected a finite number, got 'one'"),
    ("nonlinearity-scale-bool",
     edit_semilinear("{name: constant, value: [1.0, 1.0]}", "{name: bounded-sigmoid, scale: true}"),
     "config.semilinear.nonlinearity.scale: expected a finite number, got True"),
    ("kappas-number", SEMILINEAR + "  kappas: 0.5\n",
     "config.semilinear.kappas: expected a nonempty list of numbers, got 0.5"),
    ("kappas-entry", SEMILINEAR + "  kappas: [.inf]\n",
     "config.semilinear.kappas[0]: expected a finite number, got inf"),
    ("alphas-empty", SEMILINEAR + "  alphas: []\n",
     "config.semilinear.alphas: expected a nonempty list of numbers, got []"),
    ("alphas-entry", SEMILINEAR + "  alphas: [a]\n",
     "config.semilinear.alphas[0]: expected a finite number, got 'a'"),
    ("gamma-string", SEMILINEAR + "  gamma: big\n",
     "config.semilinear.gamma: expected a finite number, got 'big'"),
    ("semilinear-tolerance-zero", SEMILINEAR + "  tolerance: 0\n",
     "config.semilinear.tolerance: must be positive, got 0"),
    ("semilinear-tolerance-string", SEMILINEAR + "  tolerance: small\n",
     "config.semilinear.tolerance: expected a finite number, got 'small'"),
    ("semilinear-initial-entries", SEMILINEAR + "  initial: [1.0]\n",
     "config.semilinear.initial: expected 2 entries, got 1"),
    ("semilinear-initial-entry", SEMILINEAR + "  initial: [1.0, .nan]\n",
     "config.semilinear.initial[1]: expected a finite number, got nan"),
    ("semilinear-initial-number", SEMILINEAR + "  initial: 1.0\n",
     "config.semilinear.initial: expected a nonempty list of numbers, got 1.0"),
    # a required key given as null is missing
    ("grid-null", edit("grid: {length: 6.0, nodes: 40}", "grid: null"),
     "config: missing required keys ['grid']"),
    ("period-null", edit("period: 6", "period: null"),
     "config: missing required keys ['period']"),
    ("schema-version-null", edit("schema_version: 1", "schema_version: null"),
     "config: missing required keys ['schema_version']"),
    ("grid-length-null", edit("length: 6.0", "length: null"),
     "config.grid: missing required key 'length'"),
    ("kernel-dispersal-null", edit("dispersal: 2.0", "dispersal: null"),
     "config.kernel: missing required key 'dispersal'"),
    ("growth-family-null", edit("family: beverton_holt", "family: null"),
     "config.growth: missing required key 'family'"),
    ("alpha-null", edit("alpha: 0.05", "alpha: null"),
     "config.growth: missing required key 'alpha'"),
    ("alpha-sinusoidal-null", edit("alpha: 0.05", "alpha: {sinusoidal: null}"),
     "config.growth.alpha: missing required key 'sinusoidal'"),
    ("initial-id-null", edit("{id: default}", "{id: null}"),
     "config.initial: missing required key 'id'"),
    ("initial-value-null", edit("{id: default}", "{id: constant, value: null}"),
     "config.initial: missing required keys ['value']"),
    ("semilinear-dimension-null", edit_semilinear("dimension: 2", "dimension: null"),
     "config.semilinear: missing required key 'dimension'"),
    ("semilinear-matrices-null",
     edit_semilinear("matrices: [[[0.5, 0.0], [0.0, 0.5]]]", "matrices: null"),
     "config.semilinear: missing required key 'matrices'"),
    ("nonlinearity-name-null", edit_semilinear("name: constant", "name: null"),
     "config.semilinear.nonlinearity: missing required key 'name'"),
    ("empty", "",
     "config is empty; required keys are schema_version, grid, kernel, growth, inhomogeneity, "
     "period, tolerance, initial"),
    ("comment-only", "# nothing\n",
     "config is empty; required keys are schema_version, grid, kernel, growth, inhomogeneity, "
     "period, tolerance, initial"),
]


@pytest.mark.parametrize("text, message", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refusal_messages(text, message):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == message


VEE_PARAMS = edit("profile: vee", "profile: vee\n  profile_params: {slope: 2.0}")


# (id, config text with an optional key set to null, the text without that key)
NULL_IS_ABSENT = [
    ("growth.profile_params",
     edit("profile: vee", "profile: vee\n  profile_params: null"), GOOD),
    ("inhomogeneity.amplitudes",
     edit("{variant: h4}", "{variant: h4, amplitudes: null}"), GOOD),
    ("semilinear", GOOD + "semilinear: null\n", GOOD),
    ("semilinear.kappas", SEMILINEAR + "  kappas: null\n", SEMILINEAR),
    ("semilinear.alphas", SEMILINEAR + "  alphas: null\n", SEMILINEAR),
    ("semilinear.initial", SEMILINEAR + "  initial: null\n", SEMILINEAR),
    ("grid.rule", edit("nodes: 40", "nodes: 40, rule: null"), GOOD),
    ("growth.profile_sup", edit("profile: vee", "profile: vee\n  profile_sup: null"), GOOD),
    ("inhomogeneity.levels", edit("{variant: h4}", "{variant: h4, levels: null}"), GOOD),
    ("inhomogeneity.variant",
     edit("{variant: h4}", "{variant: null, amplitudes: [1.0, 2.0]}"),
     edit("{variant: h4}", "{amplitudes: [1.0, 2.0]}")),
    ("horizon", edit("horizon: 7", "horizon: null"), edit("horizon: 7\n", "")),
    ("max_steps", GOOD + "max_steps: null\n", GOOD),
    ("distance_bound", GOOD + "distance_bound: null\n", GOOD),
    ("semilinear.gamma", SEMILINEAR + "  gamma: null\n", SEMILINEAR),
    ("semilinear.tolerance", SEMILINEAR + "  tolerance: null\n", SEMILINEAR),
    ("semilinear.nonlinearity",
     edit_semilinear("{name: constant, value: [1.0, 1.0]}", "null"),
     edit_semilinear("  nonlinearity: {name: constant, value: [1.0, 1.0]}\n", "")),
    # registry parameters
    ("growth.profile_params.offset",
     VEE_PARAMS.replace("{slope: 2.0}", "{offset: null, slope: 2.0}"), VEE_PARAMS),
    ("semilinear.nonlinearity.value",
     edit_semilinear("value: [1.0, 1.0]", "value: null"),
     edit_semilinear(", value: [1.0, 1.0]", "")),
]


@pytest.mark.parametrize("with_null, without", [row[1:] for row in NULL_IS_ABSENT],
                         ids=[row[0] for row in NULL_IS_ABSENT])
def test_null_key_is_absent(with_null, without):
    assert with_null != without
    assert parse_config(with_null) == parse_config(without)


@pytest.mark.parametrize("value, kind", [
    ("0", "int"), ("[]", "list"), ("''", "str"), ("false", "bool"),
])
def test_falsy_profile_params_refused(value, kind):
    with pytest.raises(ConfigError) as err:
        parse_config(edit("profile: vee", f"profile: vee\n  profile_params: {value}"))
    assert str(err.value) == f"config.growth.profile_params: expected a mapping, got {kind}"


def test_configs_parse_as_at_fde8845():
    # every config text that parsed at commit fde8845 (the shipped configs, the
    # output battery's inputs and the texts of this suite) with the sha256 of
    # the repr of the ScenarioConfig it parsed to there
    cases = json.loads((Path(__file__).parent / "configs_parsed_at_fde8845.json").read_text())
    assert len(cases) == 65
    for text, digest in cases:
        assert hashlib.sha256(repr(parse_config(text)).encode()).hexdigest() == digest, text


def test_parse_shipped_seasonal_config():
    cfg = load_config("configs/seasonal_beverton_holt.yaml")
    assert cfg.length == 6.0
    assert cfg.nodes == 1000
    assert cfg.period == 365
    assert cfg.tolerance == 1e-6
    assert cfg.kernel_family == "laplace"
    assert cfg.dispersal == (10.0,)
    assert cfg.growth_family == "beverton_holt"
    assert cfg.profile_id == "vee"
    assert cfg.profile_sup == 9.0
    # alpha: auto is resolved at parse time
    assert cfg.growth_scales == seasonal_scales(
        365, half_contraction_amplitude(365, 10.0, 6.0, 9.0))
    assert cfg.variant == "h4"
    assert cfg.initial_id == "default"
    assert cfg.horizon == 366


def test_parse_small_config():
    cfg = parse_config(GOOD)
    assert cfg.period == 6
    assert cfg.growth_scales == (0.05,)
    assert cfg.profile_sup == 9.0
    assert cfg.levels == (1.0, 2.0)
    assert cfg.distance_bound_mode == "upper-bound"
    assert cfg.max_steps == 10_000_000


def test_empty_document_lists_required_keys():
    with pytest.raises(ConfigError) as err:
        parse_config("")
    for key in ("grid", "kernel", "growth", "inhomogeneity", "period", "tolerance"):
        assert key in str(err.value)


def test_zero_tolerance_rejected():
    with pytest.raises(ConfigError, match="tolerance"):
        parse_config(GOOD.replace("tolerance: 1.0e-8", "tolerance: 0"))


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError, match="config"):
        parse_config(GOOD + "\nextra_key: 1\n")
    with pytest.raises(ConfigError, match="config.grid"):
        parse_config(GOOD.replace("nodes: 40", "nodes: 40, spacing: 2"))
    with pytest.raises(ConfigError, match="config.growth"):
        parse_config(GOOD.replace("alpha: 0.05", "alpha: 0.05\n  extra: 1"))


def test_bad_yaml_rejected(monkeypatch):
    # with libyaml's loader where PyYAML has it, and with the Python one
    for loader in (getattr(yaml, "CSafeLoader", yaml.SafeLoader), yaml.SafeLoader):
        monkeypatch.setattr("idepull.config._YAML_LOADER", loader)
        with pytest.raises(ConfigError, match="YAML"):
            parse_config("grid: [unclosed")


def float_bits(node):
    """A parsed YAML tree with each float replaced by its ``float.hex``."""
    if isinstance(node, dict):
        return {float_bits(k): float_bits(v) for k, v in node.items()}
    if isinstance(node, list):
        return [float_bits(v) for v in node]
    if isinstance(node, float):
        return ("float", node.hex())
    return node


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_libyaml_loader_parses_like_the_python_loader():
    # the shipped configs, and a 365-rate schedule whose entries are written
    # as repr of random doubles, as a generated config holds them
    docs = [p.read_text() for p in sorted((Path(__file__).parents[1] / "configs").glob("*.yaml"))]
    rates = np.random.default_rng(365).uniform(5.0, 15.0, 365).tolist()
    docs.append(GOOD.replace("{family: laplace, dispersal: 2.0}",
                             "{family: gauss, dispersal: [" + ", ".join(map(repr, rates)) + "]}")
                .replace("period: 6", "period: 365"))
    assert len(docs) == 3
    for text in docs:
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        assert float_bits(fast) == float_bits(yaml.load(text, Loader=yaml.SafeLoader))
    assert fast["kernel"]["dispersal"] == rates
    assert parse_config(docs[-1]).dispersal == tuple(rates)


def test_unknown_variant_and_profile():
    with pytest.raises(ConfigError, match="variant"):
        parse_config(GOOD.replace("variant: h4", "variant: h9"))
    with pytest.raises(ConfigError, match="profile"):
        parse_config(GOOD.replace("profile: vee", "profile: bump"))


def test_unknown_registry_values_rejected_with_path():
    with pytest.raises(ConfigError, match=r"config\.grid\.rule"):
        parse_config(GOOD.replace("nodes: 40", "nodes: 40, rule: simpson"))
    with pytest.raises(ConfigError, match=r"config\.kernel\.family"):
        parse_config(GOOD.replace("family: laplace", "family: cauchy"))
    with pytest.raises(ConfigError, match=r"config\.growth\.family"):
        parse_config(GOOD.replace("family: beverton_holt", "family: hassell"))


def test_non_finite_numbers_rejected_with_path():
    with pytest.raises(ConfigError, match=r"config\.tolerance"):
        parse_config(GOOD.replace("tolerance: 1.0e-8", "tolerance: .nan"))
    with pytest.raises(ConfigError, match=r"config\.kernel\.dispersal"):
        parse_config(GOOD.replace("dispersal: 2.0", "dispersal: .inf"))
    with pytest.raises(ConfigError, match=r"config\.max_steps"):
        parse_config(GOOD + "\nmax_steps: 1" + "0" * 400 + "\n")
    with pytest.raises(ConfigError, match=r"config\.inhomogeneity\.amplitudes\[1\]"):
        parse_config(GOOD.replace("{variant: h4}", "{amplitudes: [1.0, .inf]}"))
    with pytest.raises(ConfigError, match=r"config\.growth\.profile_params\.offset"):
        parse_config(GOOD.replace("profile: vee", "profile: vee\n  profile_params: {offset: .nan}"))
    semilinear = """
semilinear:
  dimension: 2
  matrices: [[[0.5, 0.0], [0.0, 0.5]]]
  nonlinearity: {name: constant, value: [.nan, 1.0]}
"""
    with pytest.raises(ConfigError, match=r"config\.semilinear\.nonlinearity\.value\[0\]"):
        parse_config(GOOD + semilinear)


def test_variant_xor_amplitudes():
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(GOOD.replace("{variant: h4}", "{variant: h4, amplitudes: [1, 2]}"))
    cfg = parse_config(GOOD.replace("{variant: h4}", "{amplitudes: [1.0, 2.0, 0.5]}"))
    assert cfg.amplitudes == (1.0, 2.0, 0.5)
    # a variant set after parsing, as --variant sets it, is refused the same way
    with pytest.raises(ConfigError, match="exactly one"):
        build_operator(cfg, variant="h2")


def test_alpha_forms():
    def scales(alpha):
        return parse_config(GOOD.replace("alpha: 0.05", f"alpha: {alpha}")).growth_scales

    assert scales("[0.05, 0.06, 0.05, 0.04, 0.05, 0.06]") == (0.05, 0.06, 0.05, 0.04, 0.05, 0.06)
    assert scales("[0.05]") == (0.05,)
    assert scales("3") == (3.0,)
    assert scales("{sinusoidal: 0.1}") == seasonal_scales(6, 0.1)
    with pytest.raises(ConfigError, match="alpha"):
        scales("[0.05, 0.06]")
    with pytest.raises(ConfigError, match="alpha"):
        scales("tuned")


@pytest.mark.parametrize("key, old", [
    ("config.kernel.dispersal", "dispersal: 2.0"),
    ("config.growth.alpha", "alpha: 0.05"),
], ids=["dispersal", "alpha"])
@pytest.mark.parametrize("value", [
    "true", "fast", "[]", "[1.0, 2.0]", "0", "[0.5, -1.0, 0.5, 0.5, 0.5, 0.5]", ".nan", ".inf",
], ids=["bool", "string", "empty", "length", "zero", "negative-entry", "nan", "inf"])
def test_schedule_errors_name_the_key(key, old, value):
    name = key.rsplit(".", 1)[1]
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
        parse_config(GOOD.replace(old, f"{name}: {value}"))


def test_auto_alpha_needs_constant_laplace():
    auto = GOOD.replace("alpha: 0.05", "alpha: auto")
    for old, new in [
        ("family: laplace", "family: gauss"),
        ("dispersal: 2.0", "dispersal: [2.0, 3.0, 2.0, 3.0, 2.0, 3.0]"),
        ("profile: vee", "profile: flat\n  profile_params: {value: 0.0}"),  # maximum 0
    ]:
        with pytest.raises(ConfigError, match=r"^config\.growth\.alpha: .*auto"):
            parse_config(auto.replace(old, new))


def test_dispersal_schedule_length():
    with pytest.raises(ConfigError, match="dispersal"):
        parse_config(GOOD.replace("dispersal: 2.0", "dispersal: [2.0, 3.0]"))
    cfg = parse_config(GOOD.replace("dispersal: 2.0", "dispersal: [2, 3, 2, 3, 2, 3]"))
    assert cfg.dispersal == (2.0, 3.0, 2.0, 3.0, 2.0, 3.0)


class TestInitialCondition:
    def setup_method(self):
        self.grid = build_grid(6.0, 6)  # nodes at -3, -2, ..., 3

    def test_default_profile(self):
        u = initial_condition("default", {}, self.grid)
        values = dict(zip(self.grid.nodes, u.values))
        assert values[0.0] == 0.5
        assert values[1.0] == 2.5  # both branches agree at the seam
        assert values[-1.0] == 2.5
        assert values[3.0] == 2.5

    def test_constant(self):
        u = initial_condition("constant", {"value": 2.5}, self.grid)
        assert np.all(u.values == 2.5)
        with pytest.raises(ConfigError):
            initial_condition("constant", {}, self.grid)

    def test_custom_polynomial(self):
        u = initial_condition("custom-polynomial", {"coefficients": [1.0, 0.0, 2.0]}, self.grid)
        assert u.values[-1] == pytest.approx(1 + 2 * 9, abs=1e-14)
        # a parsed config holds its coefficients as a tuple
        cfg = parse_config(edit("{id: default}", "{id: custom-polynomial, coefficients: [1, 0, 2]}"))
        assert cfg.initial_params == {"coefficients": (1.0, 0.0, 2.0)}
        v = initial_condition(cfg.initial_id, cfg.initial_params, self.grid)
        assert np.array_equal(v.values, u.values)

    def test_unknown_id(self):
        with pytest.raises(ConfigError):
            initial_condition("bump", {}, self.grid)

    @pytest.mark.parametrize("name, params, message", [
        ("constant", {"value": float("nan")}, "initial.value: expected a finite number, got nan"),
        ("constant", {"value": True}, "initial.value: expected a finite number, got True"),
        ("custom-polynomial", {"coefficients": []},
         "initial.coefficients: expected a nonempty list of numbers, got []"),
        ("custom-polynomial", {"coefficients": [1.0e308, 1.0e308]},
         "initial: the 'custom-polynomial' start values are not finite at every node"),
    ], ids=["nan", "bool", "no-coefficients", "overflow-at-nodes"])
    def test_parameter_values_checked(self, name, params, message):
        with pytest.raises(ConfigError) as err:
            initial_condition(name, params, self.grid)
        assert str(err.value) == message

    def test_total_must_be_finite(self):
        # finite at every node, but the quadrature sum of 1e308 over length 6 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as err:
                initial_condition("constant", {"value": 1.0e308}, self.grid)
        assert str(err.value) == (
            "initial: the 'constant' start values have no finite total population"
        )


def test_initial_params_must_match_id():
    with pytest.raises(ConfigError, match="config.initial"):
        parse_config(GOOD.replace("{id: default}", "{id: default, value: 2.0}"))
    with pytest.raises(ConfigError, match="config.initial"):
        parse_config(GOOD.replace("{id: default}", "{id: constant}"))
    cfg = parse_config(GOOD.replace("{id: default}", "{id: constant, value: 1.5}"))
    assert cfg.initial_params == {"value": 1.5}


def test_build_operator_variant_override():
    cfg = parse_config(GOOD)
    op_default = build_operator(cfg)
    op_h2 = build_operator(cfg, variant="h2")
    assert op_default.inhomogeneity.amplitudes == (2.0, 1.0, 2.0, 1.0)
    assert op_h2.inhomogeneity.amplitudes == (1.0, 2.0, 1.0, 2.0)
    assert op_default.theta == 6


def test_build_operator_auto_scales_halve_product():
    import idepull as ip

    text = GOOD.replace("alpha: 0.05", "alpha: auto").replace("period: 6", "period: 12")
    cfg = parse_config(text)
    op = build_operator(cfg)
    lams = ip.step_constants_closed_form(op)
    cert = ip.certify_contraction(lams)
    assert abs(cert.factor - 0.5) <= 1e-10


def test_semilinear_section_validation():
    with pytest.raises(ConfigError, match="matrices"):
        parse_config(GOOD + "\nsemilinear: {dimension: 2}\n")
    text = GOOD + """
semilinear:
  dimension: 2
  matrices:
    - [[0.5, 0.0], [0.0, 0.5]]
  nonlinearity: {name: constant, value: [1.0, 1.0]}
  kappas: [0.0]
"""
    cfg = parse_config(text)
    assert cfg.semilinear.dimension == 2
    assert cfg.semilinear.nonlinearity == "constant"
    assert cfg.semilinear.kappas == (0.0,)


def test_undeclared_kappas_are_the_registry_constant():
    base = GOOD + """
semilinear:
  dimension: 2
  matrices:
    - [[0.5, 0.0], [0.0, 0.5]]
    - [[0.4, 0.0], [0.0, 0.4]]
"""
    assert parse_config(base).semilinear.kappas == (0.0, 0.0)
    sigmoid = base + "  nonlinearity: {name: bounded-sigmoid, scale: -0.7}\n"
    assert parse_config(sigmoid).semilinear.kappas == (0.7, 0.7)


def test_nonlinearity_keys_checked_against_name():
    base = GOOD + """
semilinear:
  dimension: 2
  matrices:
    - [[0.5, 0.0], [0.0, 0.5]]
  nonlinearity: {NL}
"""
    for nl in ("{name: zero, value: 5.0}", "{name: bounded-sigmoid, value: 3.0}"):
        with pytest.raises(ConfigError, match=r"config\.semilinear\.nonlinearity: unknown keys"):
            parse_config(base.replace("{NL}", nl))
    parse_config(base.replace("{NL}", "{name: bounded-sigmoid, scale: 0.5}"))
    with pytest.raises(ConfigError, match=r"config\.semilinear\.nonlinearity\.value"):
        parse_config(base.replace("{NL}", "{name: constant, value: [1.0, 1.0, 1.0]}"))


def test_profile_sup_is_exact_supremum():
    def sup(text):
        return build_operator(parse_config(text)).growth.profile_sup

    assert sup(GOOD) == 9.0  # vee 3 + 2 |x| on [-3, 3]
    assert sup(Path("configs/seasonal_beverton_holt.yaml").read_text()) == 9.0
    assert sup(Path("configs/semilinear_demo.yaml").read_text()) == 9.0
    # 7 subintervals: x = 0, where 5 - |x| peaks, is not a node
    odd = GOOD.replace("nodes: 40", "nodes: 7")
    assert sup(odd.replace("profile: vee", "profile: vee\n  profile_params: "
                           "{offset: 5.0, slope: -1.0}")) == 5.0
    assert sup(GOOD.replace("profile: vee", "profile: flat\n  profile_params: "
                            "{value: 2.5}")) == 2.5
    assert sup(GOOD.replace("profile: vee", "profile: vee\n  profile_sup: 12.0")) == 12.0


def test_profile_maximum_near_the_float_limit_is_finite():
    # slope * L overflows here, slope * L/2 = 1.5e308 does not
    text = edit("profile: vee", "profile: vee\n  profile_params: {offset: 0.0, slope: 5.0e+307}")
    assert parse_config(text).profile_sup == 1.5e308


def test_declared_profile_sup_not_below_exact_maximum():
    declared = GOOD.replace("profile: vee", "profile: vee\n  profile_sup: SUP")
    with pytest.raises(ConfigError, match=r"config\.growth\.profile_sup"):
        parse_config(declared.replace("SUP", "8.999"))  # the exact maximum is 9.0
    for value in (9.0, 12.0):
        assert parse_config(declared.replace("SUP", str(value))).profile_sup == value


@pytest.mark.parametrize("profile", [
    "profile: vee\n  profile_params: {offset: -3.0, slope: 2.0}",
    "profile: flat\n  profile_params: {value: -1.0}",
], ids=["vee", "flat"])
def test_negative_profile_rejected_at_parse_time(profile):
    with pytest.raises(ConfigError, match=r"config\.growth\.profile_params"):
        parse_config(GOOD.replace("profile: vee", profile))
