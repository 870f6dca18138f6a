#!/usr/bin/env bash
# Byte-identity battery: run every CLI command on fixed inputs and keep
# what it writes, so that two checkouts can be compared with `diff -r`.
#
#   tools/output_battery.sh CHECKOUT OUT
#
# Each run writes its CSV files to OUT/<name>/, its stdout, followed by an
# "exit <code>" line, to OUT/<name>.stdout, and its stderr to
# OUT/<name>.stderr.  A run is stopped after 120 s and then records
# "exit 124", so the battery ends on a checkout that hangs.  The
# `wall_time_s` rows are deleted afterwards, as they are the only cells that
# differ between two runs of the same code.  BLAS runs on one thread so that
# the floating-point summation order is fixed.  Generated configs go to OUT/inputs/.
#
# Compare two checkouts:
#   tools/output_battery.sh ../parent /tmp/battery-parent
#   tools/output_battery.sh . /tmp/battery-change
#   diff -r /tmp/battery-parent /tmp/battery-change
# or compare the working tree with a commit in one go: tools/battery_diff.sh BASE
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 CHECKOUT OUT" >&2
    exit 1
fi
checkout=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)

export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
export PYTHONPATH="$checkout/src"

shipped="$checkout/configs/seasonal_beverton_holt.yaml"
mkdir -p "$out/inputs"
{ cat "$shipped"; echo "distance_bound: trajectory"; } > "$out/inputs/trajectory_bound.yaml"
# Zero support levels: the bound's starts decay toward 0 and never meet bit
# for bit, so it steps every live start at each time, up to 364 columns in
# one step_block call.  The grep stops the battery if the edit missed.
{ sed 's/^  levels: .*/  levels: [0.0, 0.0]/' "$shipped"; echo "distance_bound: trajectory"; } \
    > "$out/inputs/trajectory_bound_no_merge.yaml"
grep -q '^  levels: \[0.0, 0.0\]$' "$out/inputs/trajectory_bound_no_merge.yaml"
# Growth scale 1: the window factor overflows to inf, so the attractor run
# stops at its contraction gate with exit 2 before any bound is formed.
sed 's/^  alpha: auto .*/  alpha: 1.0/' "$shipped" > "$out/inputs/no_contraction.yaml"
grep -q '^  alpha: 1.0$' "$out/inputs/no_contraction.yaml"
# Registry parameters read by initial_condition: a polynomial start and a
# constant one.
sed 's/^  id: default .*/  id: custom-polynomial\n  coefficients: [0.5, 0.0, 0.25]/' "$shipped" \
    > "$out/inputs/custom_polynomial_initial.yaml"
grep -q '^  coefficients: \[0.5, 0.0, 0.25\]$' "$out/inputs/custom_polynomial_initial.yaml"
sed 's/^  id: default .*/  id: constant\n  value: 1.5/' "$shipped" > "$out/inputs/constant_initial.yaml"
grep -q '^  value: 1.5$' "$out/inputs/constant_initial.yaml"
# Tent kernel: class 0 has a closed-form mass, class 1 the row-sum fallback.
cat > "$out/inputs/mixed_tent.yaml" <<'YAML'
schema_version: 1
grid: {length: 6.0, nodes: 200}
kernel: {family: tent, dispersal: [0.2, 1.0]}
growth: {family: beverton_holt, profile: vee, alpha: 0.05}
inhomogeneity: {variant: h4}
period: 2
tolerance: 1.0e-8
initial: {id: default}
horizon: 3
YAML
# Zero growth bound: every step constant is 0, the kernel masses are not.
# Its fibers mix fixed and exponent cells within each day: the end nodes
# read 6.123233995736766e-17, as cos(+-pi/2) is not exactly 0.
cat > "$out/inputs/zero_growth.yaml" <<'YAML'
schema_version: 1
grid: {length: 6.0, nodes: 40}
kernel: {family: laplace, dispersal: 2.0}
growth: {family: beverton_holt, profile: flat, profile_params: {value: 0.0}, alpha: 0.05}
inhomogeneity: {variant: h4}
period: 6
tolerance: 1.0e-8
initial: {id: default}
horizon: 7
YAML
# Zero forcing: the state decays toward 0 and never returns its bits, so the
# sweep spends its whole budget.
cat > "$out/inputs/full_budget.yaml" <<'YAML'
schema_version: 1
grid: {length: 6.0, nodes: 40}
kernel: {family: laplace, dispersal: 2.0}
growth: {family: logistic, profile: flat, profile_params: {value: 1.0}, alpha: 0.9}
inhomogeneity: {variant: h4, levels: [0.0, 0.0]}
period: 3
tolerance: 1.0e-3
initial: {id: default}
horizon: 4
YAML
# Per-day growth scales: the list form of alpha (auto, {sinusoidal} and a
# number are covered by the shipped config, gauss draw 3 and mixed_tent).
cat > "$out/inputs/alpha_list.yaml" <<'YAML'
schema_version: 1
grid: {length: 6.0, nodes: 60}
kernel: {family: laplace, dispersal: 2.0}
growth: {family: beverton_holt, profile: vee, alpha: [0.04, 0.05, 0.06]}
inhomogeneity: {variant: h2}
period: 3
tolerance: 1.0e-8
initial: {id: default}
horizon: 4
YAML
# Support from an amplitude list: compare has no variant to vary, so it
# refuses the config and exits 1.
cat > "$out/inputs/amplitudes.yaml" <<'YAML'
schema_version: 1
grid: {length: 6.0, nodes: 40}
kernel: {family: laplace, dispersal: 2.0}
growth: {family: beverton_holt, profile: vee, alpha: 0.05}
inhomogeneity: {amplitudes: [1.0, 2.0, 0.5, 1.5]}
period: 8
tolerance: 1.0e-8
initial: {id: default}
horizon: 4
YAML
# Ricker growth, whose branches of growth_curve, growth_sup_bound and
# growth_lipschitz no other run reaches.  On a zero profile the upper-bound
# distance bound is out of range, so that run exits 1 and names the
# trajectory bound, under which the same config runs.
cat > "$out/inputs/ricker_vee.yaml" <<'YAML'
schema_version: 1
grid: {length: 6.0, nodes: 40}
kernel: {family: laplace, dispersal: 2.0}
growth: {family: ricker, profile: vee, alpha: 0.5}
inhomogeneity: {variant: h4}
period: 6
tolerance: 1.0e-6
initial: {id: default}
horizon: 7
YAML
sed 's/^growth: .*/growth: {family: ricker, profile: flat, profile_params: {value: 0.0}, alpha: 0.5}/' \
    "$out/inputs/ricker_vee.yaml" > "$out/inputs/ricker_zero_profile.yaml"
grep -q '^growth: {family: ricker, profile: flat' "$out/inputs/ricker_zero_profile.yaml"
{ cat "$out/inputs/ricker_zero_profile.yaml"; echo "distance_bound: trajectory"; } \
    > "$out/inputs/ricker_zero_profile_trajectory.yaml"
# Support from an amplitude list, run to the end (compare_amplitudes is
# refused before it reads the amplitudes); with --variant it is refused as a
# file naming both is.
sed -e 's/^growth: .*/growth: {family: beverton_holt, profile: vee, alpha: 0.05}/' \
    -e 's/^inhomogeneity: .*/inhomogeneity: {amplitudes: [1.0, 2.0, 0.5]}/' \
    -e 's/^tolerance: .*/tolerance: 1.0e-8/' \
    "$out/inputs/ricker_vee.yaml" > "$out/inputs/attractor_amplitudes.yaml"
[ "$(grep -c '^growth: {family: beverton_holt\|^inhomogeneity: {amplitudes\|^tolerance: 1.0e-8$' \
    "$out/inputs/attractor_amplitudes.yaml")" = 3 ]
# Periodic Laplace and tent rates: 64 matrices each, kept as tables of
# distinct (distance, weight) pairs and gathered per step
# (dynamics.DISTANCE_TABLE_MIN_RATES; gauss draw 3 covers the third family,
# and mixed_tent the direct path of a few rates).  The tent rates run from
# a L = 0.6 to 2.49, across the support edge at a L = 2.
for spec in "laplace 2 0.125" "tent 0.1 0.005"; do
    set -- $spec
    rates=$(LC_ALL=C awk -v a="$2" -v d="$3" \
        'BEGIN { for (i = 0; i < 64; i++) printf "%s%.3f", (i ? ", " : ""), a + d * i }')
    cat > "$out/inputs/$1_periodic.yaml" <<YAML
schema_version: 1
grid: {length: 6.0, nodes: 150}
kernel: {family: $1, dispersal: [$rates]}
growth: {family: beverton_holt, profile: vee, alpha: 0.05}
inhomogeneity: {variant: h4}
period: 64
tolerance: 1.0e-8
initial: {id: default}
horizon: 4
YAML
done
# The trajectory distance bound under two matrices (mixed_tent), per-day
# growth scales (alpha_list) and 64 distinct matrices, one per day
# (laplace_periodic, tent_periodic).
for base in mixed_tent alpha_list laplace_periodic tent_periodic; do
    { cat "$out/inputs/$base.yaml"; echo "distance_bound: trajectory"; } \
        > "$out/inputs/trajectory_bound_$base.yaml"
done
# Semilinear systems on the demo's scenario block.  bounded-sigmoid has default
# alphas, so gamma = 1 without window products, and its registry kappa is
# checked on sampled pairs; the second declares alphas below the matrix norms
# and a gamma, so the transition products over the windows are formed.
demo="$checkout/configs/semilinear_demo.yaml"
{ sed '/^semilinear:/,$d' "$demo"; cat <<'YAML'; } > "$out/inputs/semilinear_sigmoid.yaml"
semilinear:
  dimension: 3
  matrices:
    - [[0.3, -0.1, 0.1], [0.0, 0.4, -0.1], [0.2, 0.1, 0.2]]
    - [[0.2, 0.2, 0.0], [-0.3, 0.1, 0.1], [0.0, 0.1, -0.4]]
    - [[-0.4, 0.0, 0.1], [0.1, 0.3, 0.0], [0.1, -0.2, 0.2]]
  nonlinearity: {name: bounded-sigmoid, scale: 0.3}
  initial: [1.0, -2.0, 0.5]
  tolerance: 1.0e-12
YAML
{ sed '/^semilinear:/,$d' "$demo"; cat <<'YAML'; } > "$out/inputs/semilinear_window_gamma.yaml"
semilinear:
  dimension: 2
  matrices:
    - [[0.5, 0.3], [0.0, 0.5]]
    - [[0.4, 0.0], [0.35, 0.3]]
  nonlinearity: {name: constant, value: [1.0, 0.5]}
  alphas: [0.7, 0.6]
  gamma: 1.2
  tolerance: 1.0e-12
YAML
# A start one window away from its fixed point: the first update already
# meets the tolerance, so fixed_point_iterate returns after window 0.
{ sed '/^semilinear:/,$d' "$demo"; cat <<'YAML'; } > "$out/inputs/semilinear_settled.yaml"
semilinear:
  dimension: 2
  matrices:
    - [[3.0e-7, 0.0], [0.0, 1.0e-7]]
    - [[1.0e-7, 0.0], [0.0, 3.0e-7]]
  nonlinearity: {name: constant, value: [1.0, 0.7]}
  initial: [1.0000001, 0.7000002099999999]
  tolerance: 1.0e-12
YAML
# Refused configs, each exiting 1 with its message on stderr: an unknown
# registry value, a key the initial id does not take, and a semilinear matrix
# that is not a list of rows.
sed 's/^  family: laplace$/  family: cauchy/' "$shipped" > "$out/inputs/config_error_kernel_family.yaml"
grep -q '^  family: cauchy$' "$out/inputs/config_error_kernel_family.yaml"
sed 's/^  id: default .*/  id: default\n  value: 2.0/' "$shipped" \
    > "$out/inputs/config_error_initial_key.yaml"
grep -q '^  value: 2.0$' "$out/inputs/config_error_initial_key.yaml"
{ sed '/^semilinear:/,$d' "$demo"; cat <<'YAML'; } > "$out/inputs/config_error_semilinear_matrix.yaml"
semilinear:
  dimension: 2
  matrices: [1.0]
YAML
# Input values that overflow, each refused with exit 1 and one stderr line: a
# profile whose maximum is inf, a start that is inf at the nodes (simulate
# used to run on it and print nan), a start finite at the nodes whose total is
# inf (simulate used to write it as day 0's total) and a semilinear forcing
# that diverges.
sed 's/^  profile_params: .*/  profile_params: {offset: 1.0e+308, slope: 1.0e+308}/' "$shipped" \
    > "$out/inputs/config_error_profile_overflow.yaml"
grep -q '^  profile_params: {offset: 1.0e+308' "$out/inputs/config_error_profile_overflow.yaml"
sed 's/^  id: default .*/  id: custom-polynomial\n  coefficients: [1.0e+308, 1.0e+308]/' "$shipped" \
    > "$out/inputs/config_error_initial_overflow.yaml"
grep -q '^  coefficients: \[1.0e+308, 1.0e+308\]$' "$out/inputs/config_error_initial_overflow.yaml"
sed 's/^  id: default .*/  id: constant\n  value: 1.0e+308/' "$shipped" \
    > "$out/inputs/config_error_initial_total_overflow.yaml"
grep -q '^  value: 1.0e+308$' "$out/inputs/config_error_initial_total_overflow.yaml"
sed 's/^    value: \[1.0, 1.0\]$/    value: 1.0e+308/' "$demo" \
    > "$out/inputs/config_error_semilinear_overflow.yaml"
grep -q '^    value: 1.0e+308$' "$out/inputs/config_error_semilinear_overflow.yaml"
# The least subnormal tolerance, where tol * (1 - factor) underflows to 0 for a
# factor of at least 1/2: a period-1 copy of the shipped config (factor
# 0.7497, run with --tol 5e-324) and the semilinear demo (factor 0.81).
sed -e 's/^  nodes: 1000$/  nodes: 40/' -e 's/^  alpha: auto .*/  alpha: 0.0833/' \
    -e 's/^period: 365$/period: 1/' "$shipped" > "$out/inputs/period_one.yaml"
[ "$(grep -c '^  nodes: 40$\|^  alpha: 0.0833$\|^period: 1$' "$out/inputs/period_one.yaml")" = 3 ]
sed 's/^  tolerance: 1.0e-12$/  tolerance: 5.0e-324/' "$demo" > "$out/inputs/semilinear_subnormal_tol.yaml"
grep -q '^  tolerance: 5.0e-324$' "$out/inputs/semilinear_subnormal_tol.yaml"
# A contraction factor one float below 1 with a tolerance of 1e-300 from a
# start of 1e300: the a-priori count is about 1.3e19 windows, while one
# period reaches the fixed point 0.
cat > "$out/inputs/semilinear_near_one_factor.yaml" <<'YAML'
schema_version: 1
grid: {length: 6.0, nodes: 20}
kernel: {family: laplace, dispersal: 2.0}
growth: {family: beverton_holt, profile: vee, alpha: 0.05}
inhomogeneity: {variant: h4}
period: 1
tolerance: 1.0e-8
initial: {id: default}
semilinear:
  dimension: 1
  matrices: [[[0.0]]]
  nonlinearity: {name: zero}
  kappas: [0.9999999999999999]
  tolerance: 1.0e-300
  initial: [1.0e+300]
YAML
# More nodes than one numpy array holds, refused with exit 1 before any
# allocation.
sed 's/^  nodes: 1000$/  nodes: 100000000000000000000/' "$shipped" \
    > "$out/inputs/config_error_nodes_too_large.yaml"
grep -q '^  nodes: 100000000000000000000$' "$out/inputs/config_error_nodes_too_large.yaml"
python3 - "$checkout/perfbench" "$out/inputs/gauss_periodic_draw3.yaml" <<'EOF'
import sys

import yaml

sys.path.insert(0, sys.argv[1])
from workloads import gauss_scenario

config, _ = gauss_scenario(3)
with open(sys.argv[2], "w", encoding="utf-8") as fh:
    yaml.safe_dump(config, fh, sort_keys=False)
EOF
# The trajectory distance bound under 365 distinct matrices at n = 400.
{ cat "$out/inputs/gauss_periodic_draw3.yaml"; echo "distance_bound: trajectory"; } \
    > "$out/inputs/trajectory_bound_gauss_periodic_draw3.yaml"

run() {
    local name=$1
    shift
    local code=0
    timeout 120 python3 -m idepull.cli "$@" --out "$out/$name" \
        > "$out/$name.stdout" 2> "$out/$name.stderr" || code=$?
    echo "exit $code" >> "$out/$name.stdout"
}

run attractor attractor --config "$shipped" --nodes 200
run attractor_tol_h2 attractor --config "$shipped" --nodes 200 --tol 1e-9 --variant h2
run compare compare --config "$shipped" --nodes 200
run compare_amplitudes compare --config "$out/inputs/amplitudes.yaml"
run simulate_h1 simulate --config "$shipped" --nodes 200 --variant h1
run lipschitz_h3 lipschitz --config "$shipped" --nodes 200 --variant h3
run convergence_h4 convergence --config "$shipped" --nodes 100 --variant h4
run semilinear semilinear --config "$demo"
run semilinear_sigmoid semilinear --config "$out/inputs/semilinear_sigmoid.yaml"
run semilinear_window_gamma semilinear --config "$out/inputs/semilinear_window_gamma.yaml"
run semilinear_settled semilinear --config "$out/inputs/semilinear_settled.yaml"
run no_contraction attractor --config "$out/inputs/no_contraction.yaml" --nodes 40
run custom_polynomial_initial attractor --config "$out/inputs/custom_polynomial_initial.yaml" \
    --nodes 40
run constant_initial simulate --config "$out/inputs/constant_initial.yaml" --nodes 40
run trajectory_bound attractor --config "$out/inputs/trajectory_bound.yaml" --nodes 200
run trajectory_bound_no_merge attractor --config "$out/inputs/trajectory_bound_no_merge.yaml" \
    --nodes 200
run gauss_periodic_draw3 attractor --config "$out/inputs/gauss_periodic_draw3.yaml"
run lipschitz_gauss_periodic_draw3 lipschitz --config "$out/inputs/gauss_periodic_draw3.yaml"
# 365 gathered matrices stepped one state at a time through orbit
run simulate_gauss_periodic_draw3 simulate --config "$out/inputs/gauss_periodic_draw3.yaml"
run mixed_tent attractor --config "$out/inputs/mixed_tent.yaml"
run lipschitz_mixed_tent lipschitz --config "$out/inputs/mixed_tent.yaml"
run laplace_periodic attractor --config "$out/inputs/laplace_periodic.yaml"
run lipschitz_laplace_periodic lipschitz --config "$out/inputs/laplace_periodic.yaml"
# four variants on one gathered store, shared through with_inhomogeneity
run compare_laplace_periodic compare --config "$out/inputs/laplace_periodic.yaml"
run tent_periodic attractor --config "$out/inputs/tent_periodic.yaml"
run lipschitz_tent_periodic lipschitz --config "$out/inputs/tent_periodic.yaml"
run zero_growth attractor --config "$out/inputs/zero_growth.yaml"
run lipschitz_zero_growth lipschitz --config "$out/inputs/zero_growth.yaml"
run full_budget attractor --config "$out/inputs/full_budget.yaml"
run alpha_list attractor --config "$out/inputs/alpha_list.yaml"
run trajectory_bound_mixed_tent attractor --config "$out/inputs/trajectory_bound_mixed_tent.yaml"
run trajectory_bound_alpha_list attractor --config "$out/inputs/trajectory_bound_alpha_list.yaml"
run trajectory_bound_laplace_periodic attractor \
    --config "$out/inputs/trajectory_bound_laplace_periodic.yaml"
run trajectory_bound_tent_periodic attractor --config "$out/inputs/trajectory_bound_tent_periodic.yaml"
run trajectory_bound_gauss_periodic_draw3 attractor \
    --config "$out/inputs/trajectory_bound_gauss_periodic_draw3.yaml"
run config_error_kernel_family attractor --config "$out/inputs/config_error_kernel_family.yaml"
run config_error_initial_key attractor --config "$out/inputs/config_error_initial_key.yaml"
run config_error_semilinear_matrix semilinear \
    --config "$out/inputs/config_error_semilinear_matrix.yaml"
run config_error_profile_overflow attractor \
    --config "$out/inputs/config_error_profile_overflow.yaml"
run config_error_initial_overflow simulate --config "$out/inputs/config_error_initial_overflow.yaml"
run config_error_initial_total_overflow simulate \
    --config "$out/inputs/config_error_initial_total_overflow.yaml" --nodes 40
run config_error_semilinear_overflow semilinear \
    --config "$out/inputs/config_error_semilinear_overflow.yaml"
run attractor_subnormal_tol attractor --config "$out/inputs/period_one.yaml" --tol 5e-324
run semilinear_subnormal_tol semilinear --config "$out/inputs/semilinear_subnormal_tol.yaml"
run semilinear_near_one_factor semilinear --config "$out/inputs/semilinear_near_one_factor.yaml"
run config_error_nodes_too_large simulate --config "$out/inputs/config_error_nodes_too_large.yaml"
run ricker_vee attractor --config "$out/inputs/ricker_vee.yaml"
run ricker_zero_profile attractor --config "$out/inputs/ricker_zero_profile.yaml"
run ricker_zero_profile_trajectory attractor \
    --config "$out/inputs/ricker_zero_profile_trajectory.yaml"
run attractor_amplitudes attractor --config "$out/inputs/attractor_amplitudes.yaml"
run config_error_variant_on_amplitudes attractor \
    --config "$out/inputs/attractor_amplitudes.yaml" --variant h2

find "$out" -name '*.csv' -exec sed -i '/^wall_time_s,/d' {} +
