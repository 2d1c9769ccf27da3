"""Evaluators: surrogate/replay adapters, the two synthetic oracles, commands."""

import hashlib
import math
import random
import sys
import textwrap

import numpy as np
import pytest

from conftest import em_as_one_at_a_time
from heterotune import (
    AmbiguousLogError,
    CommandEvaluator,
    CommandExecutionError,
    InvalidMeasurementError,
    ModelEvaluator,
    NotRecordedError,
    PatternMatchOracle,
    PccOracle,
    ReplayEvaluator,
    UndefinedEfficiencyError,
    bundled_data_path,
    derive_all,
    energy_efficiency,
    fit_boosted,
    make_evaluator,
    make_oracle,
    predict_boosted,
    predict_boosted_batch,
    save_model,
    space_from_dict,
    write_measurement_log,
)
from heterotune.evaluators import _jitter_key, _jitter_keys, _rugged_factors
from heterotune.space import Parameter, ParameterSpace
from heterotune.harness import dataset_from_measurements, gen_dataset

REL = 1e-12


# ----- ModelEvaluator ---------------------------------------------------------------


@pytest.fixture(scope="module")
def small_emil_model(emil):
    oracle = PatternMatchOracle()
    rows = gen_dataset(emil, oracle, sample=400, seed=1)
    data = dataset_from_measurements(emil, rows)
    return fit_boosted(data, np.random.default_rng(0), n_estimators=10, max_depth=6)


def test_model_evaluator_matches_direct_prediction(emil, small_emil_model):
    evaluator = ModelEvaluator(small_emil_model, emil)
    rng = random.Random(8)
    for _ in range(100):
        config = emil.random_config(rng)
        assert evaluator.evaluate(config) == predict_boosted(
            small_emil_model, emil.encode(config)
        )


def test_one_row_inputs_give_the_batch_bits(emil, small_emil_model):
    """An encoded tuple of floats is walked as it is; every other input goes
    through NumPy. Both give `predict_boosted_batch`'s bits."""
    row = emil.encode(emil.make_config({"CPU-T": 24, "ACC-T": 180, "CPU-A": "scatter",
                                        "ACC-A": "balanced", "CPU-W": 37}))
    assert type(row) is tuple and all(type(v) is float for v in row)
    assert row[2] == 1.0  # scatter, which the bool below stands for
    [expected] = predict_boosted_batch(small_emil_model, np.array([row])).tolist()
    ints = tuple(int(v) for v in row)
    inputs = {
        "tuple of floats": row,
        "list": list(row),
        "1-D ndarray": np.array(row),
        "tuple of ints": ints,
        "tuple holding a bool": ints[:2] + (True,) + ints[3:],
        "tuple of np.float32": tuple(np.float32(v) for v in row),
    }
    for what, x in inputs.items():
        assert predict_boosted(small_emil_model, x) == expected, what
    for bad in (row[:-1], row + (0.0,), np.array([row])):
        with pytest.raises(ValueError):
            predict_boosted(small_emil_model, bad)


@pytest.fixture(scope="module")
def emil_20_tree_model(emil):
    rows = gen_dataset(emil, PatternMatchOracle(), sample=1000, seed=2)
    data = dataset_from_measurements(emil, rows)
    return fit_boosted(data, np.random.default_rng(1), n_estimators=20, max_depth=8)


@pytest.mark.parametrize("which", ["10 trees, depth 6", "20 trees, depth 8"])
def test_model_evaluator_gives_the_batch_bits_everywhere(emil, small_emil_model,
                                                         emil_20_tree_model, which):
    model = small_emil_model if which.startswith("10") else emil_20_tree_model
    configs = list(emil.enumerate_all())
    expected = predict_boosted_batch(model, np.array([emil.encode(c) for c in configs]))
    evaluator = ModelEvaluator(model, emil)
    assert [evaluator.evaluate(c) for c in configs] == expected.tolist()


def test_model_evaluator_from_file(emil, small_emil_model, tmp_path):
    path = tmp_path / "model.json"
    save_model(small_emil_model, path)
    evaluator = ModelEvaluator.from_file(str(path), emil)
    config = emil.random_config(random.Random(1))
    assert evaluator.evaluate(config) == predict_boosted(
        small_emil_model, emil.encode(config)
    )
    assert evaluator.describe().startswith("model:")
    assert str(len(small_emil_model.stages)) in evaluator.describe()


def test_model_evaluator_rejects_feature_mismatch(ida, small_emil_model):
    with pytest.raises(ValueError):
        ModelEvaluator(small_emil_model, ida)


# ----- ReplayEvaluator ----------------------------------------------------------------


def test_replay_returns_recorded_efficiency(ida):
    evaluator = ReplayEvaluator.from_log(bundled_data_path("ida_512x32768_em"), ida)
    assert len(evaluator) == 101
    value = evaluator.evaluate(ida.make_config({"CPU-W": 0}))
    assert value == pytest.approx(3.169, rel=REL)
    m = evaluator.measure(ida.make_config({"CPU-W": 0}))
    assert energy_efficiency(m) == value


def test_replay_covers_whole_space_consistently(ida):
    evaluator = ReplayEvaluator.from_log(bundled_data_path("ida_512x32768_em"), ida)
    for config in ida.enumerate_all():
        m = evaluator.measure(config)
        assert ida.config_key(m.config) == ida.config_key(config)


def test_replay_missing_config(ida, tmp_path):
    oracle = PccOracle()
    rows = [oracle.measure(ida.make_config({"CPU-W": w})) for w in (0, 50)]
    path = tmp_path / "log.csv"
    write_measurement_log(path, ida, rows)
    evaluator = ReplayEvaluator.from_log(str(path), ida)
    with pytest.raises(NotRecordedError):
        evaluator.evaluate(ida.make_config({"CPU-W": 99}))


def test_replay_duplicate_config_ambiguous(ida, tmp_path):
    oracle = PccOracle()
    m = oracle.measure(ida.make_config({"CPU-W": 50}))
    path = tmp_path / "log.csv"
    write_measurement_log(path, ida, [m, m])
    with pytest.raises(AmbiguousLogError):
        ReplayEvaluator.from_log(str(path), ida)


def test_replay_idle_accelerator_row_is_cpu_only(ida):
    evaluator = ReplayEvaluator.from_log(bundled_data_path("ida_512x32768_em"), ida)
    m = evaluator.measure(ida.make_config({"CPU-W": 100}))
    assert m.acc_workload_mb == 0.0
    assert m.acc_time_s == 0.0
    assert m.acc_energy_j == 0.0
    d = derive_all(m)
    assert d.acc_power_w == 0.0
    assert d.power_w == d.cpu_power_w


# ----- PccOracle ------------------------------------------------------------------------


def test_pcc_comparisons_partition_all_pairs():
    oracle = PccOracle(rows=1024, cols=8192)
    total = 1024 * 1023 // 2
    for w in range(101):
        cpu, acc = oracle.comparison_split(w)
        assert cpu >= 0 and acc >= 0
        assert cpu + acc == total
    assert oracle.comparison_split(0) == (0, total)
    assert oracle.comparison_split(100) == (total, 0)


def test_pcc_cpu_share_monotone():
    oracle = PccOracle()
    shares = [oracle.comparison_split(w)[0] for w in range(101)]
    assert shares == sorted(shares)


def test_pcc_accelerator_only_has_idle_cpu(ida):
    oracle = PccOracle()
    m = oracle.measure(ida.make_config({"CPU-W": 0}))
    assert m.cpu_workload_mb == 0.0
    assert m.cpu_time_s == 0.0
    assert m.cpu_energy_j == 0.0
    assert m.acc_workload_mb == m.workload_mb


def test_pcc_cpu_only_skips_transfer_and_minimizes_power(ida):
    oracle = PccOracle()
    m = oracle.measure(ida.make_config({"CPU-W": 100}))
    assert m.acc_time_s == 0.0
    # time = comparisons * cols * cost, no transfer term
    expected = (1024 * 1023 // 2) * 8192 * 2e-9
    assert m.cpu_time_s == pytest.approx(expected, rel=REL)
    powers = {
        w: derive_all(oracle.measure(ida.make_config({"CPU-W": w}))).power_w
        for w in range(101)
    }
    assert min(powers, key=powers.get) == 100
    assert powers[100] == pytest.approx(105.0, rel=REL)


def test_pcc_measurements_positive_and_finite(ida):
    oracle = PccOracle()
    for w in range(0, 101, 7):
        value = oracle.evaluate(ida.make_config({"CPU-W": w}))
        assert math.isfinite(value) and value > 0


def test_pcc_three_distinct_optima(ida):
    """Efficiency, throughput and power are optimized by different splits."""
    oracle = PccOracle()
    derived = {
        w: derive_all(oracle.measure(ida.make_config({"CPU-W": w})))
        for w in range(101)
    }
    best_efficiency = max(derived, key=lambda w: derived[w].energy_efficiency_mb_j)
    best_throughput = max(derived, key=lambda w: derived[w].throughput_mb_s)
    best_power = min(derived, key=lambda w: derived[w].power_w)
    assert best_efficiency == 0
    assert best_throughput == 2
    assert best_power == 100
    assert len({best_efficiency, best_throughput, best_power}) == 3


def test_pcc_single_optimum_under_one_change_neighborhood(ida):
    """CPU-W is the only free knob, so one parameter change reaches any other
    split; the only configuration no such change improves is the unique
    global argmax at the accelerator-only split."""
    oracle = PccOracle()
    values = [
        oracle.evaluate(ida.make_config({"CPU-W": w})) for w in range(101)
    ]
    best = max(values)
    assert values.count(best) == 1
    assert values.index(best) == 0


def test_pcc_workload_split_follows_comparison_share(ida):
    oracle = PccOracle()
    m = oracle.measure(ida.make_config({"CPU-W": 30}))
    cpu, acc = oracle.comparison_split(30)
    assert m.cpu_workload_mb == pytest.approx(
        m.workload_mb * cpu / (cpu + acc), rel=REL
    )


def test_pcc_rejects_bad_split(ida):
    oracle = PccOracle()
    with pytest.raises(ValueError):
        oracle.measure({"CPU-W": 101})
    with pytest.raises(ValueError):
        oracle.measure({"GPU-W": 40})


def test_pcc_rejects_bad_parameters():
    with pytest.raises(ValueError):
        PccOracle(rows=1)
    with pytest.raises(ValueError):
        PccOracle(cpu_power_w=0.0)


# ----- PatternMatchOracle ------------------------------------------------------------------


def emil_config(emil, **overrides):
    base = {"CPU-T": 24, "ACC-T": 180, "CPU-A": "scatter", "ACC-A": "compact",
            "CPU-W": 50}
    base.update(overrides)
    return emil.make_config(base)


def test_pm_deterministic(emil):
    a = PatternMatchOracle()
    b = PatternMatchOracle()
    rng = random.Random(12)
    for _ in range(50):
        config = emil.random_config(rng)
        assert a.evaluate(config) == b.evaluate(config)


def test_pm_window_time_semantics(emil):
    oracle = PatternMatchOracle()
    m = oracle.measure(emil_config(emil, **{"CPU-W": 40}))
    # both units are busy, both report the wall duration of the hybrid run
    assert m.cpu_time_s == m.acc_time_s > 0
    # energy accrues over each unit's own busy interval, so total power is
    # strictly below the sum of the nameplate draws
    d = derive_all(m)
    assert d.power_w < 115.0 + 300.0


def test_pm_boundary_splits(emil):
    oracle = PatternMatchOracle()
    cpu_only = oracle.measure(emil_config(emil, **{"CPU-W": 100}))
    assert cpu_only.acc_time_s == 0.0 and cpu_only.acc_energy_j == 0.0
    acc_only = oracle.measure(emil_config(emil, **{"CPU-W": 0}))
    assert acc_only.cpu_time_s == 0.0 and acc_only.cpu_energy_j == 0.0
    assert acc_only.acc_workload_mb == oracle.input_mb


def test_pm_unit_rates_follow_tables(emil):
    oracle = PatternMatchOracle()
    cpu_rate, acc_rate = oracle.unit_rates(emil_config(emil))
    assert cpu_rate == pytest.approx(5200.0 * 1.00 * 1.00, rel=REL)
    assert acc_rate == pytest.approx(11500.0 * 0.92 * 0.85, rel=REL)


def test_pm_out_of_domain_rejected(emil):
    oracle = PatternMatchOracle()
    good = emil_config(emil)
    bad = dict(good)
    bad["CPU-T"] = 13
    with pytest.raises(ValueError):
        oracle.measure(bad)
    bad = dict(good)
    bad["ACC-A"] = "wat"
    with pytest.raises(ValueError):
        oracle.measure(bad)


def test_pm_smooth_slices_unimodal_in_split(emil):
    """With the jitter off, every thread/affinity slice has one local optimum."""
    oracle = PatternMatchOracle(rugged_amplitude=0.0)
    for cpu_t in (12, 48):
        for acc_a in ("balanced", "compact"):
            values = [
                oracle.evaluate(
                    emil_config(emil, **{"CPU-T": cpu_t, "ACC-A": acc_a, "CPU-W": w})
                )
                for w in range(101)
            ]
            local_optima = [
                w
                for w in range(101)
                if (w == 0 or values[w] > values[w - 1])
                and (w == 100 or values[w] > values[w + 1])
            ]
            assert len(local_optima) == 1


def test_pm_default_landscape_is_rugged(emil):
    """The jittered landscape has several single-change local optima.

    A configuration is a strict local optimum when it beats every other value
    along each parameter axis (one change can reach any of them). With the
    default jitter the landscape is deterministic, so the count is frozen.
    """
    oracle = PatternMatchOracle()
    values = np.array([oracle.evaluate(c) for c in emil.enumerate_all()])
    grid = values.reshape(4, 4, 3, 3, 101)  # enumeration order, first slowest
    strict = np.ones(grid.shape, dtype=bool)
    for axis in range(grid.ndim):
        axis_max = grid.max(axis=axis, keepdims=True)
        at_max = grid == axis_max
        strict &= at_max & (at_max.sum(axis=axis, keepdims=True) == 1)
    optima = int(strict.sum())
    assert optima == 6
    assert optima >= 2  # annealing has basins to escape
    # the global argmax is unique and is one of the strict optima
    assert (values == values.max()).sum() == 1
    assert strict.reshape(-1)[values.argmax()]


def test_pm_rejects_bad_parameters():
    with pytest.raises(ValueError):
        PatternMatchOracle(input_mb=0.0)
    with pytest.raises(ValueError):
        PatternMatchOracle(rugged_amplitude=1.0)
    with pytest.raises(ValueError):
        PatternMatchOracle(cpu_thread_scale={12: 0.0})


def test_make_oracle_families():
    assert isinstance(make_oracle("ida-pcc"), PccOracle)
    assert isinstance(make_oracle("emil-pm"), PatternMatchOracle)
    custom = make_oracle("ida-pcc", rows=512, cols=32768)
    assert (custom.rows, custom.cols) == (512, 32768)
    with pytest.raises(ValueError):
        make_oracle("nope")


# ----- evaluate_codes -----------------------------------------------------------------
#
# These tests kept their names from `evaluate_many(configs)`, the call that
# `evaluate_codes(space, codes)` replaced, so that their ids stay stable. A
# batch gives `evaluate`'s bits or declines (None); where a configuration
# fails, it declines and `run_em` fails as it does one at a time.


def outcome(call):
    """The bits `call` returns, or the type and message of what it raises."""
    try:
        return np.array(call(), dtype=np.float64).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


def unreachable(config):
    raise AssertionError("evaluate_codes fell back to evaluate")


@pytest.mark.parametrize(
    "overrides",
    [{}, {"rugged_amplitude": 0}, {"seed": 7},
     {"cpu_thread_scale": {12: 0.61, 24: 0.97, 36: 1.0, 48: 0.83}}],
    ids=["defaults", "smooth", "seed-7", "cpu-thread-table"],
)
def test_pm_evaluate_many_is_evaluate_bit_for_bit(emil, overrides, monkeypatch):
    oracle = PatternMatchOracle(**overrides)
    one_at_a_time = outcome(lambda: [oracle.evaluate(c) for c in emil.enumerate_all()])
    monkeypatch.setattr(oracle, "evaluate", unreachable)  # the NumPy path, every row
    assert outcome(lambda: oracle.evaluate_codes(emil, emil.codes())) == one_at_a_time


def test_keys_by_columns_are_the_jitter_keys(emil, ida):
    for space in (emil, ida):
        keys = [key.decode("utf-8") for key in _jitter_keys(space, space.codes())]
        assert keys == [_jitter_key(c) for c in space.enumerate_all()]


def unit_jitter(seed, config, unit, amplitude):
    """One unit's jitter with the key hashed whole: key, unit and seed in one string."""
    key = _jitter_key(config) + f"|{unit}|{seed}"
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return 1.0 + amplitude * (int.from_bytes(digest, "big") / 2**63 - 1.0)


@pytest.mark.parametrize("seed, amplitude", [(0, 0.03), (7, 0.5), (3, 0.0)])
def test_rugged_factors_hash_each_unit_tail_after_one_key(emil, seed, amplitude):
    rng = random.Random(seed)
    for config in [emil.random_config(rng) for _ in range(50)] + [{"CPU-W": 5, "n": 1.5}]:
        assert _rugged_factors(seed, config, amplitude) == tuple(
            unit_jitter(seed, config, unit, amplitude) for unit in ("cpu", "acc"))


def test_model_evaluate_many_is_evaluate_bit_for_bit(emil, emil_8_tree_model, monkeypatch):
    evaluator = ModelEvaluator(emil_8_tree_model, emil)
    one_at_a_time = outcome(lambda: [evaluator.evaluate(c) for c in emil.enumerate_all()])
    monkeypatch.setattr(evaluator, "evaluate", unreachable)
    codes = emil.codes()
    many = evaluator.evaluate_codes(emil, codes)
    assert all(type(v) is float for v in many)
    assert outcome(lambda: many) == one_at_a_time
    assert evaluator.evaluate_codes(emil, codes[:0]) == []


def small_emil(emil, **replaced):
    """emil with CPU-W in 0-4 and each parameter in `replaced` swapped (None drops it)."""
    replaced = {
        "CPU-W": Parameter("CPU-W", "range", tuple(range(5))),
        "ACC-W": Parameter("ACC-W", "range", tuple(range(96, 101)), derived_from="CPU-W"),
        **replaced,
    }
    parameters = (replaced.get(p.name, p) for p in emil.parameters)
    return ParameterSpace("small-emil", tuple(p for p in parameters if p is not None))


@pytest.mark.parametrize(
    "change",
    [{"CPU-W": Parameter("CPU-W", "range", (98, 99, 100, 101)),
      "ACC-W": Parameter("ACC-W", "range", (-1, 0, 1, 2), derived_from="CPU-W")},
     {"CPU-W": Parameter("CPU-W", "categorical", ("True",)),
      "ACC-W": Parameter("ACC-W", "levels", (100,))},
     {"CPU-T": Parameter("CPU-T", "levels", (12, 13))},
     {"ACC-A": None}],
    ids=["split-101", "split-true", "cpu-threads-13", "missing-key"],
)
@pytest.mark.parametrize("kind", ["oracle", "model"])
def test_evaluate_many_fails_as_evaluate(emil, emil_8_tree_model, kind, change):
    evaluator = (PatternMatchOracle() if kind == "oracle"
                 else ModelEvaluator(emil_8_tree_model, emil))
    failure = em_as_one_at_a_time(small_emil(emil, **change), evaluator)
    if kind == "oracle":  # the model encodes the off-domain numbers
        assert type(failure.__cause__) is ValueError


@pytest.mark.parametrize(
    "case",
    [lambda emil: ParameterSpace("extra-key", small_emil(emil).parameters
                                 + (Parameter("X", "levels", (1, 3)),)),
     lambda emil: small_emil(emil, **{"ACC-A": None}),
     lambda emil: emil,
     lambda emil: ParameterSpace("no-names", ())],
    ids=["extra-key", "missing-key", "empty", "no-names"],
)
def test_pm_evaluate_many_keys_each_configuration_where_columns_cannot(emil, case, monkeypatch):
    """Shapes that the dict path could not key a column at a time: an extra
    parameter (in every jitter key), a missing one, no rows, no parameters."""
    space = case(emil)
    codes = space.codes()[:0] if space is emil else space.codes()
    oracle = PatternMatchOracle()
    expected = outcome(lambda: [oracle.evaluate(c) for c in space.configs(codes)])
    if isinstance(expected, tuple):  # a configuration fails
        em_as_one_at_a_time(space, oracle)
    else:  # values, which the NumPy path must give
        monkeypatch.setattr(oracle, "evaluate", unreachable)
        assert outcome(lambda: oracle.evaluate_codes(space, codes)) == expected


@pytest.mark.parametrize(
    "overrides, error",
    [({"input_mb": math.inf}, InvalidMeasurementError),
     ({"input_mb": 1e6, "acc_power_w": 1e307}, InvalidMeasurementError),
     ({"cpu_base_rate_mb_s": 1e-320}, InvalidMeasurementError),
     ({"input_mb": 1000.0, "cpu_power_w": 5e-324}, UndefinedEfficiencyError)],
    ids=["infinite-input", "energy-overflow", "time-overflow", "zero-power"],
)
def test_pm_evaluate_many_rejects_as_evaluate(emil, overrides, error):
    failure = em_as_one_at_a_time(emil, PatternMatchOracle(**overrides))
    assert type(failure.__cause__) is error


# ----- CommandEvaluator ----------------------------------------------------------------


STUB = textwrap.dedent(
    """
    import sys
    w = int(sys.argv[1])
    workload = 100.0
    cpu_mb = workload * w / 100.0
    acc_mb = workload - cpu_mb
    cpu_t = 0.02 * w if w else 0.0
    acc_t = 0.015 * (100 - w) if w < 100 else 0.0
    cpu_e = 105.0 * cpu_t
    acc_e = 250.0 * acc_t
    print("measurement rig booting")  # noise the parser must skip
    row = [w, 100 - w, workload, cpu_t, acc_t, cpu_e, acc_e, cpu_mb, acc_mb]
    print(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    """
).strip()


@pytest.fixture()
def stub_command(tmp_path):
    script = tmp_path / "stub.py"
    script.write_text(STUB + "\n")
    return f'"{sys.executable}" "{script}" {{CPU-W}}'


def test_command_substitution(ida, stub_command):
    evaluator = CommandEvaluator(stub_command, ida)
    config = ida.make_config({"CPU-W": 40})
    assert evaluator.substitute(config).endswith(" 40")


def test_command_evaluates_stub(ida, stub_command):
    evaluator = CommandEvaluator(stub_command, ida)
    value = evaluator.evaluate(ida.make_config({"CPU-W": 40}))
    # independent computation of the stub's fixed formula
    cpu_t, acc_t = 0.02 * 40, 0.015 * 60
    time = max(cpu_t, acc_t)
    power = 105.0 + 250.0
    assert value == pytest.approx((100.0 / time) / power, rel=REL)


def test_command_appends_to_log(ida, stub_command, tmp_path):
    log = tmp_path / "measured.csv"
    evaluator = CommandEvaluator(stub_command, ida, log_path=str(log))
    evaluator.evaluate(ida.make_config({"CPU-W": 10}))
    evaluator.evaluate(ida.make_config({"CPU-W": 20}))
    replay = ReplayEvaluator.from_log(str(log), ida)
    assert len(replay) == 2


def test_command_unknown_placeholder(ida):
    with pytest.raises(ValueError):
        CommandEvaluator("prog {WAT}", ida)


def test_command_nonzero_exit(ida, tmp_path):
    script = tmp_path / "fail.py"
    script.write_text("import sys; sys.exit(3)\n")
    evaluator = CommandEvaluator(f'"{sys.executable}" "{script}"', ida)
    with pytest.raises(CommandExecutionError) as excinfo:
        evaluator.evaluate(ida.make_config({"CPU-W": 5}))
    assert excinfo.value.returncode == 3


def test_command_timeout(ida, tmp_path):
    script = tmp_path / "hang.py"
    script.write_text("import time; time.sleep(60)\n")
    evaluator = CommandEvaluator(
        f'"{sys.executable}" "{script}"', ida, timeout_s=0.5
    )
    with pytest.raises(CommandExecutionError) as excinfo:
        evaluator.evaluate(ida.make_config({"CPU-W": 5}))
    assert "timed out" in str(excinfo.value)


def test_command_missing_row_for_config(ida, tmp_path):
    script = tmp_path / "wrong.py"
    # always reports CPU-W=99 regardless of the requested configuration
    script.write_text(
        "print('99,1,100.0,1.0,0.5,105.0,125.0,99.0,1.0')\n"
    )
    evaluator = CommandEvaluator(f'"{sys.executable}" "{script}"', ida)
    with pytest.raises(CommandExecutionError) as excinfo:
        evaluator.evaluate(ida.make_config({"CPU-W": 5}))
    assert "no measurement row" in str(excinfo.value)


def test_command_names_why_its_last_row_was_rejected(ida, tmp_path):
    script = tmp_path / "near-miss.py"
    # GPU-W off the complement of CPU-W; the banner has too few fields to be a row
    script.write_text(
        "print('measurement rig booting')\n"
        "print('0,99,100.0,0.0,1.0,0.0,250.0,0.0,100.0')\n"
    )
    evaluator = CommandEvaluator(f'"{sys.executable}" "{script}"', ida)
    with pytest.raises(CommandExecutionError) as excinfo:
        evaluator.evaluate(ida.make_config({"CPU-W": 0}))
    message = str(excinfo.value)
    assert message.startswith("no measurement row for the requested configuration on stdout")
    assert message.endswith(
        "last rejected row: stdout line 2: parameter 'GPU-W': "
        "expected 100 - CPU-W = 100, got 99")


def test_command_last_matching_row_wins(ida, tmp_path):
    script = tmp_path / "multi.py"
    script.write_text(
        "print('5,95,100.0,1.0,1.0,105.0,250.0,5.0,95.0')\n"
        "print('5,95,100.0,2.0,2.0,105.0,250.0,5.0,95.0')\n"
    )
    evaluator = CommandEvaluator(f'"{sys.executable}" "{script}"', ida)
    value = evaluator.evaluate(ida.make_config({"CPU-W": 5}))
    # second row: time 2.0 -> throughput 50, power 52.5+125 -> value from row 2
    assert value == pytest.approx(50.0 / (105.0 / 2 + 250.0 / 2), rel=REL)


def test_command_row_with_a_quoted_comma_label(tmp_path):
    space = space_from_dict({"name": "labels", "parameters": [
        {"name": "MODE", "kind": "categorical", "labels": ["a,b", "c"]},
        {"name": "CPU-W", "kind": "range", "min": 0, "max": 100},
    ]})
    script = tmp_path / "rig.py"
    # Each row is printed as the measurement log writes it: csv.writer quotes
    # "a,b". A line csv cannot split (a field past its size limit) is skipped.
    script.write_text(
        "import csv, sys\n"
        "print('\"' + 'x' * 200000 + '\"')\n"
        "csv.writer(sys.stdout).writerow([sys.argv[1], sys.argv[2],"
        " 100.0, 2.0, 1.0, 210.0, 250.0, 40.0, 60.0])\n"
    )
    evaluator = CommandEvaluator(f'"{sys.executable}" "{script}" {{MODE}} {{CPU-W}}', space)
    config = {"MODE": "a,b", "CPU-W": 40}
    m = evaluator.measure(config)
    assert m.config == config and m.cpu_time_s == 2.0


def test_nonexistent_binary(ida):
    evaluator = CommandEvaluator("/definitely/not/a/real/binary {CPU-W}", ida)
    with pytest.raises(CommandExecutionError):
        evaluator.evaluate(ida.make_config({"CPU-W": 5}))


# ----- make_evaluator -------------------------------------------------------------------


def test_make_evaluator_oracle(ida):
    evaluator = make_evaluator("oracle:ida-pcc", ida)
    assert isinstance(evaluator, PccOracle)


def test_make_evaluator_replay(ida):
    evaluator = make_evaluator(
        f"replay:{bundled_data_path('ida_512x32768_em')}", ida
    )
    assert isinstance(evaluator, ReplayEvaluator)


def test_make_evaluator_model(emil, small_emil_model, tmp_path):
    path = tmp_path / "model.json"
    save_model(small_emil_model, path)
    evaluator = make_evaluator(f"model:{path}", emil)
    assert isinstance(evaluator, ModelEvaluator)


def test_make_evaluator_cmd(ida, stub_command):
    evaluator = make_evaluator(f"cmd:{stub_command}", ida)
    assert isinstance(evaluator, CommandEvaluator)


def test_make_evaluator_rejects_malformed(ida):
    with pytest.raises(ValueError):
        make_evaluator("oracle", ida)
    with pytest.raises(ValueError):
        make_evaluator("martian:x", ida)
    with pytest.raises(ValueError):
        make_evaluator("model:", ida)
