"""Measurement metrics: the derivation laws and the CSV log round-trip."""

import math
import random

import numpy as np
import pytest

from heterotune import (
    InvalidMeasurementError,
    MeasurementLogError,
    RawMeasurement,
    ReplayEvaluator,
    UndefinedEfficiencyError,
    append_measurement,
    bundled_data_path,
    derive_all,
    energy,
    energy_efficiency,
    exec_time,
    power,
    read_measurement_log,
    throughput,
    unit_throughputs,
    write_measurement_log,
)
from heterotune.metrics import energy_efficiencies

REL = 1e-12


def measurement(
    ida,
    *,
    cpu_w=60,
    workload=100.0,
    cpu_time=0.0,
    acc_time=0.0,
    cpu_energy=0.0,
    acc_energy=0.0,
    cpu_workload=None,
    acc_workload=None,
):
    if cpu_workload is None:
        cpu_workload = workload * cpu_w / 100.0
    if acc_workload is None:
        acc_workload = workload - cpu_workload
    return RawMeasurement(
        config=ida.make_config({"CPU-W": cpu_w}),
        workload_mb=workload,
        cpu_time_s=cpu_time,
        acc_time_s=acc_time,
        cpu_energy_j=cpu_energy,
        acc_energy_j=acc_energy,
        cpu_workload_mb=cpu_workload,
        acc_workload_mb=acc_workload,
    )


def random_measurement(ida, rng):
    """A random self-consistent busy-busy measurement."""
    cpu_w = rng.randint(1, 99)
    workload = rng.uniform(1.0, 10_000.0)
    return measurement(
        ida,
        cpu_w=cpu_w,
        workload=workload,
        cpu_time=rng.uniform(0.01, 100.0),
        acc_time=rng.uniform(0.01, 100.0),
        cpu_energy=rng.uniform(0.1, 10_000.0),
        acc_energy=rng.uniform(0.1, 10_000.0),
    )


# ----- worked examples ----------------------------------------------------------


def test_exec_time_is_max_of_units(ida):
    m = measurement(ida, cpu_time=2.0, acc_time=3.0, cpu_energy=1.0, acc_energy=1.0)
    assert exec_time(m) == 3.0


def test_exec_time_cpu_only(ida):
    m = measurement(
        ida, cpu_w=100, cpu_time=5.0, acc_time=0.0, cpu_energy=1.0, acc_energy=0.0
    )
    assert exec_time(m) == 5.0


def test_exec_time_balanced(ida):
    m = measurement(ida, cpu_time=4.0, acc_time=4.0, cpu_energy=1.0, acc_energy=1.0)
    assert exec_time(m) == 4.0


def test_throughput_total(ida):
    m = measurement(ida, workload=100.0, cpu_time=4.0, acc_time=2.0,
                    cpu_energy=1.0, acc_energy=1.0)
    assert throughput(m) == 25.0


def test_unit_throughputs_idle_unit_is_zero(ida):
    m = measurement(
        ida, cpu_w=100, cpu_time=5.0, acc_time=0.0, cpu_energy=1.0, acc_energy=0.0
    )
    cpu_thr, acc_thr = unit_throughputs(m)
    assert acc_thr == 0.0
    assert cpu_thr == 100.0 / 5.0


def test_unit_throughputs_both_busy(ida):
    m = measurement(
        ida,
        cpu_w=60,
        workload=100.0,
        cpu_time=3.0,
        acc_time=2.0,
        cpu_energy=1.0,
        acc_energy=1.0,
    )
    cpu_thr, acc_thr = unit_throughputs(m)
    assert cpu_thr == 20.0  # 60 MB / 3 s
    assert acc_thr == 20.0  # 40 MB / 2 s
    assert throughput(m) == pytest.approx(100.0 / 3.0, rel=REL)


def test_energy_sums_units(ida):
    m = measurement(ida, cpu_time=1.0, acc_time=1.0, cpu_energy=120.0, acc_energy=80.0)
    assert energy(m) == 200.0


def test_power_per_unit_and_total(ida):
    m = measurement(
        ida, cpu_time=4.0, acc_time=2.0, cpu_energy=200.0, acc_energy=300.0
    )
    pw = power(m)
    assert pw.cpu_w == 50.0  # 200 J / 4 s
    assert pw.acc_w == 150.0  # 300 J / 2 s
    assert pw.total_w == 200.0


def test_power_idle_unit_contributes_zero(ida):
    m = measurement(
        ida, cpu_w=100, cpu_time=4.0, acc_time=0.0, cpu_energy=200.0, acc_energy=0.0
    )
    pw = power(m)
    assert pw.acc_w == 0.0
    assert pw.total_w == 50.0


def test_energy_efficiency_worked_example(ida):
    # throughput 100 MB / 4 s = 25 MB/s; power 200 J / 4 s = 50 W -> 0.5 MB/J
    m = measurement(
        ida, cpu_w=100, cpu_time=4.0, acc_time=0.0, cpu_energy=200.0, acc_energy=0.0
    )
    assert energy_efficiency(m) == pytest.approx(0.5, rel=REL)


def test_energy_efficiency_halves_when_energies_double(ida):
    m1 = measurement(ida, cpu_time=4.0, acc_time=2.0, cpu_energy=200.0, acc_energy=300.0)
    m2 = measurement(ida, cpu_time=4.0, acc_time=2.0, cpu_energy=400.0, acc_energy=600.0)
    assert energy_efficiency(m1) == pytest.approx(2 * energy_efficiency(m2), rel=REL)


def test_replay_fixture_known_efficiency(ida):
    evaluator = ReplayEvaluator.from_log(bundled_data_path("ida_512x32768_em"), ida)
    value = evaluator.evaluate(ida.make_config({"CPU-W": 0}))
    assert value == pytest.approx(3.169, rel=REL)


# ----- derive_all and the metric laws -------------------------------------------


def test_derive_all_self_consistent(ida):
    rng = random.Random(99)
    for _ in range(100):
        m = random_measurement(ida, rng)
        d = derive_all(m)
        assert d.time_s == exec_time(m)
        assert d.throughput_mb_s == throughput(m)
        assert d.energy_j == energy(m)
        assert d.power_w == power(m).total_w
        assert d.energy_efficiency_mb_j == energy_efficiency(m)
        # efficiency * power == throughput
        assert d.energy_efficiency_mb_j * d.power_w == pytest.approx(
            d.throughput_mb_s, rel=REL
        )


def test_derive_all_idle_unit_reduces_to_busy_unit(ida):
    m = measurement(
        ida, cpu_w=0, cpu_time=0.0, acc_time=2.5, cpu_energy=0.0, acc_energy=500.0
    )
    d = derive_all(m)
    assert d.time_s == 2.5
    assert d.cpu_throughput_mb_s == 0.0
    assert d.cpu_power_w == 0.0
    assert d.power_w == 200.0
    assert d.energy_efficiency_mb_j == pytest.approx(40.0 / 200.0, rel=REL)


def test_metrics_symmetric_in_units(ida):
    a = measurement(ida, cpu_w=30, cpu_time=2.0, acc_time=5.0,
                    cpu_energy=90.0, acc_energy=700.0)
    b = measurement(ida, cpu_w=70, cpu_time=5.0, acc_time=2.0,
                    cpu_energy=700.0, acc_energy=90.0)
    assert exec_time(a) == exec_time(b)
    assert energy(a) == energy(b)
    assert power(a).total_w == pytest.approx(power(b).total_w, rel=REL)
    assert energy_efficiency(a) == pytest.approx(energy_efficiency(b), rel=REL)


# ----- validation errors ---------------------------------------------------------


def test_rejects_negative_values(ida):
    with pytest.raises(InvalidMeasurementError):
        measurement(ida, cpu_time=-1.0, acc_time=1.0, cpu_energy=1.0, acc_energy=1.0)


def test_rejects_non_finite_values(ida):
    with pytest.raises(InvalidMeasurementError):
        measurement(
            ida, cpu_time=math.inf, acc_time=1.0, cpu_energy=1.0, acc_energy=1.0
        )


def test_rejects_mismatched_unit_workloads(ida):
    with pytest.raises(InvalidMeasurementError):
        measurement(
            ida,
            workload=100.0,
            cpu_workload=60.0,
            acc_workload=60.0,
            cpu_time=1.0,
            acc_time=1.0,
            cpu_energy=1.0,
            acc_energy=1.0,
        )


def test_rejects_idle_unit_with_time(ida):
    with pytest.raises(InvalidMeasurementError):
        measurement(
            ida, cpu_w=0, cpu_time=1.0, acc_time=2.0, cpu_energy=0.0, acc_energy=10.0
        )


def test_rejects_idle_unit_with_energy(ida):
    with pytest.raises(InvalidMeasurementError):
        measurement(
            ida, cpu_w=0, cpu_time=0.0, acc_time=2.0, cpu_energy=5.0, acc_energy=10.0
        )


def test_zero_execution_time_rejected(ida):
    m = measurement(
        ida,
        cpu_w=60,
        cpu_time=0.0,
        acc_time=0.0,
        cpu_energy=0.0,
        acc_energy=0.0,
        cpu_workload=0.0,
        acc_workload=0.0,
        workload=0.0,
    )
    with pytest.raises(InvalidMeasurementError):
        throughput(m)


def test_power_rejects_energy_without_time(ida):
    m = measurement(
        ida,
        cpu_w=100,
        cpu_time=1.0,
        acc_time=0.0,
        cpu_energy=1.0,
        acc_energy=0.0,
    )
    bad = RawMeasurement(
        config=m.config,
        workload_mb=m.workload_mb,
        cpu_time_s=1.0,
        acc_time_s=0.0,
        cpu_energy_j=1.0,
        acc_energy_j=0.0,
        cpu_workload_mb=m.workload_mb,
        acc_workload_mb=0.0,
    )
    assert power(bad).acc_w == 0.0  # idle unit: fine
    object.__setattr__(bad, "acc_energy_j", 7.0)  # corrupt it past validation
    with pytest.raises(InvalidMeasurementError):
        power(bad)


def test_zero_power_efficiency_undefined(ida):
    m = measurement(
        ida,
        cpu_w=100,
        cpu_time=2.0,
        acc_time=0.0,
        cpu_energy=0.0,
        acc_energy=0.0,
    )
    with pytest.raises(UndefinedEfficiencyError):
        energy_efficiency(m)


def efficiency_columns_cases():
    """Measurements as value tuples: random valid ones, then one that breaks
    each check of RawMeasurement and energy_efficiency."""
    rng = random.Random(4)
    cases = []
    for _ in range(300):
        workload = rng.uniform(1.0, 1e4)
        cpu_share = rng.choice([0.0, 1.0, rng.random()])
        cpu_workload = workload * cpu_share
        acc_workload = workload - cpu_workload
        cpu_time = rng.uniform(0.1, 10.0) if cpu_workload else 0.0
        acc_time = rng.uniform(0.1, 10.0) if acc_workload else 0.0
        cases.append((workload, cpu_time, acc_time, 100.0 * cpu_time, 300.0 * acc_time,
                      cpu_workload, acc_workload))
    good = (100.0, 2.0, 1.0, 200.0, 300.0, 60.0, 40.0)
    for column in range(7):
        for bad in (-1.0, math.nan, math.inf, -math.inf):
            cases.append(good[:column] + (bad,) + good[column + 1:])
    cases += [
        (100.0, 2.0, 1.0, 200.0, 300.0, 60.0, 41.0),  # unit workloads miss the total
        (100.0, 2.0, 1.0, 200.0, 300.0, 60.0, 40.0 + 1e-6),  # outside isclose
        (100.0, 2.0, 1.0, 200.0, 300.0, 60.0, 40.0 + 1e-10),  # inside isclose
        (1e-3, 2.0, 1.0, 200.0, 300.0, 6e-4, 4e-4 + 5e-9),  # outside the absolute tolerance
        (1e-3, 2.0, 1.0, 200.0, 300.0, 6e-4, 4e-4 + 5e-10),  # inside it
        (1e308, 2.0, 1.0, 200.0, 300.0, 1e308, 1e308),  # the unit workloads overflow
        (100.0, 2.0, 1.0, 200.0, 300.0, 0.0, 100.0),  # idle cpu with time
        (100.0, 0.0, 1.0, 200.0, 300.0, 0.0, 100.0),  # idle cpu with energy
        (100.0, 0.0, 1.0, 0.0, 300.0, 100.0, 0.0),  # idle acc with time
        (100.0, 0.0, 0.0, 0.0, 300.0, 100.0, 0.0),  # idle acc with energy, no time
        (100.0, 0.0, 0.0, 200.0, 0.0, 60.0, 40.0),  # energy without time
        (100.0, 0.0, 1.0, 200.0, 300.0, 60.0, 40.0),  # cpu energy without time
        (100.0, 2.0, 1.0, 0.0, 0.0, 60.0, 40.0),  # zero power
        (100.0, 0.0, 0.0, 0.0, 0.0, 60.0, 40.0),  # zero time
        (100.0, 1e-320, 0.0, 1e300, 0.0, 100.0, 0.0),  # power overflows to inf
    ]
    return cases


def test_energy_efficiencies_match_one_at_a_time():
    cases = efficiency_columns_cases()
    columns = [np.array(column) for column in zip(*cases)]
    values, valid = energy_efficiencies(*columns)
    for case, value, ok in zip(cases, values.tolist(), valid.tolist()):
        try:
            expected = energy_efficiency(RawMeasurement({}, *case))
        except (InvalidMeasurementError, UndefinedEfficiencyError):
            assert not ok, case
        else:
            assert ok, case
            assert np.float64(value).tobytes() == np.float64(expected).tobytes(), case
    assert not valid.all() and valid.sum() > 300


# ----- measurement logs -----------------------------------------------------------


def test_log_round_trip_exact(ida, tmp_path):
    rng = random.Random(4)
    rows = [random_measurement(ida, rng) for _ in range(25)]
    path = tmp_path / "log.csv"
    write_measurement_log(path, ida, rows)
    back = read_measurement_log(path, ida)
    assert back == rows  # repr round-trip keeps every float bit-exact


def test_append_measurement(ida, tmp_path):
    rng = random.Random(5)
    path = tmp_path / "log.csv"
    first = random_measurement(ida, rng)
    second = random_measurement(ida, rng)
    append_measurement(path, ida, first)
    append_measurement(path, ida, second)
    assert read_measurement_log(path, ida) == [first, second]


def test_append_measurement_to_a_log_that_is_not_utf8(ida, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\xff\xfe")
    row = random_measurement(ida, random.Random(5))
    with pytest.raises(MeasurementLogError, match="can't decode") as excinfo:
        append_measurement(path, ida, row)
    assert f"malformed measurement log {path}: " in str(excinfo.value)
    assert path.read_bytes() == b"\xff\xfe"


def test_log_header_mismatch_reports_line(ida, emil, tmp_path):
    path = tmp_path / "log.csv"
    write_measurement_log(path, emil, [])
    with pytest.raises(MeasurementLogError) as excinfo:
        read_measurement_log(path, ida)
    assert excinfo.value.line_number == 1


def test_log_malformed_row_reports_line(ida, tmp_path):
    path = tmp_path / "log.csv"
    write_measurement_log(path, ida, [])
    with path.open("a") as sink:
        sink.write("60,40,not-a-number,1,1,1,1,60,40\n")
    with pytest.raises(MeasurementLogError) as excinfo:
        read_measurement_log(path, ida)
    assert excinfo.value.line_number == 2


def test_log_wrong_column_count_reports_line(ida, tmp_path):
    path = tmp_path / "log.csv"
    write_measurement_log(path, ida, [])
    with path.open("a") as sink:
        sink.write("60,40,1\n")
    with pytest.raises(MeasurementLogError) as excinfo:
        read_measurement_log(path, ida)
    assert excinfo.value.line_number == 2


def test_log_line_csv_cannot_split_reports_line(ida, tmp_path):
    path = tmp_path / "long.csv"
    rng = random.Random(6)
    write_measurement_log(path, ida, [random_measurement(ida, rng) for _ in range(3)])
    with path.open("a") as sink:
        sink.write('"' + "x" * 200_000 + '",40,1,1,1,1,1,60,40\n')
    with pytest.raises(MeasurementLogError, match="line 5: field larger") as excinfo:
        read_measurement_log(path, ida)
    assert excinfo.value.line_number == 5


def test_log_missing_file(ida, tmp_path):
    with pytest.raises(MeasurementLogError):
        read_measurement_log(tmp_path / "absent.csv", ida)
