import numpy as np
import pytest

from ctreemix import ArchConfig, ArHyperParams, ArModel, Quantizer, builtin_specs, fit_series, generate
from ctreemix import selection
from ctreemix.forecasting import RunConfig
from ctreemix.selection import (
    SelectionGrid,
    candidate_grid,
    percentile_threshold_grid,
    select_hyperparams,
)


def ar_factory(intercept=False):
    return RunConfig(leaf=ArHyperParams(1, intercept=intercept), thresholds=(0.0,), depth=6).make_model


def test_single_candidate_returned():
    series = generate(builtin_specs()["sim_1"].spec, 120, seed=0)
    grid = SelectionGrid(orders=(2,), thresholds=((0.0,),))
    res = select_hyperparams(series, grid, ar_factory(), depth=6)
    assert res.thresholds == (0.0,) and res.order == 2
    assert len(res.table) == 1


def test_table_invariant_to_candidate_order():
    series = generate(builtin_specs()["sim_1"].spec, 150, seed=1)
    a = SelectionGrid(orders=(1, 2), thresholds=((0.0,), (0.1,)))
    b = SelectionGrid(orders=(2, 1), thresholds=((0.1,), (0.0,)))
    ra = select_hyperparams(series, a, ar_factory(), depth=6)
    rb = select_hyperparams(series, b, ar_factory(), depth=6)
    assert (ra.thresholds, ra.order) == (rb.thresholds, rb.order)
    cells_a = {(c.thresholds, c.order): c.log_evidence for c in ra.table}
    cells_b = {(c.thresholds, c.order): c.log_evidence for c in rb.table}
    assert cells_a == cells_b


def test_ties_prefer_smaller_order():
    # zero but for the first and last two samples: lag 2 is zero in every scored row, so orders 1 and 2 tie exactly
    series = np.zeros(40)
    series[0] = 0.7
    series[-2:] = (0.4, 1.1)
    for orders in ((1, 2), (2, 1)):
        res = select_hyperparams(series, SelectionGrid(orders=orders, thresholds=((0.0,),)), ar_factory(), depth=3)
        cells = {c.order: c.log_evidence.hex() for c in res.table}
        assert cells[1] == cells[2]
        assert res.order == 1


@pytest.mark.parametrize("thresholds", [((0.5,), (0.6,)), ((0.6,), (0.5,))], ids=["listed-first", "listed-last"])
def test_exact_tie_prefers_smaller_thresholds(thresholds):
    # no sample lies in [0.5, 0.6), so both thresholds code the series alike and every cell ties exactly
    series = generate(builtin_specs()["sim_1"].spec, 400, seed=3)
    series = series[(series < 0.5) | (series >= 0.6)]
    res = select_hyperparams(series, SelectionGrid(orders=(1, 2), thresholds=thresholds), ar_factory(), depth=6)
    cells = {(c.thresholds, c.order): c.log_evidence.hex() for c in res.table}
    assert all(cells[(0.5,), order] == cells[(0.6,), order] for order in (1, 2))
    assert res.thresholds == (0.5,)


def test_percentile_grid_properties():
    rng = np.random.default_rng(2)
    data = rng.normal(size=400)
    grid = percentile_threshold_grid(data, 2, points=17)
    assert len(grid) == 17
    values = [t[0] for t in grid]
    assert values == sorted(values)
    assert values[0] >= np.percentile(data, 10) - 1e-12
    assert values[-1] <= np.percentile(data, 90) + 1e-12
    pairs = percentile_threshold_grid(data, 3, points=6)
    assert all(a < b for a, b in pairs)
    assert len(pairs) == 15  # C(6, 2)
    with pytest.raises(ValueError, match="^alphabet size must be >= 2$"):
        percentile_threshold_grid(data, 1)


def test_degenerate_grid_reported():
    series = generate(builtin_specs()["sim_1"].spec, 100, seed=3)
    grid = SelectionGrid(orders=(50,), thresholds=((0.0,),))  # order exceeds data
    with pytest.raises(ValueError, match="series of length 45 is shorter than the initial segment of 50 samples"):
        select_hyperparams(series[:45], grid, ar_factory(), depth=40)


def test_programming_errors_propagate():
    series = generate(builtin_specs()["sim_1"].spec, 100, seed=3)
    grid = SelectionGrid(orders=(1, 2), thresholds=((0.0,),))

    def broken_factory(order):
        raise TypeError("bad factory")

    with pytest.raises(TypeError, match="bad factory"):
        select_hyperparams(series, grid, broken_factory, depth=4)


def test_nested_truth_wins_on_long_series():
    # the order-2 generator should beat order-1 on most long realisations
    spec = builtin_specs()["sim_1"].spec
    wins = 0
    for seed in range(10):
        series = generate(spec, 400, seed=seed)
        grid = SelectionGrid(orders=(1, 2), thresholds=((0.0,),))
        res = select_hyperparams(series, grid, ar_factory(), depth=6)
        wins += res.order == 2
    assert wins >= 8


def test_threshold_ar_data_prefers_long_memory():
    # the two-regime lag-5 generator should drive the order choice to 5
    spec = builtin_specs()["sim_3"].spec
    wins = 0
    for seed in range(8):
        series = generate(spec, 200, seed=seed)
        grid = candidate_grid(series[:100], 2, max_order=5)
        res = select_hyperparams(series[:100], grid, ar_factory(), depth=10)
        wins += res.order == 5
    assert wins >= 5


def test_grid_validation():
    with pytest.raises(ValueError):
        SelectionGrid(orders=(), thresholds=((0.0,),))
    with pytest.raises(ValueError):
        SelectionGrid(orders=(1,), thresholds=((0.3, 0.1),))
    with pytest.raises(ValueError, match=r"^order 2 is given more than once$"):
        SelectionGrid(orders=(1, 2, 3, 2), thresholds=((0.0,),))
    with pytest.raises(ValueError, match=r"^threshold candidate \[-0.1, 0.2\] is given more than once$"):
        SelectionGrid(orders=(1,), thresholds=((-0.1, 0.2), (0.0, 0.2), (-0.1, 0.2)))


def test_every_cell_scores_the_same_samples():
    # depth 1 < largest order 5: each order's fit starts where its initial segment ends at max order's
    spec = builtin_specs()["sim_2"].spec
    series = generate(spec, 600, seed=9) * 5
    thresholds = tuple(5 * t for t in spec.quantizer.thresholds)
    grid = SelectionGrid(orders=(1, 2, 3, 4, 5), thresholds=(thresholds,))
    make = RunConfig(leaf=ArHyperParams(1), thresholds=thresholds, depth=1).make_model
    res = select_hyperparams(series, grid, make, depth=1)
    assert res.order == 2  # scored from each order's own init, order 3 won
    for cell in res.table:
        fitted = fit_series(series[5 - max(1, cell.order):], make(cell.order), Quantizer(thresholds), 1)
        assert fitted.num_scored == len(series) - 5
        assert cell.log_evidence == fitted.log_evidence()


def test_a_series_of_exactly_the_initial_segment_fails_before_any_ingest(monkeypatch):
    # each cell would score no sample and report a log evidence of 0.0
    series = generate(builtin_specs()["sim_1"].spec, 100, seed=3)[:9]
    monkeypatch.setattr(selection, "_ingest", lambda *args: pytest.fail("the series was ingested"))
    with pytest.raises(ValueError, match=r"^training series of length 9 is no longer than the initial segment of 9 "
                                         r"samples \(max of depth and largest order\), so none is scored$"):
        select_hyperparams(series, SelectionGrid(orders=(1, 9), thresholds=((0.0,),)), ar_factory(), depth=2)


def test_an_order_longer_than_the_series_fails_before_any_ingest(monkeypatch):
    series = generate(builtin_specs()["sim_1"].spec, 100, seed=3)[:8]
    monkeypatch.setattr(selection, "_ingest", lambda *args: pytest.fail("the series was ingested"))
    with pytest.raises(ValueError, match=r"^training series of length 8 is shorter than the initial segment of 9 "
                                         r"samples \(max of depth and largest order\), so none is scored$"):
        select_hyperparams(series, SelectionGrid(orders=(1, 9), thresholds=((0.0,),)), ar_factory(), depth=2)


@pytest.mark.parametrize("kind, intercept, depth", [
    ("ar", False, 4), ("ar", True, 4), ("ar", False, 2), ("ar", True, 1), ("arch", False, 3), ("arch", False, 1),
], ids=["ar-deep", "ar-intercept-deep", "ar-shallow", "ar-intercept-shallow", "arch-deep", "arch-shallow"])
def test_every_cell_equals_a_fit_at_its_order(kind, intercept, depth):
    # one ingest per threshold set at order 3, narrowed per order; depth >= and < the largest order
    spec = builtin_specs()["arch_sim" if kind == "arch" else "sim_2"].spec
    series = generate(spec, 300 if kind == "arch" else 500, seed=depth)
    orders = (0, 1, 2, 3) if kind == "arch" else (1, 2, 3)
    grid = SelectionGrid(orders=orders, thresholds=((-0.3, 0.3), (-0.5, 0.1)))
    leaf = ArchConfig(1) if kind == "arch" else ArHyperParams(1, intercept=intercept)
    make = RunConfig(leaf=leaf, thresholds=(-0.3, 0.3), depth=depth).make_model
    res = select_hyperparams(series, grid, make, depth)
    init = max(depth, 3)
    assert [(cell.order, cell.thresholds) for cell in res.table] == [
        (order, thr) for order in orders for thr in sorted(grid.thresholds)]
    for cell in res.table:
        fitted = fit_series(series[init - max(depth, cell.order):], make(cell.order), Quantizer(cell.thresholds), depth)
        assert fitted.num_scored == len(series) - init
        assert cell.error is None and cell.log_evidence == fitted.log_evidence(), cell


def test_one_ingest_per_threshold_set(monkeypatch):
    ingests = []
    observe_batch = ArModel.observe_batch
    monkeypatch.setattr(ArModel, "observe_batch",
                        lambda model, *args: ingests.append(model.order) or observe_batch(model, *args))
    series = generate(builtin_specs()["sim_2"].spec, 600, seed=1)
    grid = candidate_grid(series, 3, max_order=3, points=4)
    res = select_hyperparams(series, grid, ar_factory(), depth=10)
    assert len(res.table) == 18 and all(cell.error is None for cell in res.table)
    assert ingests == [3] * 6  # at the largest order, one per threshold pair


def test_a_failed_ingest_fails_every_cell_of_its_threshold_set():
    series = generate(builtin_specs()["sim_1"].spec, 200, seed=3)
    grid = SelectionGrid(orders=(1, 2), thresholds=((0.0,), (float("nan"),)))
    res = select_hyperparams(series, grid, ar_factory(), depth=3)
    failed = [cell for cell in res.table if cell.error is not None]
    assert [cell.order for cell in failed] == [1, 2]
    assert all(cell.error == "thresholds must be finite" and np.isnan(cell.thresholds[0]) for cell in failed)
    assert (res.thresholds, res.order) in {((0.0,), 1), ((0.0,), 2)}


def test_a_grid_whose_every_threshold_set_fails_raises_with_the_first_error():
    series = generate(builtin_specs()["sim_1"].spec, 200, seed=3)
    grid = SelectionGrid(orders=(1, 2), thresholds=((float("nan"),),))
    with pytest.raises(RuntimeError, match=r"^every grid candidate failed; the first: thresholds must be finite$"):
        select_hyperparams(series, grid, ar_factory(), depth=3)
