"""The library names the benchmark harness (bench/tracing.py, bench/workloads.py) wraps or reads.

The traced run installs its timing wrappers by name and derives counts from
public state, so renaming one of these names, or moving an argument its
hooks read, would silently empty a per-layer metric instead of failing.
"""

import inspect

import pytest

import ctreemix as cm
from ctreemix import ar, cli, fit, io, selection
from ctreemix.arch import ArchModel
from ctreemix.fit import FittedModel
from ctreemix.tree import ContextTrie

# (owner, name, the leading parameters, as the harness passes or reads them)
WRAPPED = [
    (fit, "fit_series", ["series", "model", "quantizer", "depth"]),
    (FittedModel, "predict_next", ["self"]),
    (FittedModel, "update", ["self", "x"]),
    (ContextTrie, "full_sweep", ["self"]),
    (ContextTrie, "refresh_path", ["self", "path"]),
    (ContextTrie, "map_tree", ["self"]),
    (ContextTrie, "sample_tree", ["self", "rng"]),
    (ContextTrie, "posterior_of", ["self", "tree"]),
    (ContextTrie, "nodes", ["self"]),
    (ar, "log_pe_ar", ["states", "hp"]),
    (ar, "posterior_ar", ["stats", "hp"]),
    (ArchModel, "fit_state", ["self", "state", "warm", "iters"]),
    (selection, "select_hyperparams", ["train", "grid", "model_factory", "depth"]),
    (io, "ingest_csv", ["path"]),
    (io, "write_series_csv", ["series", "path"]),
    (cli, "cmd_evidence_grid", ["args"]),
    (cli, "cmd_sample_trees", ["args"]),
    (cli, "main", ["argv"]),
]


@pytest.mark.parametrize("owner, name, params", WRAPPED, ids=[f"{o.__name__}.{n}" for o, n, _ in WRAPPED])
def test_wrapped_names_keep_their_parameters(owner, name, params):
    fn = vars(owner)[name]  # methods are replaced through the class __dict__
    assert list(inspect.signature(fn).parameters)[: len(params)] == params


def test_public_state_the_harness_reads():
    series = cm.generate(cm.builtin_specs()["arch_sim"].spec, 120, seed=1)[:120]
    model = cm.ArchModel(cm.ArchConfig(order=2))
    fitted = cm.fit_series(series, model, cm.Quantizer((0.0,)), 2)
    assert (fitted.depth, fitted.trie.depth, fitted.num_scored) == (2, 2, 118)
    nodes = list(fitted.trie.nodes())
    assert fitted.trie.num_nodes == len(nodes)
    assert all(node.state.flagged in (True, False) for _, node in nodes)
    state = fitted.trie.root.state
    model.fit_state(state, True, 2)  # the fit_state hook reads the iterations from args[3]
    assert state.count == 118 and state.nonconverged in (True, False) and model.cfg.fisher_iters == 10
    grid = cm.SelectionGrid(orders=(1,), thresholds=((0.0,),))
    result = cm.select_hyperparams(series, grid, lambda order: cm.ArchModel(cm.ArchConfig(order=order)), 2)
    assert [cell.error for cell in result.table] == [None]
