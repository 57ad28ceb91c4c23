"""Context-tree trie with exact evidence, MAP-tree and posterior-sampling sweeps.

The trie holds every observed context of length 0..D, one node per context,
with per-node sufficient statistics owned by a leaf model.  A leaf model is
any object providing::

    order          -> int, number of raw lag values consumed per observation
    new_state()    -> fresh per-node statistics object
    observe(states, x, lags)
                   -> accumulate one observation into each of the states,
                      the D+1 nodes of its context path
    observe_batch(inverse, x, lags)
                   -> one new state per index 0..K-1 of inverse, holding the
                      rows i (of x and of the 2-D lags array) with
                      inverse[i] equal to it, as observe would leave it
    log_pe(states) -> list of floats, the log marginal likelihood of each
                      state's data; ``full_sweep`` calls it once per depth and
                      ``refresh_path`` once per path, so a state's value must
                      not depend on the other states in the call
    refresh(trie, path, context, step)
                   -> update the sweeps after the ``step``-th online sample
                      was observed along ``path`` (``context``'s nodes), e.g.
                      by ``trie.refresh_path(context)``

Three quantities are maintained per node, all in natural-log domain:

* ``log_pe``  -- marginal likelihood of the data routed through the node;
* ``log_pw``  -- weighted mixture over all subtree models, so that the root
  value is the log evidence with trees and parameters integrated out;
* ``log_pm``  -- maximised counterpart, so that the root value is the log of
  max_T prior(T) * likelihood(T), realised by the pruned MAP tree.

Recursions (proper m-ary trees of depth <= D, mixing weight beta):

* weighted: leaves at depth D take P_w = P_e, internal nodes take
  ``beta * P_e + (1 - beta) * prod_j P_w(child_j)``;
* maximising: leaves at depth D take P_m = P_e, empty nodes at depth < D
  take P_m = beta, internal nodes take
  ``max(beta * P_e, (1 - beta) * prod_j P_m(child_j))``.

A context never observed contributes P_w = 1 exactly (its prior-weighted
subtree mixture integrates no data), while its maximised counterpart is
beta, the prior mass of the bare node.  On ties in the maximising recursion
the node is pruned, preferring the smaller tree.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import exp, log, log1p
from typing import Iterator, Optional, Sequence

import numpy as np

from ._num import log_add


def default_beta(m: int) -> float:
    """Default prior mixing weight 1 - 2^(1-m) for alphabet size m."""
    if m < 2:
        raise ValueError("alphabet size must be >= 2")
    return 1.0 - 2.0 ** (-(m - 1))


@dataclass(frozen=True)
class TreeModel:
    """A proper m-ary context tree, identified with its set of leaves.

    Leaf contexts are tuples of symbols, most recent first; the root-only
    tree has the single empty leaf ().  Properness (every internal node has
    exactly m children) is validated on construction and leaves are stored
    in sorted order so equal trees compare equal.
    """

    m: int
    leaves: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        leaves = tuple(sorted(tuple(int(s) for s in leaf) for leaf in self.leaves))
        object.__setattr__(self, "leaves", leaves)
        if self.m < 2:
            raise ValueError("alphabet size must be >= 2")
        if not leaves:
            raise ValueError("a tree has at least the root leaf")
        self._validate_proper()

    def _validate_proper(self):
        leafset = set(self.leaves)
        if len(leafset) != len(self.leaves):
            raise ValueError("duplicate leaves")
        internal: set[tuple[int, ...]] = set()
        for leaf in self.leaves:
            for s in leaf:
                if not 0 <= s < self.m:
                    raise ValueError(f"symbol {s} outside alphabet of size {self.m}")
            for k in range(len(leaf)):
                internal.add(leaf[:k])
        if internal & leafset:
            raise ValueError("a leaf is an ancestor of another leaf")
        if len(self.leaves) == 1:
            if self.leaves[0] != ():
                raise ValueError("a single leaf must be the root")
            return
        for node in internal:
            for j in range(self.m):
                child = node + (j,)
                if child not in leafset and child not in internal:
                    raise ValueError(f"improper tree: node {node} lacks child {j}")

    @property
    def depth(self) -> int:
        return max(len(leaf) for leaf in self.leaves)

    @property
    def num_leaves(self) -> int:
        return len(self.leaves)

    def leaves_at_depth(self, d: int) -> int:
        return sum(1 for leaf in self.leaves if len(leaf) == d)

    def state_of(self, context: tuple[int, ...]) -> tuple[int, ...]:
        """The unique leaf that prefixes the given context (the active state)."""
        leafset = set(self.leaves)
        for k in range(len(context) + 1):
            if context[:k] in leafset:
                return context[:k]
        raise KeyError(f"context {context} reaches no leaf; tree deeper than context")


def log_prior(tree: TreeModel, beta: float, depth: int) -> float:
    """Log prior of a tree: (|T|-1) log alpha + (|T| - L_D(T)) log beta.

    alpha = (1-beta)^(1/(m-1)); L_D(T) counts leaves at depth exactly
    `depth`.  Rejects trees deeper than `depth`.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    if tree.depth > depth:
        raise ValueError(f"tree depth {tree.depth} exceeds bound {depth}")
    k = tree.num_leaves
    ld = tree.leaves_at_depth(depth)
    log_alpha = log1p(-beta) / (tree.m - 1)
    return (k - 1) * log_alpha + (k - ld) * log(beta)


class _Node:
    __slots__ = ("children", "state", "log_pe", "log_pw", "log_pm", "leaf_wins")

    def __init__(self, m: int, state):
        self.children: list[Optional[_Node]] = [None] * m
        self.state = state
        self.log_pe = 0.0
        self.log_pw = 0.0
        self.log_pm = 0.0
        self.leaf_wins = True


class ContextTrie:
    """The smallest trie covering every observed context, with its sweeps.

    Building is single-writer: ``observe`` routes one sample through the
    D+1 nodes on its context path, creating nodes lazily, and
    ``observe_all`` routes a whole batch into a fresh trie.  ``full_sweep``
    (post-order) or ``refresh_path`` (after a single new observation)
    recompute the per-node quantities; read-only queries are safe to run
    concurrently afterwards.
    """

    def __init__(self, leaf_model, m: int, depth: int, beta: float | None = None):
        if m < 2:
            raise ValueError("alphabet size must be >= 2")
        if depth < 0:
            raise ValueError("depth must be >= 0")
        if beta is None:
            beta = default_beta(m)
        if not 0.0 < beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if beta < 0.5:
            warnings.warn(
                "beta < 1/2: the pruned tree maximises the stated recursion but "
                "is not guaranteed to be the posterior mode",
                stacklevel=2,
            )
        self.model = leaf_model
        self.m = m
        self.depth = depth
        self.beta = beta
        self._log_beta = log(beta)
        self._log_1mbeta = log1p(-beta)
        # P_m of a never-observed subtree rooted at each depth: beta below D, 1 at D.
        self._log_pm_missing = [self._log_beta] * depth + [0.0]
        self.root = _Node(m, leaf_model.new_state())
        self.num_obs = 0
        self.num_nodes = 1
        self._swept = False
        self._ever_swept = False

    # -- building ----------------------------------------------------------

    def observe(self, x: float, context: tuple[int, ...], lags: tuple[float, ...]) -> list[_Node]:
        """Route one sample through its context path; returns the path nodes."""
        if len(context) != self.depth:
            raise ValueError(f"context length {len(context)} != depth {self.depth}")
        node = self.root
        path = [node]
        for sym in context:
            child = node.children[sym]
            if child is None:
                child = _Node(self.m, self.model.new_state())
                node.children[sym] = child
                self.num_nodes += 1
            path.append(child)
            node = child
        self.model.observe([p.state for p in path], x, lags)
        self.num_obs += 1
        self._swept = False
        return path

    def observe_all(self, contexts: Sequence[np.ndarray], x: np.ndarray, lags: np.ndarray) -> None:
        """Route every sample of a batch into a fresh trie, one depth at a time.

        ``contexts[d]`` holds the (d+1)-th most recent symbol of every
        sample, ``x`` the samples and ``lags`` one row of raw lags per
        sample.  Sample i's node at depth d is numbered by relabelling
        ``node_{d-1}[i] * m + contexts[d-1][i]`` to 0..K-1, so codes stay
        below len(x) * m at any depth.  The nodes and statistics equal those
        of calling ``observe`` on each sample in turn.
        """
        if self.num_obs:
            raise RuntimeError("observe_all needs a trie that has observed nothing")
        if len(contexts) != self.depth:
            raise ValueError(f"{len(contexts)} context columns != depth {self.depth}")
        if len(x) == 0:
            return
        m = self.m
        inverse = np.zeros(len(x), dtype=np.intp)
        (self.root.state,) = self.model.observe_batch(inverse, x, lags)
        level = [self.root]
        for column in contexts:
            if column.min() < 0 or column.max() >= m:
                raise ValueError(f"context symbol outside alphabet of size {m}")
            # np.unique(key, return_inverse=True) without its sort: keys < K * m.
            key = inverse * m + column
            keys = np.flatnonzero(np.bincount(key))
            relabel = np.empty(keys[-1] + 1, dtype=np.intp)
            relabel[keys] = np.arange(len(keys))
            inverse = relabel[key]
            states = self.model.observe_batch(inverse, x, lags)
            nodes = []
            for parent, sym, state in zip((keys // m).tolist(), (keys % m).tolist(), states):
                node = _Node(m, state)
                level[parent].children[sym] = node
                nodes.append(node)
            self.num_nodes += len(nodes)
            level = nodes
        self.num_obs = len(x)
        self._swept = False

    # -- sweeps -------------------------------------------------------------

    def full_sweep(self) -> None:
        """Recompute log_pe / log_pw / log_pm at every node, one depth at a time from the bottom."""
        levels = [[self.root]]
        while len(levels) <= self.depth:
            level = [child for node in levels[-1] for child in node.children if child is not None]
            if not level:
                break
            levels.append(level)
        for depth in range(len(levels) - 1, -1, -1):
            self._score(levels[depth], [depth] * len(levels[depth]))
        self._swept = True
        self._ever_swept = True

    def _score(self, nodes: list[_Node], depths: list[int]) -> None:
        """Score the nodes in one leaf call, then combine them in order (children before parents)."""
        for node, depth, log_pe in zip(nodes, depths, self.model.log_pe([node.state for node in nodes])):
            node.log_pe = log_pe
            self._combine(node, depth)

    def _combine(self, node: _Node, depth: int) -> None:
        if depth == self.depth:
            node.log_pw = node.log_pe
            node.log_pm = node.log_pe
            node.leaf_wins = True
            return
        sum_w = 0.0
        sum_m = 0.0
        missing = self._log_pm_missing[depth + 1]
        for child in node.children:
            if child is None:
                sum_m += missing  # absent subtree: P_w = 1, P_m = prior of bare node
            else:
                sum_w += child.log_pw
                sum_m += child.log_pm
        split = node.log_pe + self._log_beta
        node.log_pw = log_add(split, self._log_1mbeta + sum_w)
        second = self._log_1mbeta + sum_m
        node.leaf_wins = split >= second  # tie -> prune, prefer the smaller tree
        node.log_pm = split if node.leaf_wins else second

    def refresh_path(self, context: tuple[int, ...]) -> None:
        """Recompute the D+1 nodes on one context path, bottom-up.

        Identical to a full sweep when only that path's statistics changed.
        Requires an initial full sweep so off-path quantities are current.
        """
        if not self._ever_swept:
            raise RuntimeError("refresh_path needs an initial full_sweep()")
        path = [self.root]
        node = self.root
        for sym in context:
            node = node.children[sym]
            if node is None:
                raise KeyError("path not present; call observe first")
            path.append(node)
        self._score(path[::-1], list(range(self.depth, -1, -1)))
        self._swept = True

    def _require_swept(self):
        if not self._swept:
            raise RuntimeError("run full_sweep() (or refresh_path) before querying")

    # -- queries ------------------------------------------------------------

    def log_evidence(self) -> float:
        """Log prior-predictive likelihood with trees and parameters integrated out."""
        self._require_swept()
        return self.root.log_pw

    def log_map_score(self) -> float:
        """Log of max over trees of prior(T) * marginal likelihood(T)."""
        self._require_swept()
        return self.root.log_pm

    def map_tree(self) -> TreeModel:
        """The tree attaining the maximising recursion, pruned top-down."""
        self._require_swept()
        leaves: list[tuple[int, ...]] = []
        self._extract(self.root, 0, (), leaves)
        return TreeModel(self.m, tuple(leaves))

    def map_node(self, context: Sequence[int]) -> Optional[_Node]:
        """The node of the MAP-tree leaf that prefixes a length-D context, in O(D).

        Walks from the root along the context and stops where ``map_tree``
        would make a leaf: at a node whose leaf wins, at depth D, or at a
        context never observed, for which it returns None.
        """
        self._require_swept()
        if len(context) != self.depth:
            raise ValueError(f"context length {len(context)} != depth {self.depth}")
        node = self.root
        for sym in context:
            if node.leaf_wins:
                break
            node = node.children[sym]
            if node is None:
                break
        return node

    def _extract(self, node: Optional[_Node], depth: int, prefix: tuple[int, ...], leaves):
        if node is None or depth == self.depth or node.leaf_wins:
            leaves.append(prefix)
            return
        for j in range(self.m):
            self._extract(node.children[j], depth + 1, prefix + (j,), leaves)

    def walk(self, context: tuple[int, ...]) -> Optional[_Node]:
        """Node for an exact context, or None if never observed."""
        node = self.root
        for sym in context:
            node = node.children[sym]
            if node is None:
                return None
        return node

    def log_joint(self, tree: TreeModel) -> float:
        """log prior(T) + sum of leaf log_pe; unobserved leaves contribute 0."""
        self._require_swept()
        if tree.m != self.m:
            raise ValueError("alphabet size mismatch")
        total = log_prior(tree, self.beta, self.depth)
        for leaf in tree.leaves:
            node = self.walk(leaf)
            if node is not None:
                total += node.log_pe
        return total

    def posterior_of(self, tree: TreeModel) -> float:
        """Exact posterior probability of one tree."""
        return exp(self.log_joint(tree) - self.log_evidence())

    def sample_tree(self, rng) -> TreeModel:
        """One exact draw from the posterior over trees.

        Top-down branching: each examined node is made a leaf with
        probability beta * P_e / P_w (beta for contexts never observed,
        certainty at depth D), else all m children are examined in turn.
        """
        self._require_swept()
        leaves: list[tuple[int, ...]] = []
        stack: list[tuple[Optional[_Node], int, tuple[int, ...]]] = [(self.root, 0, ())]
        while stack:
            node, depth, prefix = stack.pop()
            if depth == self.depth:
                leaves.append(prefix)
                continue
            if node is None:
                p_leaf = self.beta
            else:
                p_leaf = exp(min(0.0, self._log_beta + node.log_pe - node.log_pw))
            if rng.random() < p_leaf:
                leaves.append(prefix)
            else:
                for j in range(self.m):
                    child = node.children[j] if node is not None else None
                    stack.append((child, depth + 1, prefix + (j,)))
        return TreeModel(self.m, tuple(leaves))

    def nodes(self) -> Iterator[tuple[tuple[int, ...], _Node]]:
        """(context, node) pairs in depth-first order."""
        stack: list[tuple[tuple[int, ...], _Node]] = [((), self.root)]
        while stack:
            prefix, node = stack.pop()
            yield prefix, node
            for j in range(self.m - 1, -1, -1):
                child = node.children[j]
                if child is not None:
                    stack.append((prefix + (j,), child))
