"""Context-tree trie with exact evidence, MAP-tree and posterior-sampling sweeps.

The trie holds every observed context of length 0..D, one node per context,
numbered 0 (the root), 1, 2, ... in the order the nodes are made.  Node i's
children are the Python list ``_kids[i]`` of m ids, -1 for a context never
observed, and the ids of each depth are recorded as their nodes are made;
the sweep values below are lists indexed by id.  The per-node sufficient
statistics live in a store owned by the leaf model, indexed by the same
ids.  A leaf model is any object providing::

    order          -> int, number of raw lag values consumed per observation
    new_states(k)  -> a store of k nodes without data; a store supports
                      store[i] (node i's state), store.take(ids) (a batch
                      of nodes for observe and log_pe),
                      store.extend(other) (append other's nodes),
                      store.copy_fit(ids, sources) (give each node of ids
                      the kept fit of the node at the same place in
                      sources, whose data it equals) and
                      store.narrow(order) (a store of the same nodes,
                      unfitted, holding only the first ``order`` lags of
                      each observation, equal to observing at that order)
    observe(states, x, lags)
                   -> accumulate one observation into each state of a batch,
                      the D+1 nodes of its context path
    observe_batch(labels, x, lags)
                   -> a store of nodes 0..K-1, node k holding the rows i (of
                      x and of the 2-D lags array) with k in labels[:, i], as
                      observe would leave it
    log_pe(states) -> list of floats, the log marginal likelihood of each
                      state's data; ``full_sweep`` calls it once per sweep
                      and ``refresh_path`` once per path, so a state's value
                      must not depend on the other states in the call
    refresh(trie, path, step)
                   -> update the sweeps after the ``step``-th online sample
                      was observed along ``path`` (the root-first node ids
                      ``observe`` returned), e.g. by ``trie.refresh_path(path)``
    predict_from_state(state, lags, root_state)
                   -> for ``FittedModel``, the one-step predictive (mean,
                      variance) at the MAP parameters of ``state``
    leaf_param_doc(state, root_state)
                   -> for ``FittedModel``, one leaf's parameter document

In the last two, ``state`` is None for a context never observed: ARCH leaves
then fall back to the pooled fit of ``root_state``, AR leaves use their prior.

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

``full_sweep`` makes one ``log_pe`` call, which leaves out each
single-child node: a node above depth D with exactly one observed child.
Every sample that reaches such a node continues to that child, so the
node holds exactly the child's samples in the same order, and its
statistics (the same terms added in the same order), log_pe and fit
equal the child's bit for bit.  The single-child nodes, the deepest
first, take their child's log_pe, and ``copy_fit`` gives them its fit.
This split into scored and single-child nodes depends only on the
children, so the trie keeps it as its sweep plan until a node is made.
Both sweeps then run one combine on Python floats: the children are
summed in child order 0..m-1 from 0.0 and exp and log1p are ``math``
calls.  ``full_sweep`` combines one depth at a time, the deepest first,
and ``refresh_path`` the D+1 nodes of one path, so an online step
reproduces a cold refit bit for bit.  The MAP tree and the posterior
draws come from one top-down grower (``_grow``).
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass
from itertools import repeat
from math import exp, log, log1p
from typing import Iterator, Optional, Sequence

import numpy as np

from ._num import log_add


_BLOCK = 4096  # the most uniforms sample_trees reads in one rng.random call


def default_beta(m: int) -> float:
    """Default prior mixing weight 1 - 2^(1-m) for alphabet size m."""
    if m < 2:
        raise ValueError("alphabet size must be >= 2")
    return 1.0 - 2.0 ** (-(m - 1))


def context_label(context: Sequence[int]) -> str:
    """A context as text, one digit per symbol, most recent first: "" for the root, "01" for (0, 1).

    The labels are distinct only for alphabets of at most 10 symbols (see
    ``check_labelled_alphabet``): (1, 0) and (10,) are both "10".
    """
    return "".join(map(str, context))


def check_labelled_alphabet(m: int) -> None:
    """Reject an alphabet whose contexts ``context_label`` cannot tell apart."""
    if m > 10:
        raise ValueError(f"alphabet size {m} is above 10: leaf labels write one digit per symbol, so the "
                         "contexts of a larger alphabet would share labels")


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

    @classmethod
    def _proper(cls, m: int, leaves: list[tuple[int, ...]]) -> "TreeModel":
        """The tree of leaves known to be proper tuples of ints (a trie's), without checking them again."""
        tree = object.__new__(cls)
        object.__setattr__(tree, "m", m)
        object.__setattr__(tree, "leaves", tuple(sorted(leaves)))
        return tree

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


class _NodeView:
    """A handle on one node of a trie: its id, its leaf state and its sweep values."""

    __slots__ = ("trie", "id")

    def __init__(self, trie: "ContextTrie", node_id: int):
        self.trie, self.id = trie, node_id

    @property
    def state(self):
        return self.trie.states[self.id]

    @property
    def log_pe(self) -> float:
        return self.trie._log_pe[self.id]

    @property
    def log_pw(self) -> float:
        return self.trie._log_pw[self.id]

    @property
    def log_pm(self) -> float:
        return self.trie._log_pm[self.id]

    @property
    def leaf_wins(self) -> bool:
        return self.trie._leaf_wins[self.id]


class ContextTrie:
    """The smallest trie covering every observed context, with its sweeps.

    Building is single-writer: ``observe`` routes one sample through the
    D+1 nodes on its context path, creating nodes at the end of the
    numbering, and ``observe_all`` routes a whole batch into a fresh trie.
    ``full_sweep`` (one scoring call, then the combine from the bottom) or
    ``refresh_path`` (after a single new observation) recompute the
    per-node quantities; read-only queries are safe to run concurrently
    afterwards.
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
        # Per depth d: log P_m of an absent child of a node at d, the prior of the bare
        # node (beta, or 1 at depth D); None at depth D, whose nodes have no children.
        self._log_pm_absent = [self._log_beta] * (depth - 1) + [0.0, None] if depth else [None]
        self.states = leaf_model.new_states(1)
        self.num_obs = 0
        self._kids = [[-1] * m]  # each node's children: Python lists, which the walks and the combine index
        self._levels = [[0]] + [[] for _ in range(depth)]  # the node ids of each depth, in the order made
        # The sweep values per node: Python lists, which the per-node combine
        # and the queries read and write at a fraction of numpy's cost per call.
        self._log_pe, self._log_pw, self._log_pm, self._leaf_wins = [], [], [], []
        self._add_values(1)
        self._plan = None  # full_sweep's split of the nodes, made on demand until a node is made
        self._p_leaf = None  # the draws' leaf probabilities, made on demand after each sweep
        self._swept = False
        self._ever_swept = False

    @property
    def num_nodes(self) -> int:
        return len(self._kids)

    def _add_values(self, k: int) -> None:
        """Sweep values for k more nodes, until a sweep or refresh sets them."""
        self._log_pe += [0.0] * k
        self._log_pw += [0.0] * k
        self._log_pm += [0.0] * k
        self._leaf_wins += [True] * k

    # -- building ----------------------------------------------------------

    def observe(self, x: float, context: tuple[int, ...], lags: tuple[float, ...]) -> list[int]:
        """Route one sample through its context path; returns the path's node ids, root first."""
        if len(context) != self.depth:
            raise ValueError(f"context length {len(context)} != depth {self.depth}")
        if context and (min(context) < 0 or max(context) >= self.m):  # -1 would index the last child
            raise ValueError(f"context symbol outside alphabet of size {self.m}")
        kids = self._kids
        path = [0]
        for sym in context:
            child = kids[path[-1]][sym]
            if child < 0:
                break
            path.append(child)
        have = len(path)
        if have <= self.depth:  # the deeper contexts are new: number them at the end
            for d, sym in enumerate(context[have - 1:], have):
                kids[path[-1]][sym] = len(kids)
                path.append(len(kids))
                kids.append([-1] * self.m)
                self._levels[d].append(path[-1])
            self.states.extend(self.model.new_states(len(path) - have))
            self._add_values(len(path) - have)
            self._plan = None
        self.model.observe(self.states.take(path), x, lags)
        self.num_obs += 1
        self._swept = False
        return path

    def observe_all(self, contexts: Sequence[np.ndarray], x: np.ndarray, lags: np.ndarray) -> None:
        """Route every sample of a batch into a fresh trie, one depth at a time.

        ``contexts[d]`` holds the (d+1)-th most recent symbol of every
        sample, ``x`` the samples and ``lags`` one row of raw lags per
        sample.  Sample i's node at depth d is found by relabelling
        ``node_{d-1}[i] * m + contexts[d-1][i]`` to 0..K-1, so codes stay
        below len(x) * m at any depth; the nodes of depth d are numbered
        after those of depth d-1 in that order, one contiguous run per
        depth.  The nodes and statistics equal those of calling
        ``observe`` on each sample in turn.
        """
        if self.num_obs:
            raise RuntimeError("observe_all needs a trie that has observed nothing")
        if len(contexts) != self.depth:
            raise ValueError(f"{len(contexts)} context columns != depth {self.depth}")
        if len(x) == 0:
            return
        m = self.m
        labels = np.zeros((self.depth + 1, len(x)), dtype=np.intp)  # row d: each sample's node id at depth d
        parents, syms, levels = [], [], [[0]]  # levels: each depth's node ids, one contiguous run
        inverse = labels[0]  # each sample's label at depth d-1
        for d, column in enumerate(contexts, 1):
            if column.min() < 0 or column.max() >= m:
                raise ValueError(f"context symbol outside alphabet of size {m}")
            # np.unique(key, return_inverse=True) without its sort: keys < K * m.
            key = inverse * m + column
            keys = np.flatnonzero(np.bincount(key))
            relabel = np.empty(keys[-1] + 1, dtype=np.intp)
            relabel[keys] = np.arange(len(keys))
            inverse = relabel[key]
            parents.append(levels[-1][0] + keys // m)
            syms.append(keys % m)
            first = levels[-1][-1] + 1
            labels[d] = first + inverse
            levels.append(list(range(first, first + len(keys))))
        n = levels[-1][-1] + 1
        children = np.full((n, m), -1, dtype=np.intp)
        if parents:
            children[np.concatenate(parents), np.concatenate(syms)] = np.arange(1, n)
        self._kids, self._levels = children.tolist(), levels
        self._add_values(n - 1)
        self._plan = None
        self.states = self.model.observe_batch(labels, x, lags)
        self.num_obs = len(x)
        self._swept = False

    # -- sweeps -------------------------------------------------------------

    def _sweep_plan(self) -> tuple[list[int], list[int], list[int]]:
        """``full_sweep``'s split of the nodes, kept until a node is made: the ids it scores, and the
        single-child nodes, the deepest first, with the scored node whose samples each holds."""
        if self._plan is None:
            kids, levels = self._kids, self._levels
            lone = self.m - 1  # a single-child node's count of absent children
            scored = levels[-1][:]
            source = {}
            for ids in reversed(levels[:-1]):
                for node in ids:
                    children = kids[node]
                    if children.count(-1) == lone:
                        child = max(children)
                        source[node] = source.get(child, child)
                    else:
                        scored.append(node)
            self._plan = scored, list(source), list(source.values())
        return self._plan

    def _narrowed(self, model, order: int) -> "ContextTrie":
        """A trie of the same nodes whose store holds only the first ``order`` lags, scored by ``model``.

        It shares the children, the depths' ids and the sweep plan with
        this trie, so neither may make a node afterwards.  It equals
        observing the same samples at that order, bit for bit.
        """
        self._sweep_plan()
        trie = copy.copy(self)
        trie.model, trie.states = model, self.states.narrow(order)
        trie._log_pe, trie._log_pw, trie._log_pm, trie._leaf_wins = [], [], [], []
        trie._add_values(self.num_nodes)
        trie._p_leaf = None
        trie._swept = trie._ever_swept = False
        return trie

    def full_sweep(self) -> None:
        """Recompute log_pe / log_pw / log_pm at every node: one ``log_pe`` call for all but the
        single-child nodes, which take their child's, then the combine one depth at a time from the bottom."""
        levels, pes = self._levels, self._log_pe
        scored, lone, sources = self._sweep_plan()
        for node, pe in zip(scored, self.model.log_pe(self.states.take(scored))):
            pes[node] = pe
        for node, src in zip(lone, sources):
            pes[node] = pes[src]
        self.states.copy_fit(lone, sources)
        for depth, ids in reversed([*enumerate(levels)]):
            if ids:  # else no context this long was observed
                self._combine_nodes(ids, map(pes.__getitem__, ids), repeat(self._log_pm_absent[depth]))
        self._swept = True
        self._ever_swept = True
        self._p_leaf = None

    def refresh_path(self, path: list[int]) -> None:
        """Recompute the D+1 nodes of one path, as ``observe`` returned it (root first), bottom-up.

        Identical to a full sweep when only that path's statistics changed:
        the same combine, node by node.  Requires an initial full sweep so
        off-path quantities are current.
        """
        if not self._ever_swept:
            raise RuntimeError("refresh_path needs an initial full_sweep()")
        log_pe = self.model.log_pe(self.states.take(path))
        self._combine_nodes(reversed(path), reversed(log_pe), reversed(self._log_pm_absent))
        self._swept = True
        self._p_leaf = None

    def _combine_nodes(self, nodes, log_pe, absent) -> None:
        """Store each node's log_pe and combine it with its children's values, in the order given.

        The one combine of both sweeps.  A node's children come before it;
        ``absent`` gives, per node, the ``_log_pm_absent`` of its depth.
        """
        pes, pws, pms, wins = self._log_pe, self._log_pw, self._log_pm, self._leaf_wins
        kids, log_beta, log_1mbeta = self._kids, self._log_beta, self._log_1mbeta
        for node, pe, missing in zip(nodes, log_pe, absent):
            pes[node] = pe
            if missing is None:  # depth D: a leaf of every tree
                pws[node] = pms[node] = pe
                wins[node] = True
                continue
            sum_w = sum_m = 0.0
            for child in kids[node]:
                if child < 0:
                    sum_m += missing  # P_w = 1 adds nothing; P_m is the prior of the bare node
                else:
                    sum_w += pws[child]
                    sum_m += pms[child]
            split = pe + log_beta
            second = log_1mbeta + sum_m
            pws[node] = log_add(split, log_1mbeta + sum_w)
            wins[node] = win = split >= second  # tie -> prune, prefer the smaller tree
            pms[node] = split if win else second

    def _require_swept(self):
        if not self._swept:
            raise RuntimeError("run full_sweep() (or refresh_path) before querying")

    # -- queries ------------------------------------------------------------

    @property
    def root(self) -> _NodeView:
        return _NodeView(self, 0)

    def log_evidence(self) -> float:
        """Log prior-predictive likelihood with trees and parameters integrated out."""
        self._require_swept()
        return self._log_pw[0]

    def log_map_score(self) -> float:
        """Log of max over trees of prior(T) * marginal likelihood(T)."""
        self._require_swept()
        return self._log_pm[0]

    def map_tree(self) -> TreeModel:
        """The tree attaining the maximising recursion: the draw in which every choice is certain."""
        self._require_swept()
        return self._grow(self._leaf_wins, 1, 1, lambda n: [0.0] * n)[0]  # 0.0 < True, the leaf wins, and < 1

    def map_node(self, context: Sequence[int]) -> Optional[_NodeView]:
        """The node of the MAP-tree leaf that prefixes a length-D context, in O(D).

        Walks from the root along the context and stops where ``map_tree``
        would make a leaf: at a node whose leaf wins, at depth D, or at a
        context never observed, for which it returns None.
        """
        self._require_swept()
        if len(context) != self.depth:
            raise ValueError(f"context length {len(context)} != depth {self.depth}")
        kids, node = self._kids, 0
        for sym in context:
            if self._leaf_wins[node]:
                break
            node = kids[node][sym]
            if node < 0:
                return None
        return _NodeView(self, node)

    def _find(self, context: Sequence[int]) -> int:
        """The id of an exact context's node, or -1 if never observed."""
        kids, node = self._kids, 0
        for sym in context:
            node = kids[node][sym]
            if node < 0:
                break
        return node

    def walk(self, context: tuple[int, ...]) -> Optional[_NodeView]:
        """Node for an exact context, or None if never observed."""
        node = self._find(context)
        return None if node < 0 else _NodeView(self, node)

    def posterior_of(self, tree: TreeModel) -> float:
        """Exact posterior probability of one tree; a leaf at a context never observed has P_e = 1."""
        self._require_swept()
        if tree.m != self.m:
            raise ValueError("alphabet size mismatch")
        log_joint = log_prior(tree, self.beta, self.depth)
        for leaf in tree.leaves:
            node = self._find(leaf)
            if node >= 0:
                log_joint += self._log_pe[node]
        return exp(log_joint - self._log_pw[0])

    def sample_tree(self, rng) -> TreeModel:
        """One exact draw from the posterior over trees: ``sample_trees(1, rng)``."""
        return self.sample_trees(1, rng)[0]

    def sample_trees(self, k: int, rng) -> list[TreeModel]:
        """k exact draws from the posterior over trees, equal to k ``sample_tree`` calls.

        Each examined node is a leaf with probability beta * P_e / P_w
        (beta if never observed), computed once per sweep, else opens all m
        children.  The uniforms come from ``rng.random(n)`` blocks, which
        yield the stream of n scalar ``rng.random()`` calls, and a block
        holds no more uniforms than the draws must still use, so every bit
        generator ends exactly where the scalar draws would leave it.
        Equal draws are one ``TreeModel``.
        """
        self._require_swept()
        if self._p_leaf is None:
            log_beta = self._log_beta
            self._p_leaf = [exp(min(0.0, log_beta + pe - pw)) for pe, pw in zip(self._log_pe, self._log_pw)]
        return self._grow(self._p_leaf, self.beta, k, lambda n: rng.random(min(n, _BLOCK)).tolist())

    def _grow(self, p_leaf, p_unseen, k, uniforms) -> list[TreeModel]:
        """The top-down pass of ``map_tree`` and the posterior draws, run k times.

        A node below depth D is a leaf when its uniform is below
        ``p_leaf[node]`` (``p_unseen`` if never observed); else its
        children 0..m-1 are pushed, so the last is examined first, and at
        depth D they are leaves of every tree.  ``uniforms(n)`` returns
        the next 1..n uniforms of the stream; n counts the node at hand,
        the pending nodes (all above depth D) and one root per later draw,
        each of which takes one, so no uniform is read past the last one
        used.  A node's pushed entries are made once per call, and a tree
        once per distinct draw.
        """
        kids, max_depth, m = self._kids, self.depth, self.m
        if not max_depth:  # the root is the only tree, and takes no uniform
            return [TreeModel._proper(m, [()])] * k
        unseen = [-1] * m
        opened = {}  # the children of each opened node (by id, or by context if never observed)
        trees = {}  # the one tree of each distinct draw, by its leaves in the order drawn
        draws: list[TreeModel] = []
        u, i, n = [], 0, 0
        for later in range(k - 1, -1, -1):
            leaves: list[tuple[int, ...]] = []
            stack: list[tuple[int, int, tuple[int, ...]]] = [(0, 0, ())]
            while stack:
                node, depth, prefix = stack.pop()
                if i == n:
                    u = uniforms(1 + len(stack) + later)
                    i, n = 0, len(u)
                if u[i] < (p_unseen if node < 0 else p_leaf[node]):
                    leaves.append(prefix)
                else:
                    depth += 1
                    key = prefix if node < 0 else node
                    children = opened.get(key)
                    if children is None:  # at depth D, the children are leaves of every tree
                        children = opened[key] = [prefix + (j,) for j in range(m)] if depth == max_depth else [
                            (child, depth, prefix + (j,)) for j, child in enumerate(unseen if node < 0 else kids[node])]
                    if depth == max_depth:
                        leaves += children
                    else:
                        stack += children
                i += 1
            key = tuple(leaves)
            tree = trees.get(key)
            if tree is None:
                tree = trees[key] = TreeModel._proper(m, leaves)
            draws.append(tree)
        return draws

    def nodes(self) -> Iterator[tuple[tuple[int, ...], _NodeView]]:
        """(context, node) pairs in depth-first order."""
        kids = self._kids
        stack: list[tuple[tuple[int, ...], int]] = [((), 0)]
        while stack:
            prefix, node = stack.pop()
            yield prefix, _NodeView(self, node)
            for j in range(self.m - 1, -1, -1):
                child = kids[node][j]
                if child >= 0:
                    stack.append((prefix + (j,), child))
