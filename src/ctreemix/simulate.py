"""Generators for context-tree mixture data, plus the built-in benchmark specs.

A generative spec pairs a context tree with one parameter set per leaf (AR
coefficients and noise variance, or ARCH coefficients).  Sampling walks the
tree with the quantized recent history to find the active state and draws
the next value from that leaf's conditional.  Output is deterministic in
(spec, n, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Mapping, Optional, Union

import numpy as np

from .quantizer import Quantizer
from .tree import TreeModel


@dataclass(frozen=True)
class ArLeaf:
    """AR leaf: x = intercept + phi . lags + N(0, sigma2)."""

    phi: tuple[float, ...]
    sigma2: float
    intercept: float = 0.0

    def __post_init__(self):
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be >= 0")


@dataclass(frozen=True)
class ArchLeaf:
    """ARCH leaf: x ~ N(0, alpha . (1, lag_1^2, ..., lag_p^2))."""

    alpha: tuple[float, ...]

    def __post_init__(self):
        if not self.alpha or self.alpha[0] <= 0:
            raise ValueError("alpha_0 must be given and positive")
        if any(a < 0 for a in self.alpha[1:]):
            raise ValueError("lag coefficients must be >= 0")


Leaf = Union[ArLeaf, ArchLeaf]


@dataclass(frozen=True)
class GenerativeSpec:
    kind: str  # "ar" | "arch"
    tree: TreeModel
    quantizer: Quantizer
    leaf_params: Mapping[tuple[int, ...], Leaf]
    burn_in: int = 200
    init_scale: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("ar", "arch"):
            raise ValueError("kind must be 'ar' or 'arch'")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if set(self.leaf_params) != set(self.tree.leaves):
            raise ValueError("leaf_params must cover exactly the tree leaves")
        if self.quantizer.alphabet_size != self.tree.m:
            raise ValueError("quantizer and tree alphabet sizes differ")
        for leaf, params in self.leaf_params.items():
            want = ArLeaf if self.kind == "ar" else ArchLeaf
            if not isinstance(params, want):
                raise TypeError(f"leaf {leaf}: expected {want.__name__}")

    @property
    def order(self) -> int:
        if self.kind == "ar":
            return max(len(p.phi) for p in self.leaf_params.values())
        return max(len(p.alpha) - 1 for p in self.leaf_params.values())

    @property
    def init_len(self) -> int:
        return max(self.tree.depth, self.order)

    def default_scale(self) -> float:
        if self.init_scale is not None:
            return self.init_scale
        if self.kind == "ar":
            return sqrt(float(np.mean([p.sigma2 for p in self.leaf_params.values()])) or 1.0)
        return sqrt(float(np.mean([p.alpha[0] for p in self.leaf_params.values()])))


def generate(spec: GenerativeSpec, n: int, seed: int) -> np.ndarray:
    """Sample a series of length n + init_len (initial segment included)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = np.random.default_rng(seed)
    init_len = max(spec.init_len, 1)
    hist = list(rng.normal(0.0, spec.default_scale(), size=init_len))
    # rng.normal(0.0, s) is 0.0 + s * z for the next standard normal z of the stream, so one block of z
    # draws the same values as a scalar call per step
    noise = rng.standard_normal(spec.burn_in + n + spec.init_len).tolist()
    out: list[float] = []
    depth = spec.tree.depth
    order = spec.order
    quantize = spec.quantizer
    context = tuple(quantize(hist[-1 - d]) for d in range(depth))  # each sample is quantized once, when drawn
    params_of: dict[tuple[int, ...], Leaf] = {}  # the leaf of each context seen, found once
    for z in noise:
        params = params_of.get(context)
        if params is None:
            params = params_of[context] = spec.leaf_params[spec.tree.state_of(context)]
        if spec.kind == "ar":
            mean = params.intercept
            for k, c in enumerate(params.phi):
                mean += c * hist[-1 - k]
            x = mean + (0.0 + sqrt(params.sigma2) * z)
        else:
            var = params.alpha[0]
            for k, c in enumerate(params.alpha[1:]):
                var += c * hist[-1 - k] ** 2
            x = 0.0 + sqrt(var) * z
        hist.append(x)
        if len(hist) > max(init_len, depth, order) + 1:
            del hist[0]
        if depth:
            context = (quantize(x),) + context[:-1]
        out.append(x)
    return np.asarray(out[spec.burn_in :])


@dataclass(frozen=True)
class NamedSpec:
    spec: GenerativeSpec
    default_n: int
    note: str = ""


def builtin_specs() -> dict[str, NamedSpec]:
    """Registry of the benchmark generators, addressable by name."""
    sim_1 = GenerativeSpec(
        kind="ar",
        tree=TreeModel(2, ((1,), (0, 1), (0, 0))),
        quantizer=Quantizer((0.0,)),
        leaf_params={
            (1,): ArLeaf(phi=(0.7, -0.3), sigma2=0.15),
            (0, 1): ArLeaf(phi=(-0.3, -0.2), sigma2=0.10),
            (0, 0): ArLeaf(phi=(0.5, 0.0), sigma2=0.05),
        },
    )
    quiet = ArLeaf(phi=(0.0,), sigma2=0.25)
    persistent = ArLeaf(phi=(0.99,), sigma2=0.005**2)
    sim_2 = GenerativeSpec(
        kind="ar",
        tree=TreeModel(3, ((1,), (0, 0), (0, 1), (0, 2), (2, 0), (2, 1), (2, 2))),
        quantizer=Quantizer((-0.5, 0.5)),
        leaf_params={
            (1,): quiet,
            (0, 1): quiet,
            (0, 2): quiet,
            (2, 0): quiet,
            (2, 1): quiet,
            (0, 0): persistent,
            (2, 2): persistent,
        },
    )
    # Two-regime threshold AR(5): oscillatory upper regime, near-unit-root
    # lag-5 pull below the threshold.  Globally stable.
    sim_3 = GenerativeSpec(
        kind="ar",
        tree=TreeModel(2, ((0,), (1,))),
        quantizer=Quantizer((-0.2,)),
        leaf_params={
            (1,): ArLeaf(phi=(0.9, -0.9, 0.0, 0.0, -0.2), sigma2=1.0, intercept=-0.1),
            (0,): ArLeaf(phi=(0.1, 0.0, 0.0, 0.0, 0.9), sigma2=1.0, intercept=0.2),
        },
    )
    arch_sim = GenerativeSpec(
        kind="arch",
        tree=TreeModel(2, ((0,), (1,))),
        quantizer=Quantizer((0.0,)),
        leaf_params={
            (0,): ArchLeaf(alpha=(0.10, 0.20, 0.20)),
            (1,): ArchLeaf(alpha=(0.10, 0.20, 0.0)),
        },
    )
    return {
        "sim_1": NamedSpec(sim_1, 600, "binary depth-2 tree, AR(2) leaves"),
        "sim_2": NamedSpec(sim_2, 500, "ternary depth-2 tree, AR(1) leaves"),
        "sim_3": NamedSpec(sim_3, 200, "two-regime threshold AR(5)"),
        "arch_sim": NamedSpec(arch_sim, 5000, "binary depth-1 tree, ARCH(2) leaves"),
    }
