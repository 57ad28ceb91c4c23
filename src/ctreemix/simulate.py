"""Generators for context-tree mixture data, plus the built-in benchmark specs.

A generative spec pairs a context tree with one parameter set per leaf (AR
coefficients and noise variance, or ARCH coefficients).  Sampling walks the
tree with the quantized recent history to find the active state and draws
the next value from that leaf's conditional.  Output is deterministic in
(spec, n, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite, sqrt
from typing import Mapping, Optional, Union

import numpy as np

from .io import _NUMBER, _doc_field
from .quantizer import Quantizer
from .tree import TreeModel


@dataclass(frozen=True)
class ArLeaf:
    """AR leaf: x = intercept + phi . lags + N(0, sigma2)."""

    phi: tuple[float, ...]
    sigma2: float
    intercept: float = 0.0

    def __post_init__(self):
        if not all(map(isfinite, (*self.phi, self.sigma2, self.intercept))):
            raise ValueError("phi, sigma2 and intercept must be finite")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be >= 0")


@dataclass(frozen=True)
class ArchLeaf:
    """ARCH leaf: x ~ N(0, alpha . (1, lag_1^2, ..., lag_p^2))."""

    alpha: tuple[float, ...]

    def __post_init__(self):
        if not all(map(isfinite, self.alpha)):
            raise ValueError("alpha must be finite")
        if not self.alpha or self.alpha[0] <= 0:
            raise ValueError("alpha_0 must be given and positive")
        if any(a < 0 for a in self.alpha[1:]):
            raise ValueError("lag coefficients must be >= 0")


Leaf = Union[ArLeaf, ArchLeaf]


@dataclass(frozen=True)
class GenerativeSpec:
    """A context tree and each leaf's parameters, all ArLeaf or all ArchLeaf: their class is the family."""

    tree: TreeModel
    quantizer: Quantizer
    leaf_params: Mapping[tuple[int, ...], Leaf]
    burn_in: int = 200
    init_scale: Optional[float] = None

    def __post_init__(self):
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.init_scale is not None and not 0 <= self.init_scale < inf:
            raise ValueError("init_scale must be finite and >= 0")
        if set(self.leaf_params) != set(self.tree.leaves):
            raise ValueError("leaf_params must cover exactly the tree leaves")
        if self.quantizer.alphabet_size != self.tree.m:
            raise ValueError("quantizer and tree alphabet sizes differ")
        if not any(all(isinstance(p, family) for p in self.leaf_params.values()) for family in (ArLeaf, ArchLeaf)):
            raise TypeError("leaf_params must be all ArLeaf or all ArchLeaf")

    @classmethod
    def from_document(cls, doc: dict) -> "GenerativeSpec":
        """The spec of a JSON document (see README), whose kind picks the leaf class; ValueError names a bad field."""
        if not isinstance(doc, dict):
            raise ValueError("spec document is not a JSON object")
        kind = _doc_field(doc, "kind", (str,), name="spec")
        family = {"ar": ArLeaf, "arch": ArchLeaf}.get(kind)
        if family is None:
            raise ValueError(f"spec field 'kind' is malformed: {kind!r}")
        thresholds = tuple(float(v) for v in _doc_field(doc, "thresholds", (list,), _NUMBER, "spec"))
        leaves = {}
        for k, entry in enumerate(_doc_field(doc, "leaves", (list,), name="spec")):
            leaf = f"spec leaf {k}"
            ctx = tuple(_doc_field(entry, "context", (list,), (int,), leaf))
            if ctx in leaves:
                raise ValueError(f"{leaf} field 'context' repeats an earlier leaf's")
            if family is ArLeaf:
                leaves[ctx] = ArLeaf(
                    phi=tuple(float(v) for v in _doc_field(entry, "phi", (list,), _NUMBER, leaf)),
                    sigma2=float(_doc_field(entry, "sigma2", _NUMBER, name=leaf)),
                    intercept=float(_doc_field(entry, "intercept", _NUMBER + (type(None),), name=leaf) or 0.0),
                )
            else:
                alpha = _doc_field(entry, "alpha", (list,), _NUMBER, leaf)
                leaves[ctx] = ArchLeaf(alpha=tuple(float(v) for v in alpha))
        burn_in = _doc_field(doc, "burn_in", (int, type(None)), name="spec")
        return cls(
            tree=TreeModel(len(thresholds) + 1, tuple(leaves)),
            quantizer=Quantizer(thresholds),
            leaf_params=leaves,
            burn_in=200 if burn_in is None else burn_in,
            init_scale=_doc_field(doc, "init_scale", _NUMBER + (type(None),), name="spec"),
        )

    @property
    def order(self) -> int:
        return max(len(p.phi) if isinstance(p, ArLeaf) else len(p.alpha) - 1 for p in self.leaf_params.values())

    @property
    def init_len(self) -> int:
        return max(self.tree.depth, self.order)

    def default_scale(self) -> float:
        if self.init_scale is not None:
            return self.init_scale
        variances = [p.sigma2 if isinstance(p, ArLeaf) else p.alpha[0] for p in self.leaf_params.values()]
        return sqrt(float(np.mean(variances)) or 1.0)  # alpha_0 > 0, so only AR leaves can need the 1.0


def generate(spec: GenerativeSpec, n: int, seed: int) -> np.ndarray:
    """Sample a series of length n + init_len (initial segment included).

    ValueError if a draw, burn-in included, leaves float64: the leaves make the series explode.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = np.random.default_rng(seed)
    init_len = max(spec.init_len, 1)
    hist = rng.normal(0.0, spec.default_scale(), size=init_len).tolist()
    # rng.normal(0.0, s) is 0.0 + s * z for the next standard normal z of the stream, so one block of z
    # draws the same values as a scalar call per step
    noise = rng.standard_normal(spec.burn_in + n + spec.init_len).tolist()
    out: list[float] = []
    depth = spec.tree.depth
    order = spec.order
    quantize = spec.quantizer
    ar = isinstance(next(iter(spec.leaf_params.values())), ArLeaf)  # the family, decided once
    if ar:
        def draw(params: ArLeaf, z: float) -> float:
            mean = params.intercept
            for k, c in enumerate(params.phi):
                mean += c * hist[-1 - k]
            return mean + (0.0 + sqrt(params.sigma2) * z)
    else:
        def draw(params: ArchLeaf, z: float) -> float:
            var = params.alpha[0]
            for k, c in enumerate(params.alpha[1:]):
                var += c * hist[-1 - k] ** 2
            return 0.0 + sqrt(var) * z
    context = tuple(quantize(hist[-1 - d]) for d in range(depth))  # each sample is quantized once, when drawn
    params_of: dict[tuple[int, ...], Leaf] = {}  # the leaf of each context seen, found once
    try:
        for z in noise:
            params = params_of.get(context)
            if params is None:
                params = params_of[context] = spec.leaf_params[spec.tree.state_of(context)]
            x = draw(params, z)
            hist.append(x)
            if len(hist) > max(init_len, depth, order) + 1:
                del hist[0]
            if depth:
                context = (quantize(x),) + context[:-1]
            out.append(x)
    except OverflowError:  # an ARCH lag's square left float64
        out.append(inf)
    series = np.asarray(out)
    if not np.isfinite(series).all():
        raise ValueError(f"draw {np.argmin(np.isfinite(series)) + 1} leaves float64: "
                         f"the leaves' {'phi' if ar else 'alpha'} make the series explode")
    return series[spec.burn_in :]


@dataclass(frozen=True)
class NamedSpec:
    spec: GenerativeSpec
    default_n: int
    note: str = ""


def builtin_specs() -> dict[str, NamedSpec]:
    """Registry of the benchmark generators, addressable by name."""
    sim_1 = GenerativeSpec(
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
        tree=TreeModel(2, ((0,), (1,))),
        quantizer=Quantizer((-0.2,)),
        leaf_params={
            (1,): ArLeaf(phi=(0.9, -0.9, 0.0, 0.0, -0.2), sigma2=1.0, intercept=-0.1),
            (0,): ArLeaf(phi=(0.1, 0.0, 0.0, 0.0, 0.9), sigma2=1.0, intercept=0.2),
        },
    )
    arch_sim = GenerativeSpec(
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
